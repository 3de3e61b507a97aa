"""Golden outputs: fresh output must match the stored bytes exactly.

The ``verify`` files under ``tests/golden/`` freeze the JSON and the text
reports of the family-algebra routes (family products, sums, fixpoints and
the Hamiltonian spectrum).  The ``check`` and ``oracle`` files freeze every subject of those
commands, in text and in JSON, so that a change to how a verdict, witness or
oracle result is rendered fails here; a deliberate change is a reviewed update
of the golden file.
"""

import io
from pathlib import Path

import pytest

from combspectra.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

# P3, C4, K4 and a 6-vertex tree, one graph6 line each.
HAMILTONIAN_GRAPHS = "hamiltonian_graphs.g6"
# The eight connected graphs of orders 3 and 4, one graph6 line each.
SMALL_GRAPHS = "small_graphs.g6"

# golden file -> (graph6 lines on stdin, argv)
CASES = {
    "verify_colorings.json": (None, (
        "verify", "--theorem", "colorings", "--max-n", "4", "--k", "2", "--k", "3", "--json",
    )),
    "verify_fixpoint.json": (None, ("verify", "--theorem", "fixpoint", "--max-n", "4", "--json")),
    "verify_hamiltonian.json": (
        None, ("verify", "--theorem", "hamiltonian", "--max-n", "5", "--json"),
    ),
    "check_hamiltonian.jsonl": (HAMILTONIAN_GRAPHS, ("check", "hamiltonian", "-", "--json")),
}
# The same three sweeps as text reports.
for stem in ("verify_colorings", "verify_fixpoint", "verify_hamiltonian"):
    CASES[f"{stem}.txt"] = (None, CASES[f"{stem}.json"][1][:-1])

# Every check and oracle subject, at each label bound it is run with here.
SMALL_RUNS = {
    "check_antimagic": ("check", "antimagic"),
    "check_irregular-strength_k1": ("check", "irregular-strength", "--k", "1"),
    "check_irregular-strength_k2": ("check", "irregular-strength", "--k", "2"),
    "check_one-two-three": ("check", "one-two-three"),
    "check_domination_k1": ("check", "domination", "--k", "1"),
    "check_domination_k2": ("check", "domination", "--k", "2"),
    "check_edge-roman_k1": ("check", "edge-roman", "--k", "1"),
    "check_edge-roman_k2": ("check", "edge-roman", "--k", "2"),
    "check_hamiltonian_small": ("check", "hamiltonian"),
    "oracle_antimagic": ("oracle", "antimagic"),
    "oracle_strength_k-max3": ("oracle", "strength", "--k-max", "3"),
    "oracle_chi-sigma_k1": ("oracle", "chi-sigma", "--k", "1"),
    "oracle_chi-sigma_k2": ("oracle", "chi-sigma", "--k", "2"),
    "oracle_chi-sigma_k3": ("oracle", "chi-sigma", "--k", "3"),
    "oracle_domination_k1": ("oracle", "domination", "--k", "1"),
    "oracle_domination_k2": ("oracle", "domination", "--k", "2"),
    "oracle_edge-roman": ("oracle", "edge-roman"),
    "oracle_hamiltonian": ("oracle", "hamiltonian"),
}
for stem, argv in SMALL_RUNS.items():
    CASES[f"{stem}.txt"] = (SMALL_GRAPHS, (*argv, "-"))
    CASES[f"{stem}.jsonl"] = (SMALL_GRAPHS, (*argv, "-", "--json"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(capsys, monkeypatch, name):
    graphs, argv = CASES[name]
    if graphs is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO((GOLDEN / graphs).read_text()))
    code = main([*argv, "--workers", "1"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
