"""Golden outputs: fresh ``--json`` output must match the stored bytes exactly.

The files under ``tests/golden/`` freeze the reports of the family-algebra
routes (family products, sums, fixpoints and the Hamiltonian spectrum), so a
change that alters any output byte fails here; a deliberate change is a
reviewed update of the golden file.
"""

import io
from pathlib import Path

import pytest

from combspectra.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_colorings.json": (
        "verify", "--theorem", "colorings", "--max-n", "4", "--k", "2", "--k", "3",
    ),
    "verify_fixpoint.json": ("verify", "--theorem", "fixpoint", "--max-n", "4"),
    "verify_hamiltonian.json": ("verify", "--theorem", "hamiltonian", "--max-n", "5"),
    "verify_antimagic-variants.json": (
        "verify", "--theorem", "antimagic-variants", "--max-n", "4",
    ),
    # P3, C4, K4 and a 6-vertex tree, one graph6 line each.
    "check_hamiltonian.jsonl": ("check", "hamiltonian", "-"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(capsys, monkeypatch, name):
    graphs = (GOLDEN / "hamiltonian_graphs.g6").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(graphs))
    code = main([*CASES[name], "--workers", "1", "--json"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
