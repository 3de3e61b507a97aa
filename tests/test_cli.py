"""Command-line interface: subcommands, exit codes, JSON shape, determinism."""

import contextlib
import errno
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from combspectra import cli
from combspectra.cli import (
    EXIT_DISAGREE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_SIZE_GUARD,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    main,
)
from combspectra.graphs import complete_graph, path_graph, to_edge_list, to_graph6
from combspectra.ring import const


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.edges"
    path.write_text(to_edge_list(path_graph(3)))
    return str(path)


@pytest.fixture()
def k2_file(tmp_path):
    path = tmp_path / "k2.edges"
    path.write_text(to_edge_list(complete_graph(2)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_domination(capsys, p3_file):
    code, out, _ = run(capsys, "check", "domination", "--k", "1", p3_file)
    assert code == EXIT_OK
    assert "holds" in out and "dominating set: {2}" in out


def test_check_domination_json(capsys, p3_file):
    code, out, _ = run(capsys, "check", "domination", "--k", "1", p3_file, "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["schema"] == "1"
    assert data["verdict"]["holds"] is True
    assert data["dominating_set"] == [2]


def test_check_one_two_three_precondition(capsys, k2_file):
    code, _out, err = run(capsys, "check", "one-two-three", k2_file)
    assert code == EXIT_PRECONDITION
    assert "component" in err


def test_check_edge_roman(capsys, p3_file):
    code, out, _ = run(capsys, "check", "edge-roman", "--k", "2", p3_file)
    assert code == EXIT_OK
    assert "holds" in out
    code, out, _ = run(capsys, "check", "edge-roman", "--k", "1", p3_file)
    assert code == EXIT_OK
    assert "does not hold" in out


def test_check_requires_k(capsys, p3_file):
    code, _out, err = run(capsys, "check", "domination", p3_file)
    assert code == EXIT_USAGE
    assert "--k" in err


def test_check_hamiltonian(capsys, p3_file):
    code, out, _ = run(capsys, "check", "hamiltonian", p3_file, "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["spectrum"] == [4] and data["number"] == 4


def test_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("3 1\n1 1\n")
    code, _out, err = run(capsys, "check", "antimagic", str(bad))
    assert code == EXIT_PARSE
    assert "loop" in err


@pytest.mark.parametrize("command", [("check", "antimagic"), ("oracle", "antimagic")])
def test_order_above_62_exits_parse(capsys, tmp_path, command):
    big = tmp_path / "big.edges"
    big.write_text("63 0\n")
    code, _out, err = run(capsys, *command, str(big))
    assert code == EXIT_PARSE
    assert "n > 62" in err


_NOT_UTF8 = b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256))


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "antimagic", "BINARY"),
        ("oracle", "edge-roman", "BINARY"),
        ("check", "hamiltonian", "P3", "--by", "BINARY"),
    ],
)
def test_graph_file_that_is_not_utf8_exits_parse(capsys, tmp_path, p3_file, argv):
    binary = tmp_path / "binary"
    binary.write_bytes(_NOT_UTF8)
    files = {"BINARY": str(binary), "P3": p3_file}
    code, out, err = run(capsys, *(files.get(arg, arg) for arg in argv))
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith(f"error (parse): cannot decode {binary}: ")


def test_standard_input_that_is_not_utf8_exits_parse(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe\n"), encoding="utf-8"))
    code, out, err = run(capsys, "check", "antimagic", "-")
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error (parse): cannot decode standard input: ")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("check", "antimagic"), EXIT_PRECONDITION),
        (("check", "irregular-strength", "--k", "2"), EXIT_PRECONDITION),
        (("check", "one-two-three"), EXIT_PRECONDITION),
        (("oracle", "antimagic"), EXIT_PRECONDITION),
        (("check", "domination", "--k", "9"), EXIT_PRECONDITION),
        (("check", "hamiltonian"), EXIT_SIZE_GUARD),
    ],
)
def test_cheap_preconditions_come_before_the_order_guard(capsys, tmp_path, argv, expected):
    # order 8 > the default max_n, with isolated vertices and one edge
    eight = tmp_path / "eight.edges"
    eight.write_text("8 1\n1 2\n")
    code, out, _err = run(capsys, *argv, str(eight))
    assert code == expected
    assert out == ""


def test_parse_error_json_payload(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("nonsense\n")
    code, out, _ = run(capsys, "check", "antimagic", str(bad), "--json")
    assert code == EXIT_PARSE
    data = json.loads(out)
    assert data["error"]["code"] == "parse"


def _cli(argv, buffering="buffered", prefix=(), **popen):
    """Start ``python -m combspectra.cli argv`` with stderr piped, its stdio
    buffered (Python's default) or unbuffered (``-u``)."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    python = [sys.executable, *(["-u"] if buffering == "unbuffered" else [])]
    return subprocess.Popen([*prefix, *python, "-m", "combspectra.cli", *argv],
                            env=env, **{"stderr": subprocess.PIPE, **popen})


def _ended(proc) -> tuple[int, bytes]:
    """The exit code and stderr of proc, killed if it runs for a minute."""
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()  # nothing once it has exited
    return proc.returncode, err


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
def test_a_reader_that_leaves_ends_the_command_quietly(buffering):
    # the report (~0.5 MB) outgrows the pipe, so the writer meets the closed end
    argv = ["verify", "--theorem", "domination", "--max-n", "7", "--workers", "1"]
    with _cli(argv, buffering, stdout=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"verify domination (theorem)\n"
        proc.stdout.close()
        assert _ended(proc) == (cli.EXIT_INTERNAL, b"")


NO_SPACE = "error (internal): cannot write standard output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
def test_a_full_device_ends_the_command_with_one_line(p3_file, buffering):
    # buffered, the bytes a failed write leaves behind would fail the flush at exit too
    argv = ["check", "domination", p3_file, "--k", "1", "--json"]
    with open("/dev/full", "wb") as full, _cli(argv, buffering, stdout=full) as proc:
        assert _ended(proc) == (cli.EXIT_INTERNAL, NO_SPACE.encode())


def test_a_closed_standard_output_ends_the_command_with_one_line(p3_file):
    # the shell closes descriptor 1 before Python starts, so sys.stdout is None
    argv = ["check", "domination", p3_file, "--k", "1"]
    with _cli(argv, prefix=["sh", "-c", 'exec "$@" >&-', "sh"]) as proc:
        assert _ended(proc) == (
            cli.EXIT_INTERNAL, b"error (internal): cannot write standard output: it is closed\n"
        )


@pytest.fixture()
def isolated_file(tmp_path):
    # an isolated vertex: every subject refuses it, exit 4
    path = tmp_path / "isolated.edges"
    path.write_text("3 1\n1 2\n")
    return str(path)


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "stderr",
    ["closed",
     pytest.param("full", marks=pytest.mark.skipif(
         not os.path.exists("/dev/full"), reason="no /dev/full"))],
)
def test_a_failed_write_to_standard_error_keeps_the_exit_code(isolated_file, buffering, stderr):
    # a traceback would end in exit 1, a failed flush at exit in 120
    argv = ["check", "antimagic", isolated_file]
    with contextlib.ExitStack() as stack:
        if stderr == "closed":
            popen = {"prefix": ["sh", "-c", 'exec "$@" 2>&-', "sh"], "stderr": None}
        else:
            popen = {"stderr": stack.enter_context(open("/dev/full", "wb"))}
        proc = stack.enter_context(_cli(argv, buffering, stdout=subprocess.PIPE, **popen))
        try:
            out, _ = proc.communicate(timeout=60)
        finally:
            proc.kill()  # nothing once it has exited
    assert (proc.returncode, out) == (EXIT_PRECONDITION, b"")


class _FailingError(io.StringIO):
    def write(self, _text):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("stderr", [None, _FailingError()], ids=["missing", "failing"])
def test_an_error_that_cannot_be_written_keeps_its_exit_code(
    monkeypatch, capsys, isolated_file, stderr
):
    # a missing sys.stderr is not replaced by standard output
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["check", "antimagic", isolated_file]) == EXIT_PRECONDITION
    assert main(["check", "antimagic", isolated_file, "--k", "1"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "failure, said",
    [(BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),
     (OSError(errno.ENOSPC, "No space left on device"), NO_SPACE)],
)
def test_a_failed_write_to_an_in_memory_output_ends_the_command(
    monkeypatch, capsys, p3_file, failure, said
):
    # an output with no descriptor, as in the benchmark's in-process runs
    class Failing(io.StringIO):
        def write(self, _text):
            raise failure

    monkeypatch.setattr(sys, "stdout", Failing())
    for json_flag in ((), ("--json",)):
        assert main(["check", "domination", p3_file, "--k", "1", *json_flag]) == cli.EXIT_INTERNAL
        assert capsys.readouterr().err == said
    # an error payload that cannot be written ends the same way
    assert main(["check", "domination", p3_file, "--json"]) == EXIT_USAGE
    assert main(["check", "antimagic", p3_file, "--json", "--max-n", "2"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err == "error (usage): check domination requires --k\n" + said


def test_size_guard_exit(capsys, tmp_path):
    k5 = tmp_path / "k5.edges"
    k5.write_text(to_edge_list(complete_graph(5)))
    code, _out, err = run(capsys, "check", "antimagic", str(k5), "--max-family", "100")
    assert code == EXIT_SIZE_GUARD
    assert "guard" in err


def test_env_override_and_flag_precedence(capsys, tmp_path, monkeypatch):
    k5 = tmp_path / "k5.edges"
    k5.write_text(to_edge_list(complete_graph(5)))
    monkeypatch.setenv("COMBSPECTRA_MAX_FAMILY", "100")
    code, _out, _err = run(capsys, "check", "antimagic", str(k5))
    assert code == EXIT_SIZE_GUARD
    # flag wins over the environment
    monkeypatch.setenv("COMBSPECTRA_MAX_FAMILY", "100")
    code, _out, _err = run(
        capsys, "check", "domination", "--k", "1", str(k5), "--max-family", "10000000"
    )
    assert code == EXIT_OK


def test_stdin_graph6(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(path_graph(3)) + "\n"))
    code, out, _ = run(capsys, "check", "domination", "--k", "1", "-")
    assert code == EXIT_OK
    assert "holds" in out


@pytest.mark.parametrize("text", ["# c\nBw\n", "3 3\n1 2\n1 3\n2 3\n"])
def test_stdin_reads_what_a_file_reads(capsys, monkeypatch, tmp_path, text):
    # a comment line and an edge list on stdin, as in a file
    import io

    path = tmp_path / "graph.txt"
    path.write_text(text)
    code, from_file, _ = run(capsys, "check", "domination", "--k", "1", str(path))
    assert code == EXIT_OK and from_file.startswith("graph Bw: n=3 m=3\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, "check", "domination", "--k", "1", "-") == (EXIT_OK, from_file, "")


@pytest.mark.parametrize("text", ["", "\n# only a comment\n"])
def test_empty_stdin_is_a_parse_error_naming_it(capsys, monkeypatch, text):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "check", "domination", "--k", "1", "-")
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error (parse): standard input: empty input")


def test_check_domination_names_a_one_vertex_graph(capsys, monkeypatch):
    # no k fits one vertex; the message names that, not the empty range 1..0
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("@\n"))
    code, out, err = run(capsys, "check", "domination", "--k", "1", "-")
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert err == (
        "error (precondition): the domination search needs at least 2 vertices, got n=1\n"
    )


def test_oracle_commands(capsys, p3_file):
    code, out, _ = run(capsys, "oracle", "strength", p3_file, "--json")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == 2
    code, out, _ = run(capsys, "oracle", "edge-roman", p3_file, "--json")
    assert json.loads(out)["value"] == 2
    code, out, _ = run(capsys, "oracle", "domination", "--k", "1", p3_file, "--json")
    assert json.loads(out)["value"] is True


def test_verify_identity(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "R1", "--n", "3..4", "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["summary"]["disagreements"] == 0
    assert [row["n"] for row in data["rows"]] == [3, 4]


def test_verify_orbit_identity(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "orbit", "--n", "3..5", "--trials", "20", "--json"
    )
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [(row["n"], row["search"]) for row in rows[:9]] == [
        (3, "domination"), (3, "strength"), (3, "one-two-three"), (3, "antimagic"),
        (3, "edge-roman"), (3, "weighting"), (3, "family-product"), (3, "hamiltonian"),
        (3, "hamiltonian-pattern"),
    ]
    assert len(rows) == 27
    assert all(row["agree"] and row["checks"] > 0 for row in rows)
    assert [row["checks"] for row in rows if row["search"] == "domination"] == [4, 18, 84]
    # closed right families (two up to n=4, one above), the two singleton
    # probes and a random indicator, per trial
    assert [row["checks"] for row in rows if row["search"] == "family-product"] == [100, 100, 80]
    # every connected graph of each order
    assert [row["checks"] for row in rows if row["search"] == "hamiltonian"] == [2, 6, 21]
    assert [row["checks"] for row in rows if row["search"] == "hamiltonian-pattern"] == [2, 6, 21]
    # the strength and the antimagic member of each trial
    assert [row["checks"] for row in rows if row["search"] == "weighting"] == [40, 40, 40]


def _antimagic_accept_counting_every_pair(n):
    # the real label test, but with |E| = C(n, 2) as if every pair were an edge
    pairs = n * (n - 1) // 2

    def accept(p):
        heads = {p.coeff_x(j) for j in range(n)}
        labels = {p.coeff_x(n + r) for r in range(pairs)}
        return len(heads) == n and labels >= {const(c) for c in range(1, pairs + 1)}

    return accept


@pytest.mark.parametrize(
    "name, broken",
    [
        # checks that the endpoint sums are distinct and skips the labels
        ("_antimagic_accept",
         lambda n: lambda p: len({p.coeff_x(j) for j in range(n)}) == n),
        ("_antimagic_accept", _antimagic_accept_counting_every_pair),
        # accepts every weighting as irregular
        ("_strength_accept", lambda n: lambda _p: True),
    ],
    ids=["antimagic-skips-labels", "antimagic-counts-every-pair", "strength-accepts-all"],
)
def test_verify_weighting_row_catches_a_wrong_accept(monkeypatch, name, broken):
    from combspectra import characterize as ch
    from combspectra.verify import run_identity

    monkeypatch.setattr(ch, name, broken)
    rows = run_identity("orbit", ns=(3, 4), trials=20)["rows"]
    failures = [row["failures"] for row in rows if row["search"] == "weighting"]
    assert len(failures) == 2 and sum(failures) > 0


def test_verify_reader_rows_catch_a_miscounting_scan(monkeypatch):
    # the reader rows compare the identity reading, n! accepted bijections or
    # none, with an independent n! scan; a flipped verdict miscounts by n!
    from combspectra import characterize as ch
    from combspectra.verify import run_identity

    scan = ch._scan

    def flipped(*args, **kwargs):
        verdict = scan(*args, **kwargs)
        verdict.holds = not verdict.holds
        return verdict

    monkeypatch.setattr(ch, "_scan", flipped)
    rows = run_identity("orbit", ns=(3,), trials=5)["rows"]
    readers = {row["search"]: row["failures"] for row in rows if row["search"] in (
        "strength", "one-two-three", "antimagic", "edge-roman")}
    assert readers == {"strength": 5, "one-two-three": 5, "antimagic": 5, "edge-roman": 5}


@pytest.mark.parametrize(
    "module, name, old, new, failures",
    [
        # a kernel that never tests its last head accepts too early
        ("characterize", "_tail_scan", "for h in heads:", "for h in heads[:-1]:", [1, 4, 11]),
        # a reference accept that drops the last head's coefficient
        ("verify", "_domination_accept", "needed = n - k\n", "needed = n - k - 1\n",
         [1, 7, 40]),
        # a reference scan that counts only its first accepted f keeps the
        # verdict, witness and polynomial; only the definition count sees it
        ("verify", "_full_scan", "accepted += 1", "accepted += first is None", [4, 16, 74]),
    ],
)
def test_verify_domination_row_catches_a_broken_route(monkeypatch, module, name, old, new,
                                                      failures):
    # 4, 18 and 84 (graph, k) checks at n = 3, 4 and 5
    import importlib
    import inspect

    from combspectra.verify import run_identity, run_theorem

    mod = importlib.import_module(f"combspectra.{module}")
    source = inspect.getsource(getattr(mod, name))
    assert source.count(old) == 1
    namespace = dict(vars(mod))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(mod, name, namespace[name])
    rows = run_identity("orbit", ns=(3, 4, 5), trials=1)["rows"]
    domination = [(row["checks"], row["failures"]) for row in rows if row["search"] == "domination"]
    assert domination == list(zip([4, 18, 84], failures))
    if module == "characterize":
        # the sweep runs the same kernel, so its rows disagree too
        assert run_theorem("domination", max_n=4)["summary"]["disagreements"] > 0


def test_verify_hamiltonian_row_catches_a_recursion_without_its_closing_edge(monkeypatch):
    # the mutant adds no distance back to vertex 1, so every cycle comes out
    # one closing edge short of the full product's totals
    import inspect

    from combspectra import characterize as ch
    from combspectra.verify import run_identity

    source = inspect.getsource(ch._cycle_lengths)
    closing = "out |= lengths << dist[v][0]"
    assert source.count(closing) == 1
    namespace = dict(vars(ch))
    exec(source.replace(closing, "out |= lengths"), namespace)
    monkeypatch.setattr(ch, "_cycle_lengths", namespace["_cycle_lengths"])
    rows = run_identity("orbit", ns=(3, 4, 5), trials=1)["rows"]
    assert [row["failures"] for row in rows if row["search"] == "hamiltonian"] == [2, 6, 21]


def test_verify_hamiltonian_pattern_row_catches_a_scan_that_drops_an_edge(monkeypatch):
    # the mutant leaves one edge of the pattern out of every total, so each
    # spectrum loses its least value; the cycle row takes the recursion and
    # still agrees
    import inspect

    from combspectra import characterize as ch
    from combspectra.verify import run_identity

    source = inspect.getsource(ch.hamiltonian_spectrum)
    placed = "for u, v in edges]"
    assert source.count(placed) == 1
    namespace = dict(vars(ch))
    exec(source.replace(placed, "for u, v in edges[1:]]"), namespace)
    monkeypatch.setattr(ch, "hamiltonian_spectrum", namespace["hamiltonian_spectrum"])
    rows = run_identity("orbit", ns=(3, 4, 5), trials=1)["rows"]
    assert [row["failures"] for row in rows if row["search"] == "hamiltonian-pattern"] == [2, 6, 21]
    assert [row["failures"] for row in rows if row["search"] == "hamiltonian"] == [0, 0, 0]


@pytest.mark.parametrize(
    "flags",
    [("--trials", "-5"), ("--trials", "0"), ("--trials", "x"),
     ("--n", "abc"), ("--n", "1..3"), ("--n", "5..3"),
     # orders below the subject's least one: a sweep of nothing
     ("--theorem", "domination", "--max-n", "1"),
     ("--theorem", "fixpoint", "--max-n", "1"),
     ("--theorem", "hamiltonian", "--max-n", "2"),
     # label bounds below 1
     ("--theorem", "irregular-strength", "--max-n", "3", "--k", "0"),
     ("--theorem", "colorings", "--k", "0"),
     # label bounds for a subject that takes none
     ("--theorem", "domination", "--max-n", "3", "--k", "3"),
     ("--theorem", "hamiltonian", "--k", "1"),
     ("--identity", "R1", "--k", "1"),
     # identity-suite options on a theorem sweep
     ("--theorem", "domination", "--max-n", "3", "--n", "3..5"),
     ("--theorem", "domination", "--max-n", "3", "--trials", "5"),
     ("--theorem", "domination", "--max-n", "3", "--seed", "9"),
     # identity-suite options that the suite does not read
     ("--identity", "R1", "--n", "3", "--trials", "5", "--seed", "3"),
     ("--identity", "R1", "--seed", "3"),
     ("--identity", "S1", "--trials", "5"),
     ("--identity", "E1", "--seed", "3"),
     ("--identity", "ring-axioms", "--n", "9..12"),
     # a list of orders that names none
     ("--n", ",")],
)
def test_verify_bad_flags_exit_usage(capsys, flags):
    # The parser rejects malformed values, the command well-formed ones that
    # the subject cannot take.
    by_parser = bool({"-5", "0", "x", "abc", "1..3", "5..3", ","} & set(flags))
    if "--theorem" not in flags and "--identity" not in flags:
        flags = ("--identity", "ring-axioms", *flags)
    try:
        code = main(["verify", *flags])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == EXIT_USAGE
    assert out.out == ""
    if by_parser:
        assert "error: argument" in out.err
        if flags[-1] in ("5..3", ","):  # a well-formed spec that names no order
            assert out.err.endswith(f"error: argument --n: {flags[-1]!r} names no order\n")
    else:  # rejected by the command before any work, in one line
        assert out.err.startswith("error (usage): ") and out.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [("check", "antimagic", "--k", "5"),
     ("check", "one-two-three", "--k", "1"),
     ("check", "hamiltonian", "--k", "1"),
     ("check", "domination", "--k", "1", "--by", "x"),
     ("check", "antimagic", "--by", "x"),
     ("oracle", "edge-roman", "--k", "1"),
     ("oracle", "strength", "--k", "2"),
     ("oracle", "hamiltonian", "--k", "1"),
     ("oracle", "antimagic", "--k-max", "9"),
     ("oracle", "domination", "--k", "1", "--k-max", "2"),
     ("check", "antimagic", "--seed", "2"),
     ("oracle", "strength", "--seed", "2")],
)
def test_flag_the_subject_does_not_take_exits_usage(capsys, p3_file, argv):
    code, out, err = run(capsys, *argv, p3_file, "--json")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error (usage): {argv[0]} {argv[1]} takes no {argv[-2]}\n"


# Each command's subjects, in the order its parser offers them.
SUBJECTS = {
    ("check",): ["antimagic", "irregular-strength", "one-two-three", "domination",
                 "edge-roman", "hamiltonian"],
    ("oracle",): ["antimagic", "strength", "chi-sigma", "domination", "edge-roman",
                  "hamiltonian"],
    ("verify", "--theorem"): ["colorings", "fixpoint", "antimagic", "irregular-strength",
                              "one-two-three", "domination", "edge-roman", "hamiltonian"],
}


@pytest.mark.parametrize("command", list(SUBJECTS), ids=" ".join)
def test_each_command_offers_its_subjects_in_a_fixed_order(capsys, command):
    # the parser names them in this order in its "invalid choice" message, so
    # reordering them changes the bytes written to stderr
    import argparse

    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dest = command[1].removeprefix("--") if len(command) > 1 else "subject"
    action = next(a for a in commands.choices[command[0]]._actions if a.dest == dest)
    assert list(action.choices) == SUBJECTS[command]
    with pytest.raises(SystemExit):
        main([*command, "no-such-subject"])
    err = capsys.readouterr().err
    positions = [err.find(subject, err.index("choose from")) for subject in SUBJECTS[command]]
    assert -1 not in positions and positions == sorted(positions)


# Every check and oracle subject: its arguments on P3, and the characterize or
# oracles function that answers it.
CALLS = [
    (("check", "antimagic"), "characterize", "antimagic_unweighted"),
    (("check", "irregular-strength", "--k", "2"), "characterize", "strength_at_most"),
    (("check", "one-two-three"), "characterize", "one_two_three"),
    (("check", "domination", "--k", "1"), "characterize", "dominating_k"),
    (("check", "edge-roman", "--k", "1"), "characterize", "edge_roman_at_most"),
    (("check", "hamiltonian"), "characterize", "hamiltonian_cycle_spectrum"),
    (("oracle", "antimagic"), "oracles", "antimagic_oracle"),
    (("oracle", "strength"), "oracles", "strength_oracle"),
    (("oracle", "chi-sigma", "--k", "2"), "oracles", "chi_sigma_oracle"),
    (("oracle", "domination", "--k", "1"), "oracles", "domination_oracle"),
    (("oracle", "edge-roman"), "oracles", "edge_roman_oracle"),
    (("oracle", "hamiltonian"), "oracles", "hamiltonian_oracle"),
]


def test_every_check_and_oracle_subject_has_a_late_binding_case():
    expected = [(command, subject) for command in ("check", "oracle")
                for subject in SUBJECTS[(command,)]]
    assert [argv[:2] for argv, _module, _name in CALLS] == expected


@pytest.mark.parametrize("argv, module, name", CALLS, ids=[" ".join(c[0][:2]) for c in CALLS])
def test_check_and_oracle_look_their_function_up_when_called(
    monkeypatch, capsys, p3_file, argv, module, name
):
    # the benchmark's trace replaces module attributes after the CLI is
    # imported, so a subject must not keep the function it found at import
    import importlib

    owner = importlib.import_module(f"combspectra.{module}")
    original, calls = getattr(owner, name), []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    code, _out, _err = run(capsys, argv[0], argv[1], p3_file, *argv[2:], "--json")
    assert code == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("k_max", ["0", "-2"])
def test_oracle_nonpositive_k_max_exits_usage(capsys, p3_file, k_max):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "strength", p3_file, "--k-max", k_max])
    assert exc.value.code == EXIT_USAGE
    assert f"error: argument --k-max: must be at least 1, got {k_max}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-n", "--max-family", "--max-steps", "--workers"])
def test_nonpositive_cap_flag_exits_usage(capsys, p3_file, flag):
    with pytest.raises(SystemExit) as exc:
        main(["check", "domination", "--k", "1", p3_file, flag, "0"])
    assert exc.value.code == EXIT_USAGE
    assert f"error: argument {flag}: must be at least 1, got 0" in capsys.readouterr().err


def test_nan_timeout_flag_exits_usage(capsys, p3_file):
    # a NaN deadline is never passed, so it would turn the time limit off
    with pytest.raises(SystemExit) as exc:
        main(["check", "antimagic", p3_file, "--timeout-seconds", "nan"])
    assert exc.value.code == EXIT_USAGE
    assert "error: argument --timeout-seconds: not a number: 'nan'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, value",
    [("MAX_N", "abc"), ("MAX_N", "0"), ("MAX_STEPS", "-1"), ("TIMEOUT_SECONDS", "soon"),
     ("TIMEOUT_SECONDS", "nan"), ("WORKERS", "0"), ("JSON", "ture"), ("JSON", "")],
)
def test_bad_environment_value_exits_usage(capsys, monkeypatch, p3_file, name, value):
    monkeypatch.setenv("COMBSPECTRA_" + name, value)
    code, out, err = run(capsys, "check", "domination", "--k", "1", p3_file)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error (usage): COMBSPECTRA_{name}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "value, as_json",
    [("1", True), ("TRUE", True), (" Yes ", True), ("0", False), ("False", False), ("no", False)],
)
def test_json_environment_value_switches_the_output(capsys, monkeypatch, p3_file, value, as_json):
    monkeypatch.setenv("COMBSPECTRA_JSON", value)
    code, out, _ = run(capsys, "check", "domination", "--k", "1", p3_file)
    assert code == EXIT_OK
    assert out.startswith("{") == as_json


def test_run_identity_rejects_no_trials():
    from combspectra.verify import run_identity

    for subject in ("ring-axioms", "orbit", "all"):
        for trials in (0, -5):
            with pytest.raises(ValueError):
                run_identity(subject, trials=trials)


def test_run_identity_ignores_trials_where_it_reads_none():
    from combspectra.verify import run_identity

    for subject in ("S1", "E1", "R1"):
        report = run_identity(subject, ns=(3,), trials=0)
        assert report["summary"] == {"rows": 1, "disagreements": 0}


@pytest.mark.parametrize(
    "subject, ns",
    [("S1", ()), ("orbit", ()), ("all", ()), ("S1", (1,)), ("R1", (3, 1)), ("orbit", (0,))],
)
def test_run_identity_rejects_orders_that_check_nothing(monkeypatch, subject, ns):
    # rejected before any suite runs, as `verify --n` is by the parser
    from combspectra import verify
    from combspectra.errors import UsageError

    monkeypatch.setattr(verify, "_IDENTITIES", {})
    with pytest.raises(UsageError, match="order"):
        verify.run_identity(subject, ns=ns)


def test_run_identity_ignores_orders_where_it_reads_none():
    from combspectra.verify import run_identity

    assert run_identity("ring-axioms", ns=(), trials=1)["summary"]["disagreements"] == 0


def test_run_theorem_rejects_label_bounds_below_one():
    # rejected up front, as `verify --k` is by the parser, not reported as
    # disagreements or raised mid-sweep
    from combspectra.errors import UsageError
    from combspectra.verify import run_theorem

    for subject, ks in (("irregular-strength", (0,)), ("colorings", (0,)), ("colorings", (2, -1))):
        with pytest.raises(UsageError, match="label bounds must be at least 1"):
            run_theorem(subject, 3, ks=ks)


def test_run_theorem_rejects_orders_below_the_subject_minimum():
    from combspectra.verify import run_theorem

    for subject, max_n in (("domination", 1), ("fixpoint", 1), ("hamiltonian", 2), ("one-two-three", 2)):
        with pytest.raises(ValueError, match="needs max_n"):
            run_theorem(subject, max_n)
    assert run_theorem("hamiltonian", 3)["summary"]["rows"] == 2


def test_run_theorem_rejects_an_empty_list_of_label_bounds():
    # a sweep over no label bound would report agreement having checked nothing
    from combspectra.errors import UsageError
    from combspectra.verify import run_theorem

    for subject in ("colorings", "irregular-strength"):
        with pytest.raises(UsageError, match="needs at least one label bound"):
            run_theorem(subject, 3, ks=())


def test_graph6_file_argument_reads_every_line(capsys):
    golden = Path(__file__).parent / "golden"
    code, out, _ = run(capsys, "oracle", "antimagic", str(golden / "small_graphs.g6"))
    assert code == EXIT_OK
    assert out == (golden / "oracle_antimagic.txt").read_text()


def test_verify_theorem_and_worker_determinism(capsys):
    code, out1, _ = run(
        capsys, "verify", "--theorem", "domination", "--max-n", "4",
        "--workers", "1", "--json",
    )
    assert code == EXIT_OK
    code, out2, _ = run(
        capsys, "verify", "--theorem", "domination", "--max-n", "4",
        "--workers", "2", "--json",
    )
    assert code == EXIT_OK
    assert out1 == out2
    data = json.loads(out1)
    assert data["summary"]["disagreements"] == 0


def test_verify_colorings_with_k(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "colorings", "--max-n", "3", "--k", "3", "--json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert all(row["k"] == 3 for row in data["rows"])
    assert data["summary"]["disagreements"] == 0


def test_verify_text_output_deterministic(capsys):
    code, out1, _ = run(capsys, "verify", "--theorem", "fixpoint", "--max-n", "4")
    code2, out2, _ = run(capsys, "verify", "--theorem", "fixpoint", "--max-n", "4")
    assert code == code2 == EXIT_OK
    assert out1 == out2
    assert "disagreements=0" in out1


def test_max_n_variable_sets_the_verify_order(capsys, monkeypatch):
    monkeypatch.delenv("COMBSPECTRA_MAX_N", raising=False)
    argv = ("verify", "--theorem", "domination", "--workers", "1", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["params"]["max_n"] == 4
    monkeypatch.setenv("COMBSPECTRA_MAX_N", "5")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["params"]["max_n"] == 5
    assert max(row["n"] for row in data["rows"]) == 5


def _readme_section(heading: str) -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _readme_table(first_header: str, heading: str = "Command line") -> list[list[str]]:
    """The body cells of the table in the README section ``heading`` whose
    first header cell is ``first_header``."""
    section = _readme_section(heading)
    lines = section.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {first_header} |"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _names(cell: str) -> list[str]:
    """The first word of each backquoted span of a table cell."""
    return [span.split()[0] for span in re.findall(r"`([^`]+)`", cell)]


def _flags(cell: str) -> list[str]:
    """The ``--flag`` words of a table cell's backquoted spans, by attribute name."""
    spans = re.findall(r"`([^`]+)`", cell)
    words = [word for span in spans for word in span.split() if word.startswith("--")]
    return sorted(word[2:].replace("-", "_") for word in words)


def test_readme_subject_tables_match_the_code():
    from combspectra.verify import IDENTITY_READS, IDENTITY_SUBJECTS, _PROBLEMS

    # one row per problem record: its name in each command, the flags that
    # check and oracle read, its least order and its default label bounds
    records = {(p.check, p.oracle, p.theorem): p for p in _PROBLEMS}
    rows = _readme_table("problem")
    listed = [tuple((_names(cell) or [None])[0] for cell in row[1:4]) for row in rows]
    assert sorted(listed, key=str) == sorted(records, key=str)
    for names, row in zip(listed, rows):
        problem = records[names]
        for command, cell in (("check", row[1]), ("oracle", row[2])):
            assert _flags(cell) == sorted(problem.reads_in(command)), (names, command)
        assert int(row[4]) == problem.min_n
        assert row[5] == ("none" if problem.ks is None else ", ".join(map(str, problem.ks)))
    identities = []
    for row in _readme_table("`verify --identity`"):
        reads = tuple(flag.removeprefix("--") for flag in _names(row[2]))
        for subject in _names(row[0]):
            identities.append(subject)
            assert reads == IDENTITY_READS[subject], subject
    assert identities == list(IDENTITY_SUBJECTS)


def test_readme_exit_code_table_matches_the_code():
    # every exit code once, in order, each with the kind its errors report
    codes = sorted(getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_"))
    kinds = {code: kind for _error, kind, code in cli._FAILURES} | {EXIT_USAGE: "usage"}
    rows = _readme_table("exit")
    assert [int(row[0]) for row in rows] == codes
    assert {int(row[0]): _names(row[1])[0] for row in rows if row[1]} == kinds


def test_readme_predicates_and_oracles_exist():
    import combspectra
    from combspectra import oracles, verify

    rows = _readme_table("problem", "What it computes")
    assert len(rows) == sum(p.check is not None for p in verify._PROBLEMS)
    for row in rows:
        for name in _names(row[1]):
            assert hasattr(combspectra, name), name
        for name in _names(row[2]):
            assert hasattr(oracles, name), name


def test_readme_library_quick_tour_runs():
    """Every line of the tour runs, and each bare expression with a trailing
    comment evaluates to the value that comment shows."""
    block = _readme_section("Library quick tour").split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        try:
            compile(code, "<tour>", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        if comment:
            assert repr(value) == comment.strip().split("  ")[0], line
            checked += 1
    assert checked >= 5


def test_readme_command_line_examples_exit_ok(capsys, monkeypatch, tmp_path):
    block = _readme_section("Command line").split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line) for line in block.splitlines() if line.startswith("combspectra ")]
    assert len(examples) >= 10

    def agreeing(kind):
        return lambda subject, *a, **kw: {
            "schema": "1",
            "kind": kind,
            "subject": subject,
            "params": {},
            "rows": [{"agree": True}],
            "summary": {"rows": 1, "disagreements": 0},
        }

    monkeypatch.setattr("combspectra.cli.ver.run_theorem", agreeing("theorem"))
    monkeypatch.setattr("combspectra.cli.ver.run_identity", agreeing("identity"))
    (tmp_path / "p3.edges").write_text(to_edge_list(path_graph(3)))
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        code, _out, err = run(capsys, *argv[1:])
        assert code == EXIT_OK, (argv, err)


def test_verify_disagreement_exit(capsys, monkeypatch):
    fake = {
        "schema": "1",
        "kind": "theorem",
        "subject": "domination",
        "params": {},
        "rows": [{"graph": "Bg", "agree": False}],
        "summary": {"tasks": 1, "rows": 1, "disagreements": 1},
    }
    monkeypatch.setattr("combspectra.cli.ver.run_theorem", lambda *a, **kw: fake)
    code, out, _ = run(capsys, "verify", "--theorem", "domination", "--json")
    assert code == EXIT_DISAGREE
    assert json.loads(out)["summary"]["disagreements"] == 1


def test_verify_timeout_exit(capsys):
    code, out, err = run(
        capsys, "verify", "--theorem", "domination", "--max-n", "5",
        "--workers", "1", "--timeout-seconds", "0.000001",
    )
    assert code == EXIT_TIMEOUT
    assert "deadline" in err


def test_verify_timeout_stops_corpus_generation(capsys):
    # generating the n = 8 corpus polls the deadline once per parent graph
    start = time.perf_counter()
    code, _out, err = run(
        capsys, "verify", "--theorem", "domination", "--max-n", "8",
        "--workers", "1", "--timeout-seconds", "1",
    )
    assert code == EXIT_TIMEOUT
    assert "deadline" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "flags, code",
    [
        (("S1", "--n", "5", "--max-n", "3"), EXIT_SIZE_GUARD),
        (("ring-axioms", "--trials", "3", "--timeout-seconds", "0"), EXIT_TIMEOUT),
        (("R1", "--n", "150", "--timeout-seconds", "1"), EXIT_SIZE_GUARD),
    ],
)
def test_identity_suites_honour_limits(capsys, flags, code):
    start = time.perf_counter()
    assert run(capsys, "verify", "--identity", *flags)[0] == code
    assert time.perf_counter() - start < 5


def test_reader_suite_polls_the_deadline_after_its_last_order():
    from combspectra import verify
    from combspectra.errors import TimeLimitError
    from combspectra.gadgets import cover_reader
    from combspectra.limits import Limits
    from combspectra.ring import const

    limits = Limits(deadline=time.time() + 0.05)
    built = []

    def overrunning_build(n):
        # one order whose build outlasts the deadline, however fast the host
        while time.time() <= limits.deadline:
            time.sleep(0.01)
        built.append(n)
        return cover_reader(n)

    with pytest.raises(TimeLimitError):
        verify._reader_rows(
            "R1", overrunning_build, lambda n: const(2 * n - 4, 1), (3,), 1, 1, limits
        )
    assert built == [3]


def test_check_hamiltonian_honours_max_n(capsys, monkeypatch):
    import io

    from combspectra.graphs import cycle_graph

    assert to_graph6(cycle_graph(8)) == "GhCGKC"
    monkeypatch.setattr("sys.stdin", io.StringIO("GhCGKC\n"))
    code, out, _ = run(capsys, "check", "hamiltonian", "-", "--max-n", "8", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["number"] == 8
    monkeypatch.setattr("sys.stdin", io.StringIO("GhCGKC\n"))
    code, _out, err = run(capsys, "check", "hamiltonian", "-")
    assert code == EXIT_SIZE_GUARD
    assert "max_n=7" in err


def test_oracle_honours_max_n(capsys, monkeypatch):
    import io

    assert to_graph6(path_graph(9)) == "HhCGGC@"
    monkeypatch.setattr("sys.stdin", io.StringIO("HhCGGC@\n"))
    code, _out, err = run(capsys, "oracle", "hamiltonian", "-")
    assert code == EXIT_SIZE_GUARD
    assert "max_n=7" in err
    monkeypatch.setattr("sys.stdin", io.StringIO("HhCGGC@\n"))
    code, out, _ = run(capsys, "oracle", "hamiltonian", "-", "--max-n", "9", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == 16


def test_check_refuses_graph_and_pattern_both_on_stdin(capsys, monkeypatch):
    import io

    stdin = io.StringIO("Bw\n")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "check", "hamiltonian", "-", "--by", "-")
    assert code == EXIT_USAGE
    assert out == "" and "standard input" in err
    assert stdin.tell() == 0  # refused before anything was read


def test_check_timeout_before_first_bijection(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
    code, _out, err = run(capsys, "check", "antimagic", "-", "--timeout-seconds", "0")
    assert code == EXIT_TIMEOUT
    assert "deadline" in err


def test_check_domination_timeout_before_first_bijection(capsys, p3_file):
    code, out, err = run(
        capsys, "check", "domination", "--k", "1", p3_file, "--timeout-seconds", "0"
    )
    assert code == EXIT_TIMEOUT
    assert out == ""
    assert "deadline" in err


@pytest.mark.parametrize("subject", ["edge-roman", "hamiltonian"])
def test_oracle_timeout_exit(capsys, monkeypatch, subject):
    import io

    # K5: 3^10 edge functions, 12 cyclic orders
    monkeypatch.setattr("sys.stdin", io.StringIO("D~{\n"))
    code, out, err = run(capsys, "oracle", subject, "-", "--timeout-seconds", "0")
    assert code == EXIT_TIMEOUT
    assert out == ""
    assert "deadline" in err


def test_check_hamiltonian_by_pattern(capsys, tmp_path):
    from combspectra.graphs import cycle_graph, star_graph

    star = tmp_path / "star.edges"
    star.write_text(to_edge_list(star_graph(4)))
    c4 = tmp_path / "c4.edges"
    c4.write_text(to_edge_list(cycle_graph(4)))
    code, out, _ = run(capsys, "check", "hamiltonian", str(star), "--by", str(c4), "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["spectrum"] == [6] and data["number"] == 6


def test_check_hamiltonian_by_a_file_of_two_graphs_exits_usage(capsys, tmp_path, p3_file):
    two = tmp_path / "two.g6"
    two.write_text(f"{to_graph6(path_graph(3))}\n{to_graph6(complete_graph(3))}\n")
    code, out, err = run(capsys, "check", "hamiltonian", p3_file, "--by", str(two))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error (usage): --by ") and err.count("\n") == 1


@pytest.mark.parametrize("k", ["0", "-1"])
def test_oracle_chi_sigma_nonpositive_k_exits_precondition(capsys, p3_file, k):
    code, out, err = run(capsys, "oracle", "chi-sigma", p3_file, "--k", k)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "label bound" in err


def test_seed_variable_is_accepted_by_a_suite_that_reads_no_seed(capsys, monkeypatch):
    # COMBSPECTRA_SEED is a setting, not a flag: a suite that reads no seed
    # still runs, and reports the seed it was given
    monkeypatch.setenv("COMBSPECTRA_SEED", "3")
    code, out, _ = run(capsys, "verify", "--identity", "R1", "--n", "3", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["params"]["seed"] == 3


def test_one_two_three_size_guard(capsys, tmp_path):
    from combspectra.graphs import complete_graph

    k4 = tmp_path / "k4.edges"
    k4.write_text(to_edge_list(complete_graph(4)))
    code, _out, err = run(
        capsys, "check", "one-two-three", str(k4), "--max-steps", "10"
    )
    assert code == EXIT_SIZE_GUARD
    assert "guard" in err


def test_hamiltonian_step_guard_names_the_spectrum(capsys, tmp_path):
    from combspectra.graphs import cycle_graph

    c4 = tmp_path / "c4.edges"
    c4.write_text(to_edge_list(cycle_graph(4)))
    code, _out, err = run(capsys, "check", "hamiltonian", str(c4), "--max-steps", "10")
    assert code == EXIT_SIZE_GUARD
    assert err == (
        "error (size-guard): step guard exceeded: Hamiltonian spectrum needs 128 steps"
        " > max_steps=10\n"
    )


def test_check_output_byte_identical_across_runs(capsys, p3_file):
    _, out1, _ = run(capsys, "check", "edge-roman", "--k", "2", p3_file, "--json")
    _, out2, _ = run(capsys, "check", "edge-roman", "--k", "2", p3_file, "--json")
    assert out1 == out2
