"""Command-line front end.

Three command groups:

* ``check``  - run a spectrum characterization on each graph of a file or
  of stdin and print the verdict with its witness;
* ``oracle`` - run the matching brute-force computation;
* ``verify`` - sweep a theorem subject over the connected-graph corpus or run
  an identity suite, and exit nonzero on any disagreement.

Each problem is one record of the registry in :mod:`combspectra.verify`: its
subject name in each command, the flags each reads, and what each calls.  A
flag that the subject does not read is a usage error: ``--k``, ``--by``,
``--k-max``, ``--n``, ``--trials`` and ``--seed`` outside the subjects that
read them.

Exit codes: 0 ok, 1 internal error, 2 usage, 3 graph parse error,
4 precondition violation, 5 size guard exceeded, 6 verification disagreement,
7 time limit.  A failed write to standard output exits 1, with no message if
the reader closed the pipe.  Flags override environment variables
(COMBSPECTRA_MAX_N, COMBSPECTRA_MAX_FAMILY, COMBSPECTRA_MAX_STEPS,
COMBSPECTRA_WORKERS, COMBSPECTRA_TIMEOUT_SECONDS, COMBSPECTRA_SEED,
COMBSPECTRA_JSON), which override the defaults; ``verify --theorem`` sweeps
n <= 4 unless ``--max-n`` or COMBSPECTRA_MAX_N sets the order.  Output contains
no timing, so identical inputs give byte-identical output at any worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import characterize as ch
from . import oracles as orc
from . import verify as ver
from .errors import (
    CombSpectraError,
    ParseError,
    PreconditionError,
    SizeGuardError,
    TimeLimitError,
    UsageError,
)
from .graphs import SimpleGraph, parse_graphs, to_graph6
from .limits import DEFAULT_LIMITS, Limits

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4
EXIT_SIZE_GUARD = 5
EXIT_DISAGREE = 6
EXIT_TIMEOUT = 7

_ENV_PREFIX = "COMBSPECTRA_"


@dataclass
class RunConfig:
    """Resolved run options: flags take precedence over environment variables,
    which take precedence over the defaults.  ``max_n`` is None when neither
    sets it: the guard is then the default one, and ``verify`` picks its own
    sweep order.  ``seed`` is None when neither sets it, and the identity
    suites use their own default."""

    max_n: int | None
    max_family: int
    max_steps: int
    workers: int
    json_output: bool
    seed: int | None
    timeout_seconds: float | None

    def limits(self) -> Limits:
        deadline = (
            time.time() + self.timeout_seconds
            if self.timeout_seconds is not None
            else None
        )
        max_n = DEFAULT_LIMITS.max_n if self.max_n is None else self.max_n
        return Limits(max_n, self.max_family, self.max_steps, deadline)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Raises UsageError, naming the variable, on a malformed environment value."""

    def pick(flag_value, env_name, default, cast):
        if flag_value is not None:
            return flag_value
        raw = os.environ.get(_ENV_PREFIX + env_name)
        if raw is None:
            return default
        try:
            return cast(raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"{_ENV_PREFIX}{env_name}: {exc}") from None

    return RunConfig(
        max_n=pick(args.max_n, "MAX_N", None, _positive_int),
        max_family=pick(args.max_family, "MAX_FAMILY", DEFAULT_LIMITS.max_family, _positive_int),
        max_steps=pick(args.max_steps, "MAX_STEPS", DEFAULT_LIMITS.max_steps, _positive_int),
        workers=pick(args.workers, "WORKERS", os.cpu_count() or 1, _positive_int),
        json_output=pick(True if args.json else None, "JSON", False, _switch),
        seed=pick(args.seed, "SEED", None, int),
        timeout_seconds=pick(args.timeout_seconds, "TIMEOUT_SECONDS", None, _seconds),
    )


def _orders(spec: str) -> list[int]:
    """Parse ``3..6`` or ``3,5`` into a nonempty list of orders >= 2."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            ns = list(range(int(lo), int(hi) + 1))
        else:
            ns = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of orders: {spec!r}") from None
    if not ns:
        raise argparse.ArgumentTypeError(f"{spec!r} names no order")
    if min(ns) < 2:
        raise argparse.ArgumentTypeError(f"orders must be at least 2, got {spec!r}")
    return ns


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _switch(text: str) -> bool:
    value = text.strip().lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise argparse.ArgumentTypeError(f"not one of 1, true, yes, 0, false, no: {text!r}")
    return value in ("1", "true", "yes")


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if math.isnan(value):
        # no time exceeds a NaN deadline, so it would turn the limit off
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", default=False,
                   help="emit machine-readable JSON")
    p.add_argument("--max-n", type=_positive_int, default=None,
                   help="vertex-count guard")
    p.add_argument("--max-family", type=_positive_int, default=None,
                   help="family cardinality guard")
    p.add_argument("--max-steps", type=_positive_int, default=None,
                   help="enumeration step guard")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="worker processes for corpus sweeps")
    p.add_argument("--timeout-seconds", type=_seconds, default=None,
                   help="wall-clock limit")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the randomized identity checks")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combspectra",
        description="Exact combinatorial spectra of weighted complete graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="run a spectrum characterization on a graph"
    )
    p_check.add_argument("subject", choices=[p.check for p in ver._PROBLEMS if p.check])
    p_check.add_argument(
        "graph", help="edge-list or graph6 file, or '-' to read either from stdin"
    )
    takes_k = [p.check for p in ver._PROBLEMS if "k" in p.reads_in("check")]
    p_check.add_argument("--k", type=int, default=None, help="bound for " + " / ".join(takes_k))
    p_check.add_argument("--by", default=None,
                         help="pattern graph file for the hamiltonian spectrum, in place "
                              "of the cycle; the reported number is then the least "
                              "value of that pattern's spectrum")
    _add_common(p_check)

    p_oracle = sub.add_parser("oracle", help="run a brute-force oracle")
    p_oracle.add_argument("subject", choices=[p.oracle for p in ver._PROBLEMS if p.oracle])
    p_oracle.add_argument("graph")
    p_oracle.add_argument("--k", type=int, default=None)
    p_oracle.add_argument("--k-max", type=_positive_int, default=None,
                          help="largest label bound (at least 1) tried by the strength oracle")
    _add_common(p_oracle)

    p_verify = sub.add_parser(
        "verify", help="corpus verification and identity suites"
    )
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--theorem", choices=ver.THEOREM_SUBJECTS)
    group.add_argument("--identity", choices=ver.IDENTITY_SUBJECTS)
    sweeps_k = [p.theorem for p in ver._PROBLEMS if p.ks is not None]
    p_verify.add_argument("--k", type=_positive_int, action="append", default=None,
                          help="label bound(s), at least 1, for " + " / ".join(sweeps_k))
    p_verify.add_argument("--n", type=_orders, default=None,
                          help="orders (at least 2) for the identity suites that read "
                               "them, e.g. 3..6 or 3,5")
    p_verify.add_argument("--trials", type=_positive_int, default=None,
                          help="randomized trials (at least 1) for ring-axioms and orbit")
    _add_common(p_verify)
    return parser


def _load_graphs(path: str) -> list[tuple[str, SimpleGraph]]:
    """Load (graph6-id, graph) pairs from stdin or a file: one per graph6
    line, or the one graph of an edge list (:func:`parse_graphs`).  A parse
    error names its source."""
    source = "standard input" if path == "-" else path
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode {source}: {exc}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from None
    try:
        graphs = parse_graphs(text)
    except ParseError as exc:
        raise ParseError(f"{source}: {exc}") from None
    return [(to_graph6(g), g) for g in graphs]


class _OutputError(Exception):
    """A write to standard output failed; the ``OSError``, if any, is its cause."""


def _emit(payload: dict, cfg: RunConfig, text_lines: Iterable[str]) -> None:
    """Print and flush the payload as one JSON line, or else the text lines,
    which are read only for text output.  Raises :class:`_OutputError`."""
    if sys.stdout is None:
        raise _OutputError("cannot write standard output: it is closed")
    try:
        if cfg.json_output:
            print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except OSError as exc:
        raise _OutputError(f"cannot write standard output: {exc}") from exc


def _check_flags(
    command: str, args: argparse.Namespace, flags: Sequence[str], reads: Sequence[str]
) -> None:
    """Of the command's subject-specific ``flags`` (by attribute name), one
    the subject does not read must be absent, and ``--k`` where it is read
    must be present."""
    if "k" in reads and args.k is None:
        raise UsageError(f"{command} requires --k")
    for name in flags:
        if name not in reads and getattr(args, name) is not None:
            raise UsageError(f"{command} takes no --{name.replace('_', '-')}")


def _verdict_report(
    subject: str, g: SimpleGraph, k: int | None, verdict: ch.Verdict, witness: Callable
) -> tuple[dict, list[str]]:
    fields: dict = {"verdict": verdict.to_json()}
    if k is not None:
        fields["k"] = k
    heading = f"check {subject}" + (f" k={k}" if k is not None else "")
    lines = [f"{heading}: {'holds' if verdict.holds else 'does not hold'}"]
    if verdict.holds:
        key, value, line = witness(g, k, verdict)
        fields[key] = value
        lines.append(line)
        lines.append(f"  bijection: {verdict.witness_bijection}")
        lines.append(f"  polynomial: {verdict.witness_polynomial}")
    stats = verdict.stats
    lines.append(f"  searched: members={stats.members} bijections={stats.bijections}")
    return fields, lines


def _run_check(args: argparse.Namespace, cfg: RunConfig) -> int:
    limits = cfg.limits()
    subject = args.subject
    problem = ver._problem("check", subject)
    reads = problem.reads_in("check")
    _check_flags(f"check {subject}", args, ("k", "by", "seed"), reads)
    if args.by == "-" and args.graph == "-":
        raise UsageError("the graph and --by cannot both be read from standard input")
    pattern = None
    if args.by is not None:
        patterns = _load_graphs(args.by)
        if len(patterns) > 1:
            raise UsageError(f"--by takes one pattern graph, {args.by} holds {len(patterns)}")
        pattern = patterns[0][1]
    search = getattr(ch, problem.search)
    for gid, g in _load_graphs(args.graph):
        if problem.witness is None:
            spectrum = (search(g, limits) if pattern is None
                        else ch.hamiltonian_spectrum(pattern, g, limits))
            values = spectrum.as_integers()
            fields = {"spectrum": list(values), "number": min(values)}
            lines = [f"{subject} spectrum: {list(values)}", f"{subject} number: {min(values)}"]
        else:
            verdict = search(g, args.k, limits) if "k" in reads else search(g, limits)
            fields, lines = _verdict_report(subject, g, args.k, verdict, problem.witness)
        payload = {"schema": ver.REPORT_SCHEMA, "command": "check", "subject": subject,
                   "graph": gid, **fields}
        _emit(payload, cfg, [f"graph {gid}: n={g.n} m={g.m}", *lines])
    return EXIT_OK


def _oracle_payload(subject: str, gid: str, result: orc.OracleResult) -> tuple[dict, list[str]]:
    witness = result.witness
    if isinstance(witness, dict):
        witness_json: object = {f"{u}-{v}": val for (u, v), val in sorted(witness.items())}
    elif isinstance(witness, frozenset):
        witness_json = sorted(witness)
    elif isinstance(witness, tuple):
        witness_json = list(witness)
    else:
        witness_json = witness
    payload = {
        "schema": ver.REPORT_SCHEMA,
        "command": "oracle",
        "subject": subject,
        "graph": gid,
        "value": result.value,
        "witness": witness_json,
        "enumerated": result.enumerated,
    }
    lines = [
        f"oracle {subject} on {gid}: value={result.value}",
        f"  witness: {witness_json}",
        f"  enumerated: {result.enumerated}",
    ]
    return payload, lines


def _run_oracle(args: argparse.Namespace, cfg: RunConfig) -> int:
    limits = cfg.limits()
    problem = ver._problem("oracle", args.subject)
    reads = problem.reads_in("oracle")
    _check_flags(f"oracle {args.subject}", args, ("k", "k_max", "seed"), reads)
    bound = {name: getattr(args, name) for name in reads if getattr(args, name) is not None}
    run = getattr(orc, problem.brute)
    for gid, g in _load_graphs(args.graph):
        payload, lines = _oracle_payload(args.subject, gid, run(g, limits=limits, **bound))
        _emit(payload, cfg, lines)
    return EXIT_OK


_ROW_KEY_ORDER = (
    "identity", "graph", "n", "m", "k", "spectral", "oracle", "witness_ok", "agree",
)


def _row_text(row: dict) -> str:
    keys = [k for k in _ROW_KEY_ORDER if k in row]
    keys += sorted(k for k in row if k not in _ROW_KEY_ORDER)
    return " ".join(f"{k}={row[k]}" for k in keys)


def _report_lines(report: dict) -> Iterator[str]:
    """The text report, one line at a time; JSON output never reads it."""
    yield f"verify {report['subject']} ({report['kind']})"
    for row in report["rows"]:
        yield _row_text(row)
    summary = report["summary"]
    yield " ".join(f"{k}={summary[k]}" for k in sorted(summary))


def _run_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    limits = cfg.limits()
    if args.theorem:
        _check_flags(f"verify --theorem {args.theorem}", args, ("n", "trials", "seed"), ())
        report = ver.run_theorem(
            args.theorem,
            # sweeps stop at n = 4 unless --max-n or COMBSPECTRA_MAX_N sets the order
            max_n=4 if cfg.max_n is None else cfg.max_n,
            ks=tuple(args.k) if args.k else None,
            workers=cfg.workers,
            limits=limits,
        )
    else:
        _check_flags(
            f"verify --identity {args.identity}", args, ("k", "n", "trials", "seed"),
            ver.IDENTITY_READS[args.identity],
        )
        # an option left unset keeps run_identity's default
        given = {"ns": args.n, "trials": args.trials, "seed": cfg.seed}
        report = ver.run_identity(
            args.identity,
            limits=limits,
            **{name: value for name, value in given.items() if value is not None},
        )
    _emit(report, cfg, _report_lines(report))
    return EXIT_DISAGREE if report["summary"]["disagreements"] else EXIT_OK


# How a package error ends a command: (error type, kind, exit code).  The
# first type that matches wins, so the base class comes last.
_FAILURES = (
    (ParseError, "parse", EXIT_PARSE),
    (PreconditionError, "precondition", EXIT_PRECONDITION),
    (SizeGuardError, "size-guard", EXIT_SIZE_GUARD),
    (TimeLimitError, "timeout", EXIT_TIMEOUT),
    (CombSpectraError, "internal", EXIT_INTERNAL),
)

_COMMANDS = {"check": _run_check, "oracle": _run_oracle, "verify": _run_verify}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        try:
            return _COMMANDS[args.command](args, cfg)
        except CombSpectraError as exc:
            kind, code = next((k, c) for error, k, c in _FAILURES if isinstance(exc, error))
            if cfg.json_output:
                error = {"code": kind, "message": str(exc)}
                _emit({"schema": ver.REPORT_SCHEMA, "error": error}, cfg, ())
            else:
                print(f"error ({kind}): {exc}", file=sys.stderr)
            return code
    except UsageError as exc:
        print(f"error (usage): {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _OutputError as exc:
        if not isinstance(exc.__cause__, BrokenPipeError):  # a reader that left wants no word
            print(f"error (internal): {exc}", file=sys.stderr)
        # what is still buffered goes nowhere, so the flush at exit cannot fail again
        with contextlib.suppress(AttributeError, OSError), open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
