"""Command-line front end.

Three command groups:

* ``check``  - run a spectrum characterization on one graph (or graph6 lines
  from stdin) and print the verdict with its witness;
* ``oracle`` - run the matching brute-force computation;
* ``verify`` - sweep a theorem subject over the connected-graph corpus or run
  an identity suite, and exit nonzero on any disagreement.

Exit codes: 0 ok, 1 internal error, 2 usage, 3 graph parse error,
4 precondition violation, 5 size guard exceeded, 6 verification disagreement,
7 time limit.  Flags override environment variables (COMBSPECTRA_MAX_N,
COMBSPECTRA_MAX_FAMILY, COMBSPECTRA_MAX_STEPS, COMBSPECTRA_WORKERS,
COMBSPECTRA_TIMEOUT_SECONDS, COMBSPECTRA_SEED, COMBSPECTRA_JSON), which
override the defaults.  Output contains no timing, so identical inputs give
byte-identical output at any worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

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
from .gadgets import WeightedCompleteGraph
from .graphs import SimpleGraph, parse_graph, parse_graph6, to_graph6
from .limits import Limits

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4
EXIT_SIZE_GUARD = 5
EXIT_DISAGREE = 6
EXIT_TIMEOUT = 7

_ENV_PREFIX = "COMBSPECTRA_"

CHECK_SUBJECTS = (
    "antimagic",
    "irregular-strength",
    "one-two-three",
    "domination",
    "edge-roman",
    "hamiltonian",
)

ORACLE_SUBJECTS = (
    "antimagic",
    "strength",
    "chi-sigma",
    "domination",
    "edge-roman",
    "hamiltonian",
)


@dataclass
class RunConfig:
    """Resolved run options: flags take precedence over environment variables,
    which take precedence over the defaults."""

    max_n: int = 7
    max_family: int = 10_000_000
    max_steps: int = 1_000_000_000
    workers: int = 1
    json_output: bool = False
    seed: int = 1
    timeout_seconds: float | None = None

    def limits(self) -> Limits:
        deadline = (
            time.time() + self.timeout_seconds
            if self.timeout_seconds is not None
            else None
        )
        return Limits(self.max_n, self.max_family, self.max_steps, deadline)


def _env(name: str) -> str | None:
    return os.environ.get(_ENV_PREFIX + name)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Raises ValueError, naming the variable, on a malformed environment value."""

    def pick(flag_value, env_name, default, cast):
        if flag_value is not None:
            return flag_value
        raw = _env(env_name)
        if raw is None:
            return default
        try:
            return cast(raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{_ENV_PREFIX}{env_name}: {exc}") from None

    return RunConfig(
        max_n=pick(args.max_n, "MAX_N", 7, _positive_int),
        max_family=pick(args.max_family, "MAX_FAMILY", 10_000_000, _positive_int),
        max_steps=pick(args.max_steps, "MAX_STEPS", 1_000_000_000, _positive_int),
        workers=pick(args.workers, "WORKERS", os.cpu_count() or 1, _positive_int),
        json_output=pick(
            True if args.json else None,
            "JSON",
            False,
            lambda s: s.strip().lower() in ("1", "true", "yes"),
        ),
        seed=pick(args.seed, "SEED", 1, int),
        timeout_seconds=pick(args.timeout_seconds, "TIMEOUT_SECONDS", None, float),
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
    if not ns or min(ns) < 2:
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
    p.add_argument("--timeout-seconds", type=float, default=None,
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
    p_check.add_argument("subject", choices=CHECK_SUBJECTS)
    p_check.add_argument(
        "graph", help="edge-list or graph6 file, or '-' for graph6 lines on stdin"
    )
    p_check.add_argument("--k", type=int, default=None,
                         help="bound for irregular-strength / domination / edge-roman")
    p_check.add_argument("--by", default=None,
                         help="pattern graph file for the hamiltonian spectrum")
    _add_common(p_check)

    p_oracle = sub.add_parser("oracle", help="run a brute-force oracle")
    p_oracle.add_argument("subject", choices=ORACLE_SUBJECTS)
    p_oracle.add_argument("graph")
    p_oracle.add_argument("--k", type=int, default=None)
    p_oracle.add_argument("--k-max", type=_positive_int, default=3,
                          help="largest label bound (at least 1) tried by the strength oracle")
    _add_common(p_oracle)

    p_verify = sub.add_parser(
        "verify", help="corpus verification and identity suites"
    )
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--theorem", choices=ver.THEOREM_SUBJECTS)
    group.add_argument("--identity", choices=ver.IDENTITY_SUBJECTS)
    p_verify.add_argument("--k", type=_positive_int, action="append", default=None,
                          help="label bound(s), at least 1, for colorings / irregular-strength")
    p_verify.add_argument("--n", type=_orders, default="3..6",
                          help="orders (at least 2) for identity suites, e.g. 3..6 or 3,5")
    p_verify.add_argument("--trials", type=_positive_int, default=1000,
                          help="randomized trials (at least 1) for ring-axioms and orbit")
    _add_common(p_verify)
    return parser


def _load_graphs(path: str) -> list[tuple[str, SimpleGraph]]:
    """Load (graph6-id, graph) pairs from a file or stdin graph6 lines."""
    if path == "-":
        out = []
        for line in sys.stdin.read().splitlines():
            line = line.strip()
            if line:
                g = parse_graph6(line)
                out.append((to_graph6(g), g))
        if not out:
            raise ParseError("no graph6 lines on standard input")
        return out
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    g = parse_graph(text)
    return [(to_graph6(g), g)]


def _emit(payload: dict, cfg: RunConfig, text_lines: list[str]) -> None:
    if cfg.json_output:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _format_labels(g: SimpleGraph, wcg: WeightedCompleteGraph) -> str:
    parts = []
    for u, v in g.sorted_edges():
        parts.append(f"{{{u},{v}}}->{wcg.weight(u, v)}")
    return " ".join(parts)


def _labels_json(g: SimpleGraph, wcg: WeightedCompleteGraph) -> dict:
    return {f"{u}-{v}": str(wcg.weight(u, v)) for u, v in g.sorted_edges()}


def _verdict_payload(
    subject: str, gid: str, g: SimpleGraph, k: int | None, verdict: ch.Verdict
) -> tuple[dict, list[str]]:
    payload: dict = {
        "schema": ver.REPORT_SCHEMA,
        "command": "check",
        "subject": subject,
        "graph": gid,
        "verdict": verdict.to_json(),
    }
    if k is not None:
        payload["k"] = k
    heading = f"check {subject}" + (f" k={k}" if k is not None else "")
    lines = [f"graph {gid}: n={g.n} m={g.m}", f"{heading}: {'holds' if verdict.holds else 'does not hold'}"]
    if verdict.holds:
        if subject == "domination" and verdict.witness_bijection:
            chosen = sorted(ch.dominating_set_of(verdict.witness_bijection, g.n, k))
            payload["dominating_set"] = chosen
            lines.append(f"  dominating set: {set(chosen)}")
        if subject == "edge-roman" and verdict.witness_graph is not None:
            fn = ch.decode_edge_roman(verdict.witness_graph, g)
            payload["edge_function"] = {f"{u}-{v}": val for (u, v), val in sorted(fn.items())}
            lines.append(
                "  edge function: "
                + " ".join(f"{{{u},{v}}}->{val}" for (u, v), val in sorted(fn.items()))
            )
        if subject in ("antimagic", "irregular-strength", "one-two-three") and verdict.witness_graph is not None:
            payload["labeling"] = _labels_json(g, verdict.witness_graph)
            lines.append(f"  labeling: {_format_labels(g, verdict.witness_graph)}")
        if verdict.witness_bijection is not None:
            lines.append(f"  bijection: {verdict.witness_bijection}")
        if verdict.witness_polynomial is not None:
            lines.append(f"  polynomial: {verdict.witness_polynomial}")
    stats = verdict.stats
    lines.append(f"  searched: members={stats.members} bijections={stats.bijections}")
    return payload, lines


def _run_check(args: argparse.Namespace, cfg: RunConfig) -> int:
    limits = cfg.limits()
    subject = args.subject
    needs_k = {"irregular-strength", "domination", "edge-roman"}
    if subject in needs_k and args.k is None:
        print(f"error: check {subject} requires --k", file=sys.stderr)
        return EXIT_USAGE
    for gid, g in _load_graphs(args.graph):
        if subject == "hamiltonian":
            if args.by is None:
                spec = ch.hamiltonian_cycle_spectrum(g, limits)
            else:
                (_, h) = _load_graphs(args.by)[0]
                spec = ch.hamiltonian_spectrum(h, g, limits)
            number = min(spec.as_integers())
            payload = {
                "schema": ver.REPORT_SCHEMA,
                "command": "check",
                "subject": subject,
                "graph": gid,
                "spectrum": list(spec.as_integers()),
                "number": number,
            }
            _emit(payload, cfg, [
                f"graph {gid}: n={g.n} m={g.m}",
                f"hamiltonian spectrum: {sorted(spec.as_integers())}",
                f"hamiltonian number: {number}",
            ])
            continue
        if subject == "antimagic":
            verdict = ch.antimagic_unweighted(g, limits)
        elif subject == "irregular-strength":
            verdict = ch.strength_at_most(g, args.k, limits)
        elif subject == "one-two-three":
            verdict = ch.one_two_three(g, limits)
        elif subject == "domination":
            verdict = ch.dominating_k(g, args.k, limits)
        else:
            verdict = ch.edge_roman_at_most(g, args.k, limits)
        payload, lines = _verdict_payload(subject, gid, g, args.k, verdict)
        _emit(payload, cfg, lines)
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
    subject = args.subject
    if subject in ("chi-sigma", "domination") and args.k is None:
        print(f"error: oracle {subject} requires --k", file=sys.stderr)
        return EXIT_USAGE
    for gid, g in _load_graphs(args.graph):
        if subject == "antimagic":
            result = orc.antimagic_oracle(g, limits)
        elif subject == "strength":
            result = orc.strength_oracle(g, args.k_max, limits)
        elif subject == "chi-sigma":
            result = orc.chi_sigma_oracle(g, args.k, limits)
        elif subject == "domination":
            result = orc.domination_oracle(g, args.k, limits)
        elif subject == "edge-roman":
            result = orc.edge_roman_oracle(g, limits)
        else:
            result = orc.hamiltonian_oracle(g, limits)
        payload, lines = _oracle_payload(subject, gid, result)
        _emit(payload, cfg, lines)
    return EXIT_OK


_ROW_KEY_ORDER = (
    "identity", "graph", "n", "m", "k", "spectral", "oracle", "witness_ok", "agree",
)


def _row_text(row: dict) -> str:
    keys = [k for k in _ROW_KEY_ORDER if k in row]
    keys += sorted(k for k in row if k not in _ROW_KEY_ORDER)
    return " ".join(f"{k}={row[k]}" for k in keys)


def _run_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    limits = cfg.limits()
    if args.theorem:
        max_n = cfg.max_n if args.max_n is not None else min(cfg.max_n, 4)
        report = ver.run_theorem(
            args.theorem,
            max_n=max_n,
            ks=tuple(args.k) if args.k else None,
            workers=cfg.workers,
            limits=limits,
        )
    else:
        report = ver.run_identity(
            args.identity,
            ns=tuple(args.n),
            trials=args.trials,
            seed=cfg.seed,
            limits=limits,
        )
    lines = [f"verify {report['subject']} ({report['kind']})"]
    lines.extend(_row_text(row) for row in report["rows"])
    summary = report["summary"]
    lines.append(
        " ".join(f"{k}={summary[k]}" for k in sorted(summary))
    )
    _emit(report, cfg, lines)
    return EXIT_DISAGREE if summary["disagreements"] else EXIT_OK


def _error_payload(code: str, message: str) -> dict:
    return {
        "schema": ver.REPORT_SCHEMA,
        "error": {"code": code, "message": message},
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except ValueError as exc:
        print(f"error (usage): {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "check": _run_check,
        "oracle": _run_oracle,
        "verify": _run_verify,
    }
    try:
        return handlers[args.command](args, cfg)
    except UsageError as exc:
        print(f"error (usage): {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        _report_error(cfg, "parse", exc)
        return EXIT_PARSE
    except PreconditionError as exc:
        _report_error(cfg, "precondition", exc)
        return EXIT_PRECONDITION
    except SizeGuardError as exc:
        _report_error(cfg, "size-guard", exc)
        return EXIT_SIZE_GUARD
    except TimeLimitError as exc:
        _report_error(cfg, "timeout", exc)
        return EXIT_TIMEOUT
    except CombSpectraError as exc:
        _report_error(cfg, "internal", exc)
        return EXIT_INTERNAL


def _report_error(cfg: RunConfig, code: str, exc: Exception) -> None:
    if cfg.json_output:
        print(json.dumps(_error_payload(code, str(exc)), sort_keys=True,
                         separators=(",", ":")))
    else:
        print(f"error ({code}): {exc}", file=sys.stderr)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
