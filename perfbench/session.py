"""One benchmark session: set up, sweep, check, and (traced) read the layers.

Runs inside the process whose set-up it measures, so the clock for
``setup_s`` starts before ``combspectra`` is first imported.  Every sweep
goes through the program's entry point, ``combspectra.cli.main``, with its
standard output captured.

``python3 perfbench/session.py --workload NAME`` measures one set-up in a
fresh process and prints ``{"setup_s": ..., "setup_wall_s": ...}``.  Set-up
and sweep times are taken at the reference speed (see ``calibrate.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import operator
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from random import Random

import checks
from calibrate import SpeedProbe
from spans import Tracer

_clock = time.perf_counter


@dataclass(frozen=True)
class Sweep:
    subject: str
    max_n: int
    min_n: int | None  # smallest corpus order, None for the fixpoint sweep
    ks: tuple[int, ...] = ()

    def argv(self, workers: int) -> list[str]:
        out = ["verify", "--theorem", self.subject, "--max-n", str(self.max_n)]
        for k in self.ks:
            out += ["--k", str(k)]
        return out + ["--workers", str(workers), "--json"]


@dataclass(frozen=True)
class Workload:
    sweeps: tuple[Sweep, ...]
    corpus_n: int  # corpus orders generated during set-up
    readers: tuple[str, ...] = ()  # lazily cached reader gadgets filled in set-up


# The orders of tests/test_acceptance.py.
WORKLOADS = {
    "domination": Workload((Sweep("domination", 7, 2),), corpus_n=7),
    "edge-roman": Workload((Sweep("edge-roman", 5, 2),), corpus_n=5, readers=("cover_reader",)),
    "family-algebra": Workload(
        (
            Sweep("colorings", 4, 2, (2, 3)),
            Sweep("fixpoint", 4, None),
            Sweep("hamiltonian", 6, 3),
        ),
        corpus_n=6,
    ),
}


def setup(workload: Workload, tracer: Tracer | None = None) -> float:
    """Import the program, generate the corpus and fill the lazy caches that
    every CLI call of this workload pays for; returns the seconds taken."""
    t0 = _clock()
    importlib.import_module("combspectra.cli")
    if tracer is not None:
        install(tracer)
    from combspectra import corpus, gadgets  # called through module attributes, so traced

    corpus.connected_graphs_up_to(workload.corpus_n)
    for n in range(2, workload.corpus_n + 1):
        gadgets.bijection_pair_maps(n)
        for reader in workload.readers:
            getattr(gadgets, reader)(n)
    return _clock() - t0


def measured_enough(times: list[float], seconds: float) -> bool:
    """Whether the passes at one worker count suffice: together they last at
    least ``seconds / 2``, and there are two of them unless a single pass
    lasts ``seconds``.  A pass runs every sweep of the workload once."""
    total = sum(times)
    return total >= seconds / 2 and (len(times) >= 2 or total >= seconds)


@dataclass
class Call:
    subject: str
    workers: int
    seconds: float
    code: int
    text: str


def run_pass(workload: Workload, workers: int, tracer: Tracer | None = None) -> list[Call]:
    from combspectra import cli

    calls = []
    for sweep in workload.sweeps:
        buf = io.StringIO()
        t0 = _clock()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = cli.main(sweep.argv(workers))
            else:
                code, _ = tracer.span("cli.main", cli.main, sweep.argv(workers))
        calls.append(Call(sweep.subject, workers, _clock() - t0, code, buf.getvalue()))
    return calls


# -- tracing -------------------------------------------------------------------

# Helpers called once per coloring or row; their time stays with the caller.
_UNTRACED_HELPERS = {"decode_edge_roman", "dominating_set_of"}


# Characterizations whose witnesses the checks can read: name -> subject.
_WITNESSED = {"characterize.dominating_k": "domination", "characterize.edge_roman_at_most": "edge-roman"}


def install(tracer: Tracer, witnesses: list | None = None) -> None:
    """Wrap the public functions the sweeps reach, each at every name its
    callers look it up by.  Verdicts of the witnessed characterizations are
    appended to ``witnesses`` as (subject, graph, k, verdict)."""
    from combspectra import characterize, corpus, families, gadgets, oracles, verify

    def verdict_counts(span, args, result):
        stats = getattr(result, "stats", None)
        if stats is not None:
            span.counts.update(members=stats.members, bijections=stats.bijections, holds=result.holds)
        if witnesses is not None and span.name in _WITNESSED:
            witnesses.append((_WITNESSED[span.name], args[0], args[1], result))

    def family_members(span, args, result):
        span.counts["members"] = len(result)

    tracer.wrap(verify.run_theorem, "verify.run_theorem")
    task = getattr(verify, "_theorem_task", None)  # one call per corpus graph
    if task is not None:
        tracer.wrap(task, "verify.task")
    tracer.wrap(
        corpus.connected_graphs_up_to,
        "corpus.connected_graphs_up_to",
        lambda span, args, result: span.counts.update(graphs=len(result)),
    )
    tracer.wrap(gadgets.bijection_pair_maps, "gadgets.bijection_pair_maps")
    for name in characterize.__all__:
        func = getattr(characterize, name)
        if callable(func) and not isinstance(func, type) and name not in _UNTRACED_HELPERS:
            tracer.wrap(func, f"characterize.{name}", verdict_counts)
    for name in oracles.__all__:
        func = getattr(oracles, name)
        if callable(func) and not isinstance(func, type):
            tracer.wrap(
                func,
                f"oracles.{name}",
                lambda span, args, result: span.counts.update(enumerated=result.enumerated),
            )
    for name in ("family_product", "family_sum", "colorings_of_graph"):
        tracer.wrap(getattr(families, name), f"families.{name}", family_members)
    tracer.wrap(families.power_fixpoint, "families.power_fixpoint")
    tracer.wrap(families.all_colorings_family, "families.all_colorings_family")
    tracer.wrap(families.iter_colorings, "families.iter_colorings", generator=True)


def layer_probe() -> None:
    """Fixed calls into every traced layer, so that each per-layer metric is
    measured on every workload, also where its sweeps never reach the layer."""
    from combspectra import characterize, families, graphs

    for k in (1, 2):
        characterize.dominating_k(graphs.cycle_graph(4), k)
    deleted = families.edge_deleted_family(3)
    families.power_fixpoint(deleted)
    families.family_sum(deleted, deleted)
    sum(1 for _ in families.iter_colorings(graphs.path_graph(3), families.ROMAN_PALETTE))


def _spans(tracer: Tracer, prefix: str):
    return [s for s in tracer.spans if s.name.startswith(prefix)]


def _pct(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    def total(name: str, attr: str = "duration") -> float:
        return sum(getattr(s, attr) for s in tracer.spans if s.name == name)

    def self_of(prefix: str) -> float:
        return sum(s.self_time for s in _spans(tracer, prefix))

    def count(prefix: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in _spans(tracer, prefix))

    char = _spans(tracer, "characterize.")
    calls = [s for s in char if s.parent is None or not s.parent.name.startswith("characterize.")]
    scans = [s for s in char if "bijections" in s.counts]
    bijections = sum(s.counts["bijections"] for s in scans)
    holds = sum(s.counts["bijections"] for s in scans if s.counts["holds"])
    call_ms = [s.duration * 1e3 for s in calls]
    tasks = [s.duration for s in tracer.spans if s.name == "verify.task"]
    return {
        "corpus.generate_s": total("corpus.connected_graphs_up_to"),
        "corpus.graphs": count("corpus.", "graphs"),
        "gadgets.pair_maps_s": total("gadgets.bijection_pair_maps"),
        "families.iter_colorings_s": total("families.iter_colorings", "self_time"),
        "families.colorings": count("families.iter_colorings", "items"),
        "families.product_s": total("families.family_product"),
        "families.sum_s": total("families.family_sum"),
        "families.fixpoint_s": total("families.power_fixpoint"),
        "families.fixpoint_calls": len(_spans(tracer, "families.power_fixpoint")),
        "families.members_built": count("families.", "members"),
        "characterize.self_s": self_of("characterize."),
        "characterize.calls": len(calls),
        "characterize.members": sum(s.counts.get("members", 0) for s in scans),
        "characterize.bijections": bijections,
        "characterize.bijections.holds": holds,
        "characterize.bijections.fails": bijections - holds,
        "characterize.us_per_bijection": sum(s.self_time for s in scans) / bijections * 1e6,
        "characterize.call_ms.p50": _pct(call_ms, 0.50),
        "characterize.call_ms.p99": _pct(call_ms, 0.99),
        "oracles.self_s": self_of("oracles."),
        "oracles.enumerated": count("oracles.", "enumerated"),
        "verify.self_s": self_of("verify."),
        "verify.longest_task_s": max(tasks, default=0.0),
        "cli.self_s": self_of("cli."),
    }


# -- micro-timings -----------------------------------------------------------------


def _per_call_us(cases: dict[str, tuple], repeats: int = 25) -> dict[str, float]:
    """Median per-call time of each (func, inputs) case.  The cases take
    turns, one pass over their inputs each, so that a slow spell of the
    machine falls on all of them alike instead of on one."""
    samples: dict[str, list[float]] = {name: [] for name in cases}
    for _ in range(repeats):
        for name, (func, inputs) in cases.items():
            t0 = _clock()
            for args in inputs:
                func(*args)
            samples[name].append((_clock() - t0) / len(inputs) * 1e6)
    return {name: statistics.median(values) for name, values in samples.items()}


def micro_metrics(seed: int, size: int = 400) -> dict[str, float]:
    """Per-call times of ring operations and star products on seeded inputs."""
    from combspectra import families, gadgets, ring
    from combspectra.gadgets import WeightedCompleteGraph as WCG
    from combspectra.graphs import SimpleGraph

    rng = Random(seed)

    def colored(n: int, palette) -> WCG:
        return WCG(n, [rng.choice(palette) for _ in range(n * (n - 1) // 2)])

    def random_map(n: int):
        return rng.choice(gadgets.bijection_pair_maps(n))[1]

    elems = [(ring.random_element(rng), ring.random_element(rng)) for _ in range(size)]
    probes = []
    for _ in range(size):
        g = SimpleGraph(7, [(u, v) for v in range(2, 8) for u in range(1, v) if rng.random() < 0.5])
        probes.append((gadgets.domination_probe(rng.randint(1, 6), 7), gadgets.indicator(g), random_map(7)))
    roman = (ring.ZERO, *families.ROMAN_PALETTE)
    labels = (ring.ZERO, *families.integer_palette(3))
    small = [ring.random_element(rng, max_deg=2, max_terms=2) for _ in range(32)]
    return _per_call_us(
        {
            "ring.mul_us": (operator.mul, elems),
            "ring.add_us": (operator.add, elems),
            "ring.eval_us": (ring.RingElem.eval, [(a, 1, 1) for a, _ in elems]),
            "gadgets.star_sum_us.domination_probe": (gadgets.star_sum, probes),
            "gadgets.star_sum_us.cover_reader": (
                gadgets.star_sum,
                [(colored(5, roman), gadgets.cover_reader(5), random_map(5)) for _ in range(size)],
            ),
            "gadgets.star_sum_us.degree_reader": (
                gadgets.star_sum,
                [(colored(5, labels), gadgets.degree_reader(5), random_map(5)) for _ in range(size)],
            ),
            "gadgets.star_with_map_us": (
                WCG.star_with_map,
                [(colored(4, small), colored(4, small), random_map(4)) for _ in range(size)],
            ),
        }
    )


# -- the session ---------------------------------------------------------------------


def _check_calls(workload: Workload, calls: list[Call]) -> tuple[int, int, list[str], list[str]]:
    """(attempted, failed, problems, row notes).  An operation is one report
    row; a row fails if its own check rejects it (a note says why) or if its
    sweep exits non-zero.  Problems are the failed checks that belong to no
    single row: byte-identity of the reports and the corpus counts."""
    attempted = failed = 0
    problems: list[str] = []
    notes: list[str] = []
    verdicts: dict[str, tuple[int, int]] = {}  # report text -> (rows, failed rows)
    reference: dict[str, str] = {}
    for call in calls:
        ref = reference.setdefault(call.subject, call.text)
        if call.text != ref:
            problems.append(f"{call.subject}: report at workers={call.workers} differs from the first one")
        if call.text not in verdicts:
            report = json.loads(call.text)
            rows = report["rows"]
            sweep = next(s for s in workload.sweeps if s.subject == call.subject)
            if sweep.min_n is not None:
                problems += checks.corpus_problems(rows, range(sweep.min_n, sweep.max_n + 1))
            row_problems = checks.ROW_CHECKS[call.subject](rows)
            notes += [p for ps in row_problems for p in ps][:5]
            verdicts[call.text] = (len(rows), sum(1 for ps in row_problems if ps))
        rows, bad = verdicts[call.text]
        attempted += rows
        failed += rows if call.code != 0 else bad
    return attempted, failed, problems, notes


def timed_setup(workload: Workload) -> SpeedProbe:
    """An untraced set-up, timed at the reference speed."""
    with SpeedProbe() as probe:
        setup(workload)
    return probe


def run(workload_name: str, seconds: float, seed: int, traced: bool) -> dict:
    workload = WORKLOADS[workload_name]
    tracer = Tracer() if traced else None
    if tracer is None:
        probe = timed_setup(workload)
        setup_s, setup_wall_s = probe.corrected_s, probe.wall_s
    else:
        setup_s = setup_wall_s = setup(workload, tracer)
        tracer.restore()

    # Passes at one and at two workers take turns until each suffices; the
    # wall times decide that, the times at the reference speed are reported.
    passes: dict[int, list[float]] = {1: [], 2: []}
    corrected: dict[int, list[float]] = {1: [], 2: []}
    program_s: list[float] = []  # one-worker passes, wall less the samples
    speeds: list[float] = []
    calls: list[Call] = []
    peak_rss_mb = None
    while not all(measured_enough(times, seconds) for times in passes.values()):
        for workers, times in passes.items():
            if not measured_enough(times, seconds):
                with SpeedProbe(workers) as probe:
                    done = run_pass(workload, workers)
                if peak_rss_mb is None:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                times.append(probe.wall_s)
                corrected[workers].append(probe.corrected_s)
                if workers == 1:
                    program_s.append(probe.program_s)
                speeds.append(probe.speed)
                calls += done

    sweep_s = statistics.median(corrected[1])
    sweep_w2_s = statistics.median(corrected[2])
    out = {
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "sweep_w2_s": sweep_w2_s,
        "peak_rss_mb": peak_rss_mb,
        "passes": {workers: len(times) for workers, times in passes.items()},
        "wall": {"setup_s": setup_wall_s, "passes": passes},
        "corrected": corrected,
        "reference_loop_s": speeds,
    }
    witnesses: list = []
    if tracer is not None:
        install(tracer, witnesses)
        try:
            traced_calls = run_pass(workload, 1, tracer)
            tracer.span("bench.layer_probe", layer_probe)
        finally:
            tracer.restore()
        calls += traced_calls
        traced_s = sum(c.seconds for c in traced_calls)
        layers = layer_metrics(tracer)
        layers.update(micro_metrics(seed))
        layers["verify.parallel_efficiency"] = sweep_s / (2 * sweep_w2_s)
        layers["trace.overhead_s"] = traced_s - statistics.median(program_s)
        out["per_layer"] = layers
        out["tracer"] = tracer

    attempted, failed, problems, notes = _check_calls(workload, calls)
    problems += checks.witness_problems(
        (subject, g.n, frozenset(g.edges), k, verdict.to_json())
        for subject, g, k, verdict in witnesses
    )[:5]
    out.update(
        attempted=attempted,
        failed=failed,
        problems=problems,
        row_notes=notes,
        calls=[(c.subject, c.workers, c.seconds) for c in calls],
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    args = parser.parse_args(argv)
    probe = timed_setup(WORKLOADS[args.workload])
    print(json.dumps({"setup_s": probe.corrected_s, "setup_wall_s": probe.wall_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
