"""Benchmark of the acceptance sweeps, run through ``combspectra.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics (set-up, the sweeps at one and
at two workers, peak memory); ``--trace 1`` reports the per-layer metrics
of a traced session and writes its spans under ``perfbench/out/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PROBE_TIMEOUT_S = 60


def _setup_probe(workload: str, env: dict) -> dict:
    """One set-up in a fresh interpreter; the process group is killed if it
    overruns, and always waited for."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "session.py"), "--workload", workload],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "combspectra" / "__init__.py").is_file():
        print(f"error: no combspectra sources under {SRC}", file=sys.stderr)
        return 2
    # Build: byte-compile once, so that no set-up pays for compiling.
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: the sources do not compile", file=sys.stderr)
        return 2

    # The program reads COMBSPECTRA_* overrides; the workloads pass flags only.
    for name in [k for k in os.environ if k.startswith("COMBSPECTRA_")]:
        del os.environ[name]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import checks
    import session

    if args.workload not in session.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    checks.self_test()

    if args.trace:
        result = session.run(args.workload, args.seconds, args.seed, traced=True)
    else:
        # Three set-ups, each in a fresh process: a probe, the session's own, a probe.
        first = _setup_probe(args.workload, env)
        result = session.run(args.workload, args.seconds, args.seed, traced=False)
        last = _setup_probe(args.workload, env)
        setups = [first["setup_s"], result["setup_s"], last["setup_s"]]
        result["wall"]["setup_s"] = [first["setup_wall_s"], result["wall"]["setup_s"], last["setup_wall_s"]]

    for note in result["row_notes"]:
        print(f"row failed: {note}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    # Metric names and units come from BENCHMARK.json.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values = result["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "sweep_s": result["sweep_s"],
            "sweep_w2_s": result["sweep_w2_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    line = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result["tracer"].dump(OUT / f"spans-{stem}.jsonl")
    detail = {k: v for k, v in result.items() if k not in ("tracer", "per_layer")}
    (OUT / f"result-{stem}.json").write_text(json.dumps({**line, "detail": detail}, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
