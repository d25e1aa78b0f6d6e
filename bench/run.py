"""Seconds-per-scene benchmark of pvlite.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk-detect --seed 0 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 runs each unit
untraced and then traced and reports the per-layer metrics. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The full result (environment, sample counts and, when
traced, every span) is written under bench/results/.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROBES = 4  # extra set-ups in fresh processes, for the setup_s median
PROBE_TIMEOUT_S = 120


def cap_threads() -> None:
    """One BLAS / OpenMP thread; takes effect only before numpy is first
    imported in this process."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="desk-detect, kitti-detect or desk-train")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (>= 0); scene seeds derive from it")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)  # one set-up probe, then exit
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def probe_setups(args) -> list[float]:
    """Set-up times of SETUP_PROBES fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    cap_threads()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pvlite" / "__init__.py").is_file():
        print(f"bench: no pvlite sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import harness
    import report
    from tracer import Tracer

    w = harness.WORKLOADS.get(args.workload)
    if w is None:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    s = harness.setup(w, args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = report.environment(ROOT, args.seed, THREAD_VARS)
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer = Tracer()
        stats = harness.run_traced(s, args.seconds, tracer)
        values = report.layer_metrics(w, stats, tracer)
        table = report.PER_LAYER
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="ascii") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")
        detail = {name: {"value": values[name], "unit": unit}
                  for name, unit, _ in table}
    else:
        stats = harness.run_untraced(s, args.seconds)
        e2e = report.end_to_end(w, stats, [setup_s, *probe_setups(args)])
        values = {k: v[0] for k, v in e2e.items()}
        table = report.END_TO_END
        detail = {k: {"value": v, "unit": unit, "samples": n, "note": note}
                  for k, (v, unit, n, note) in e2e.items()}

    print(f"{w.name}: seed {args.seed}, trace {args.trace}, "
          f"{stats.attempted} units, {stats.failed} failed")
    for name, d in detail.items():
        samples = f"  n={d['samples']}  {d['note']}" if "samples" in d else ""
        print(f"  {name:32s} {d['value']:14.6g} {d['unit']:6s}{samples}")
    print("  env " + json.dumps(env))
    with open(stem.with_suffix(".json"), "w", encoding="ascii") as fh:
        json.dump({"workload": w.name, "trace": args.trace,
                   "seconds": args.seconds, "attempted": stats.attempted,
                   "failed": stats.failed, "environment": env,
                   "metrics": detail}, fh, indent=1)
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
