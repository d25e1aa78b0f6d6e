"""Regenerate the reference outputs the benchmark checks at its default
seed, from the code as it is now.

    python3 bench/make_refs.py [WORKLOAD ...]

References change only when a change to the benchmark says why.
"""

from __future__ import annotations

import json
import sys

import run


def main(names) -> int:
    run.cap_threads()
    sys.path[:0] = [str(run.ROOT / "src"), str(run.BENCH_DIR)]
    import harness

    harness.REFS_DIR.mkdir(exist_ok=True)
    for name in names or harness.WORKLOADS:
        w = harness.WORKLOADS[name]
        s = harness.setup(w, harness.DEFAULT_SEED)
        units = [harness.run_unit(s, i).summary for i in range(len(s.units))]
        path = harness.reference_path(w)
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"workload": name, "seed": harness.DEFAULT_SEED,
                       "units": units}, fh, indent=1)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
