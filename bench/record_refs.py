"""Record the reference outputs that bench/run.py checks passes against.

    python3 bench/record_refs.py --workload trace-kinds --seeds 0 1 2

For each workload and seed it makes the inputs, runs one untraced pass,
requires the seed-independent checks to pass, and stores the results.csv
sha256, its row count and, for the trace workloads, the stats.txt kind
counts in bench/references.json. Record again only when a change to the
program is meant to change its results, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run as bench


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(bench.WORKLOADS),
                   required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    root = bench.BENCH_DIR.parent
    refs = bench.load_references()
    for name in args.workload:
        workload = bench.WORKLOADS[name]
        for seed in args.seeds:
            work = root / ".bench_work" / f"refs-{name}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            runner = bench.Runner(root, work, time.perf_counter() + bench.DEADLINE_S, {})
            bench.setup(workload, seed, runner)
            done = bench.run_pass(workload, seed, runner, 0, traced=False)
            if runner.failed:
                print(f"{name} seed {seed}: failed, not recorded", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = done.outputs
            print(f"{name} seed {seed}: {done.outputs['results_sha256'][:12]} "
                  f"{done.outputs['rows']} rows in {done.wall_s:.1f}s")
    bench.REFERENCES_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
