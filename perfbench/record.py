#!/usr/bin/env python3
"""Record the counts and matrix digests that ``run.py`` checks every run against.

    python3 perfbench/record.py --workload lib_table2 --seeds 0 1

Runs one traced repetition for each generator seed of each benchmark seed
given and writes what it must repeat into ``perfbench/expected.json``: every
count, the coverage, the test length and the compatibility-matrix digest of
each design.  Re-record only when a change is meant to alter these outputs,
and say so in that change.
"""

from __future__ import annotations

import argparse
import json

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    run._import_program()
    import flows

    workload = flows.WORKLOADS[args.workload]
    expected = json.loads(run.EXPECTED.read_text())
    entry = expected.setdefault(args.workload, {})
    for seed in args.seeds:
        for generator_seed in workload.generator_seeds(seed):
            *_, runs = run._repeat(workload, generator_seed, traced=True)
            for design_run in runs:
                failures = design_run.failures + design_run.check()
                if failures:
                    raise SystemExit("\n".join(failures))
            entry[str(generator_seed)] = {
                design_run.design: run._comparable(design_run) for design_run in runs
            }
            print(f"{args.workload}: recorded generator seed {generator_seed}", flush=True)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
