#!/usr/bin/env python3
"""Write perfbench/expected.json: the stdout digest of every invocation the
workloads can make, and the point-query pass digests of two seeds.

    python3 perfbench/record.py

Run it only at a commit whose outputs are trusted (it was run at the seed
commit); the benchmark counts any later difference as a failure.  It
also fixes the point-query pool, so re-recording changes that workload.
"""

from __future__ import annotations

import itertools
import json
import random
import sys

import run
import workloads

POOL_SEED = 20190829
HOM_PAIRS_PER_SUBSET = 32


def point_pool(system) -> list[list[str]]:
    out = []
    for subset in workloads.subset_labels(system.rank):
        gens = [system.gen_index(s) for s in subset.split(",") if s]
        reps = [system.word_str(w) for w in system.min_reps(gens)]
        base = ["--type", "A4", "--subset", subset]
        for x in reps:
            out.append(["rouquier-shape", *base, x])
            out.append(["rouquier-shape", *base, x, "--negative"])
        pairs = list(itertools.product(reps, reps))
        if len(pairs) > HOM_PAIRS_PER_SUBSET:
            pairs = random.Random(f"{POOL_SEED}:{subset}").sample(
                pairs, HOM_PAIRS_PER_SUBSET)
        out.extend(["hom-rank", *base, x, y] for x, y in pairs)
    return out


def main() -> int:
    cli = run.import_cli()
    import heckekit

    inputs = {w: workloads.fixed_pass(w) for w in workloads.WORKLOADS
              if w != "point-queries"}
    inputs["point-queries"] = point_pool(heckekit.build_named("A4"))
    expected = {}
    for workload, argvs in inputs.items():
        table = expected[workload] = {}
        for argv in argvs:
            code, digest, _ = workloads.invoke(cli.main, argv)
            if code != 0:
                print(f"record: {workloads.key(argv)} exited {code}",
                      file=sys.stderr)
                return 1
            table[workloads.key(argv)] = digest
        print(f"{workload}: {len(argvs)} invocations", file=sys.stderr)
    expected["streams"] = {}
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        argvs = workloads.Passes("point-queries", seed, expected).next()
        table = expected["point-queries"]
        expected["streams"][str(seed)] = workloads.stream_digest(
            [table[workloads.key(a)] for a in argvs])
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
