"""The four workloads, their inputs and the digests their outputs must have.

A workload pass is a list of CLI argument lists, each run through
`heckekit.cli.main` in this process with stdout going into a hashing
sink.  `expected.json` holds, per invocation, the sha256 of its stdout
as recorded at the seed commit; a pass is correct when every invocation
exits 0 and matches its digest.

Three workloads are fixed tables.  `point-queries` draws from a recorded
pool of A4 queries: every `rouquier-shape` query there is, with and
without `--negative`, and up to 32 `hom-rank` pairs per subset.  A block
takes the same number of queries of each kind for each of the 16
subsets, so every block has the same mix of cheap and costly subsets;
the seed picks the representatives and the order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shlex
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

WORKLOAD_TYPES = {
    "kl-table": "F4",
    "parabolic-tables": "D4",
    "verify": "A4",
    "point-queries": "A4",
}
WORKLOADS = tuple(WORKLOAD_TYPES)

POINT_BLOCKS_PER_PASS = 1
# per subset and block: one hom-rank query and this many of each shape
# kind, so hom-rank is a fifth of all queries and p90 lands in its middle
SHAPES_PER_HOM = 2
DEFAULT_SEED = 0
HELD_OUT_SEED = 1


def subset_labels(rank: int) -> list[str]:
    """Every subset of s1..s<rank>, smallest first, as a --subset value."""
    gens = [f"s{i + 1}" for i in range(rank)]
    return [",".join(c) for k in range(rank + 1)
            for c in itertools.combinations(gens, k)]


def fixed_pass(workload: str) -> list[list[str]]:
    if workload == "kl-table":
        return [["kl-table", "--type", "F4"]]
    if workload == "parabolic-tables":
        return [[cmd, "--type", "D4", "--subset", subset]
                for subset in subset_labels(4)
                for cmd in ("parabolic-tables", "inverse-tables")]
    if workload == "verify":
        return [["verify", "--type", "A4"]]
    raise ValueError(f"{workload} has no fixed pass")


def key(argv: list[str]) -> str:
    return shlex.join(argv)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def point_groups(expected: dict) -> list[list[list[str]]]:
    """The recorded point-query pool, grouped by (command, subset)."""
    groups: dict[tuple, list[list[str]]] = {}
    for text in expected["point-queries"]:
        argv = shlex.split(text)
        subset = argv[argv.index("--subset") + 1]
        kind = "--negative" in argv
        groups.setdefault((argv[0], kind, subset), []).append(argv)
    return [groups[k] for k in sorted(groups)]


def point_pass(groups: list[list[list[str]]], rng: random.Random) -> list[list[str]]:
    out = []
    for _ in range(POINT_BLOCKS_PER_PASS):
        block = [rng.choice(g) for g in groups
                 for _ in range(SHAPES_PER_HOM if g[0][0] == "rouquier-shape" else 1)]
        rng.shuffle(block)
        out.extend(block)
    return out


class Passes:
    """The passes of one workload at one seed, as an endless sequence."""

    def __init__(self, workload: str, seed: int, expected: dict):
        self.workload = workload
        if workload == "point-queries":
            self._groups = point_groups(expected)
            self._rng = random.Random(seed)
        else:
            self._fixed = fixed_pass(workload)

    def next(self) -> list[list[str]]:
        if self.workload == "point-queries":
            return point_pass(self._groups, self._rng)
        return self._fixed


# -- running one invocation ---------------------------------------------------


class _HashRaw(io.RawIOBase):
    def __init__(self):
        self.sha = hashlib.sha256()
        self.nbytes = 0

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.sha.update(b)
        self.nbytes += len(b)
        return len(b)


def invoke(main, argv: list[str]) -> tuple[int, str, int]:
    """Run one CLI invocation; return (exit code, stdout sha256, bytes).

    Stdout goes through the same text and buffer layers as a real
    stdout, into a sink that hashes it as it streams.
    """
    raw = _HashRaw()
    sink = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline="\n")
    with contextlib.redirect_stdout(sink):
        code = main(argv)
    sink.flush()
    return code, raw.sha.hexdigest(), raw.nbytes


def stream_digest(digests: list[str]) -> str:
    """Digest of a pass: sha256 over its invocations' digests in order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()
