#!/usr/bin/env python3
"""heckekit benchmark: CLI workloads run in-process through heckekit.cli.main.

    python3 perfbench/run.py --workload kl-table --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its `src`.
With `--trace 0` the workload's passes repeat for `--seconds` (at least
two passes) and the end-to-end metrics are printed.
With `--trace 1` one pass runs untraced and the same pass again traced,
and the per-layer metrics are printed.  Every invocation's stdout is
checked against the digest recorded at the seed commit.  Without
`--workload` all four workloads run, one after another, each in its own
process.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_PASSES = 2
SETUP_RUNS = 15

# End-to-end times are reported in reference seconds.  While they are
# measured, SIGALRM runs a fixed pure-Python kernel every SAMPLE_INTERVAL
# seconds; its time is taken out of the measurement, and each invocation's
# rest is scaled by REF_S over the kernel's mean time during it and
# SAMPLE_WINDOW seconds either side.  On the shared two-core machine the
# benchmark was built on, one pass of parabolic-tables took 3.3 s to 5.8 s
# within four minutes, with CPU time equal to wall time; scaled passes
# varied a sixth as much.  REF_S is the kernel's usual time there, so
# reference seconds read close to that machine's seconds.
SAMPLE_INTERVAL = 0.02
SAMPLE_WINDOW = 0.05
REF_S = 0.00065

TRACED_CALLS = (
    "laurent.mul", "laurent.add", "laurent.div_exact", "laurent.str",
    "coxeter.word_str", "coxeter.build", "coxeter.bruhat_leq",
    "hecke.kl_basis", "hecke.bar", "hecke.kl_gen_mult", "hecke.pairing",
    "parabolic.kl_basis", "parabolic.inverse_kl", "parabolic.embed",
    "parabolic.extract", "parabolic.pair_embedded",
    "rouquier.f_shape", "rouquier.shape_character", "rouquier.euler_hom",
    "soergel.graded_hom_rank", "soergel.bott_samelson_char",
    "soergel.kl_decompose",
)
DISTINCT = ("coxeter.bruhat_leq", "hecke.kl_basis", "parabolic.kl_basis",
            "parabolic.inverse_kl")
LAYERS = ("laurent", "coxeter", "hecke", "parabolic", "rouquier", "soergel", "cli")
VERIFY_SUITES = ("bar-invariance", "inversion", "positivity", "parity",
                 "euler-hom", "q-monotonicity", "pairing", "bs-positivity",
                 "degree-one")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "p50_ms": "ms", "p90_ms": "ms"}


def per_layer_units() -> dict[str, str]:
    units = {f"{n}.calls": "count" for n in TRACED_CALLS}
    units["cli.main.calls"] = "count"
    units.update({f"{n}.distinct": "count" for n in DISTINCT})
    units.update({f"{n}.self_s": "s" for n in TRACED_CALLS
                  if not n.startswith("laurent.")})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"verify.{s}.s": "s" for s in VERIFY_SUITES})
    units.update({"verify.checks": "count", "cli.out_bytes": "bytes",
                  "trace.overhead_s": "s"})
    return units


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    """Import heckekit.cli from this checkout's src, and only from there."""
    if not (SRC / "heckekit" / "cli.py").is_file():
        fail(f"no heckekit sources under {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("heckekit.cli")
    if Path(cli.__file__).resolve().parent != SRC / "heckekit":
        fail(f"imported heckekit from {cli.__file__}, not {SRC}")
    return cli


def _reference_kernel() -> int:
    """Sparse integer polynomial products in dicts, like laurent.py's."""
    a = {e: (e * 7) % 11 - 5 for e in range(-6, 7)}
    acc: dict[int, int] = {}
    for r in range(12):
        c: dict[int, int] = {}
        for e1, k1 in a.items():
            for e2, k2 in a.items():
                e = e1 + e2 + r % 3
                k = c.get(e, 0) + k1 * k2
                if k:
                    c[e] = k
                elif e in c:
                    del c[e]
        for e, k in c.items():
            acc[e] = acc.get(e, 0) + k
    return len(acc)


class Sampler:
    """Samples the machine's speed with the reference kernel, from a timer
    signal, while a `with` block runs.  `stolen` is the time the samples
    took, to be taken out of what the block measures."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.stolen = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _reference_kernel()
        dt = time.perf_counter() - t0
        self.times.append(t0)
        self.samples.append(dt)
        self.stolen += dt

    def __enter__(self) -> "Sampler":
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        if not self.samples:
            self._tick(None, None)

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Factor from measured seconds to reference seconds, from the
        samples taken within SAMPLE_WINDOW of [start, end], or all."""
        lo = bisect.bisect_left(self.times, start - SAMPLE_WINDOW)
        hi = bisect.bisect_right(self.times, end + SAMPLE_WINDOW)
        near = self.samples[lo:hi] or self.samples
        return REF_S / statistics.mean(near)


def measure_setup(type_name: str) -> float:
    """Import of heckekit.cli plus enumeration of the workload's type, the
    work done before the first call.  Each of SETUP_RUNS repeats drops
    heckekit from sys.modules first, so its modules run again; the
    median is reported in reference seconds."""
    times = []
    with Sampler() as sampler:
        for _ in range(SETUP_RUNS):
            for name in [m for m in sys.modules if m.split(".")[0] == "heckekit"]:
                del sys.modules[name]
            stolen = sampler.stolen
            t0 = time.perf_counter()
            import_cli()
            sys.modules["heckekit"].build_named(type_name)
            times.append(time.perf_counter() - t0 - (sampler.stolen - stolen))
    return statistics.median(times) * sampler.scale()


class PassResult:
    def __init__(self):
        self.latencies: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.digests: list[str] = []
        self.failed = 0
        self.out_bytes = 0

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(cli, argvs, expected: dict, tracer: Tracer | None = None,
             sampler: Sampler | None = None) -> PassResult:
    """Run each invocation in turn (a closed loop with one client).

    Garbage left by the previous invocation is collected before the next
    one starts, outside its timing, as a fresh CLI process would have none.
    """
    res = PassResult()
    for argv in argvs:
        gc.collect()
        if tracer is not None:
            tracer.begin(argv)
        stolen = sampler.stolen if sampler else 0.0
        t0 = time.perf_counter()
        try:
            code, digest, nbytes = workloads.invoke(cli.main, argv)
        except Exception:
            traceback.print_exc()
            code, digest, nbytes = None, None, 0
        t1 = time.perf_counter()
        res.windows.append((t0, t1))
        res.latencies.append(t1 - t0 - (sampler.stolen - stolen if sampler else 0.0))
        if tracer is not None:
            tracer.end()
        res.digests.append(digest)
        res.out_bytes += nbytes
        want = expected.get(workloads.key(argv))
        if code != 0 or digest != want:
            res.failed += 1
            print(f"perfbench: FAIL {workloads.key(argv)}: exit {code}, "
                  f"digest {digest}, expected {want}", file=sys.stderr)
    return res


def check_stream(workload: str, seed: int, res: PassResult, recorded: dict) -> int:
    """1 if the first point-query pass of a recorded seed differs."""
    want = recorded.get(str(seed)) if workload == "point-queries" else None
    if want is None or workloads.stream_digest(res.digests) == want:
        return 0
    print(f"perfbench: FAIL stream digest for seed {seed}", file=sys.stderr)
    return 1


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    setup_s = measure_setup(workloads.WORKLOAD_TYPES[workload])
    cli = import_cli()
    expected = workloads.load_expected()
    passes = workloads.Passes(workload, seed, expected)
    walls, raw_walls, latencies, raw_latencies = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    # no pass starts that would end after `seconds`, going by the longest so far
    longest = 0.0
    while (len(walls) < MIN_PASSES
           or time.perf_counter() - start + longest <= seconds):
        t0 = time.perf_counter()
        with Sampler() as sampler:
            res = run_pass(cli, passes.next(), expected[workload], sampler=sampler)
        if not walls:
            failed += check_stream(workload, seed, res, expected["streams"])
        scaled = [t * sampler.scale(*w) for t, w in zip(res.latencies, res.windows)]
        walls.append(sum(scaled))
        raw_walls.append(res.wall)
        latencies.extend(scaled)
        raw_latencies.extend(res.latencies)
        attempted += len(res.latencies)
        failed += res.failed
        longest = max(longest, time.perf_counter() - t0)
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    raw_cuts = statistics.quantiles(raw_latencies, n=10, method="inclusive")
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "p50_ms": cuts[4] * 1000,
        "p90_ms": cuts[8] * 1000,
    }
    print(f"{workload} passes {len(walls)} invocations {len(latencies)} "
          f"pass_s {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"{workload} unscaled wall_s {statistics.median(raw_walls)} s, "
          f"p50_ms {raw_cuts[4] * 1000} ms, p90_ms {raw_cuts[8] * 1000} ms")
    return ({n: (v, END_TO_END_UNITS[n]) for n, v in values.items()},
            attempted, failed)


def traced(workload: str, seed: int) -> tuple[dict, int, int]:
    cli = import_cli()
    expected = workloads.load_expected()
    argvs = workloads.Passes(workload, seed, expected).next()
    plain = run_pass(cli, argvs, expected[workload])
    with Tracer() as tracer:
        spans = run_pass(cli, argvs, expected[workload], tracer)
    failed = plain.failed + spans.failed
    failed += check_stream(workload, seed, spans, expected["streams"])

    totals = tracer.totals()

    def total(name: str, field: str):
        return totals[name][field] if name in totals else 0

    values = {f"{n}.calls": total(n, "calls") for n in TRACED_CALLS}
    values["cli.main.calls"] = total("cli.main", "calls")
    values.update({f"{n}.distinct": len(tracer.distinct[n]) for n in DISTINCT})
    values.update({f"{n}.self_s": total(n, "self") for n in TRACED_CALLS
                   if not n.startswith("laurent.")})
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            t["self"] for n, t in totals.items() if n.startswith(layer + "."))
    values.update({f"verify.{s}.s": total(f"verify.{s}", "total")
                   for s in VERIFY_SUITES})
    values["verify.checks"] = total("verify.check", "calls")
    values["cli.out_bytes"] = spans.out_bytes
    values["trace.overhead_s"] = spans.wall - plain.wall

    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, **tracer.dump()}, fh)
    print(f"{workload} spans written to {out.relative_to(ROOT)}")

    units = per_layer_units()
    return ({n: (values[n], u) for n, u in units.items()},
            len(plain.latencies) + len(spans.latencies), failed)


def report(workload: str, metrics: dict, attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value} {unit}")
    print(f"{workload} fail_ratio {failed / attempted} ratio "
          f"({failed} of {attempted} invocations)")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    combined, attempted, failed = {}, 0, 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{workload}.{n}": m for n, m in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)

    if args.trace:
        metrics, attempted, failed = traced(args.workload, args.seed)
    else:
        metrics, attempted, failed = end_to_end(args.workload, args.seed,
                                                args.seconds)
    report(args.workload, metrics, attempted, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
