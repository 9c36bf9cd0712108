"""Tests of the benchmark itself (not collected by a plain `pytest` run).

    python3 -m pytest -q perfbench/selftest.py

The traced-digest test runs one pass of every workload twice, about a
minute in all.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Node, Tracer  # noqa: E402

CLI = run.import_cli()
EXPECTED = workloads.load_expected()


def test_self_time_on_nested_span_tree():
    root = Node("request")
    a = root.child("a")
    b = a.child("b")
    inner_a = b.child("a")  # recursion: same name further down the path
    d = a.child("d")
    a.calls, a.total = 2, 10.0
    b.calls, b.total = 3, 4.0
    inner_a.calls, inner_a.total = 5, 1.5
    d.calls, d.total = 1, 3.0
    assert a.self_time() == pytest.approx(3.0)
    assert b.self_time() == pytest.approx(2.5)
    assert inner_a.self_time() == pytest.approx(1.5)
    assert d.self_time() == pytest.approx(3.0)

    tracer = Tracer()
    tracer.requests.append((["x"], root))
    totals = tracer.totals()
    assert totals["a"]["calls"] == 7
    assert totals["a"]["self"] == pytest.approx(4.5)
    # the self times of a request add up to its outermost spans
    assert sum(t["self"] for t in totals.values()) == pytest.approx(a.total)


def _bindings():
    import heckekit.verify

    out = {}
    for mod in [m for n, m in sys.modules.items() if n.startswith("heckekit")]:
        out[mod.__name__] = dict(vars(mod))
        for name, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                out[f"{mod.__name__}.{name}"] = dict(vars(value))
    out["SUITES"] = dict(heckekit.verify.SUITES)
    return out


def test_unwrapping_restores_every_original():
    from heckekit import laurent, rouquier, soergel, verify

    before = _bindings()
    with Tracer():
        # names bound by import in other modules are wrapped too
        assert rouquier.div_exact is not before["heckekit.laurent"]["div_exact"]
        assert soergel.div_exact is rouquier.div_exact
        assert verify.euler_hom is not before["heckekit.rouquier"]["euler_hom"]
        assert laurent.LaurentPoly.__rmul__ is laurent.LaurentPoly.__mul__
        assert (laurent.LaurentPoly.__mul__
                is not before["heckekit.laurent.LaurentPoly"]["__mul__"])
        assert verify.SUITES["inversion"] is not before["SUITES"]["inversion"]
    after = _bindings()
    assert after.keys() == before.keys()
    for where, names in before.items():
        for name, value in names.items():
            assert after[where][name] is value, f"{where}.{name} not restored"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_digests_equal_untraced(workload):
    argvs = workloads.Passes(workload, workloads.DEFAULT_SEED, EXPECTED).next()
    plain = run.run_pass(CLI, argvs, EXPECTED[workload])
    with Tracer() as tracer:
        spans = run.run_pass(CLI, argvs, EXPECTED[workload], tracer)
    assert plain.failed == spans.failed == 0
    assert spans.digests == plain.digests
    assert len(tracer.requests) == len(argvs)
    assert tracer.totals()["cli.main"]["calls"] == len(argvs)


def test_point_stream_is_a_function_of_its_seed():
    def passes(seed, n=3):
        p = workloads.Passes("point-queries", seed, EXPECTED)
        return [p.next() for _ in range(n)]

    first = passes(11)
    assert passes(11) == first
    assert passes(12) != first
    pool = EXPECTED["point-queries"]
    for argvs in first:
        assert len(argvs) >= 48
        assert all(workloads.key(a) in pool for a in argvs)
    default = passes(workloads.DEFAULT_SEED, 1)[0]
    assert (workloads.stream_digest([pool[workloads.key(a)] for a in default])
            == EXPECTED["streams"][str(workloads.DEFAULT_SEED)])


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
