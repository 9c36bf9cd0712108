import pytest

from heckekit import HeckeAlgebra, build_named, hecke, run_suites, verify
from heckekit.laurent import ONE, V, LaurentPoly, lincomb, pack_shifted, unpack
from heckekit.verify import SUITES, SuiteResult

from conftest import corrupt_entry


def test_all_suites_pass_a2():
    H = HeckeAlgebra(build_named("A2"))
    results = run_suites(H, bs_words=10)
    assert [r.name for r in results] == list(SUITES)
    for r in results:
        assert r.passed, (r.name, r.first_failure)
        assert r.checks > 0


def test_all_suites_pass_b3():
    H = HeckeAlgebra(build_named("B3"))
    for r in run_suites(H, bs_words=8):
        assert r.passed, (r.name, r.first_failure)


def test_suite_selection():
    H = HeckeAlgebra(build_named("A1"))
    results = run_suites(H, ["pairing", "inversion"])
    assert [r.name for r in results] == ["pairing", "inversion"]


def test_unknown_suite_rejected():
    H = HeckeAlgebra(build_named("A1"))
    with pytest.raises(ValueError):
        run_suites(H, ["nonsense"])


def test_empty_suite_selection_rejected():
    H = HeckeAlgebra(build_named("A1"))
    with pytest.raises(ValueError, match="no suite selected"):
        run_suites(H, [])


def test_suite_selection_from_an_iterator():
    # the unknown-name scan once used up an iterator, so nothing ran
    H = HeckeAlgebra(build_named("A1"))
    assert [r.name for r in run_suites(H, iter(["pairing"]))] == ["pairing"]


def test_suite_result_add_counts_a_unit_at_once():
    described = []

    def describe(item):
        described.append(item)
        return f"fails at {item}"

    res = SuiteResult("unit")
    res.add(5, [], describe)
    assert (res.checks, res.failures, res.first_failure) == (5, 0, None)
    res.add(4, ["a", "b"], describe)
    assert (res.checks, res.failures, res.first_failure) == (9, 2, "fails at a")
    assert described == ["a"]


def _corrupt_top_kl(H, y):
    corrupt_entry(H._kl, H.system.longest, y, lambda p: p + LaurentPoly({3: 1}))


def test_corrupted_kl_cache_fails_inversion():
    # fault injection: warm every table cleanly, then corrupt one cached
    # KL element of H; re-verification reads the corrupted coefficient
    # and must report a counterexample rather than pass.  For I = {} the
    # table of H is also the one store of g (g_{x,z} = h_{w0 z, w0 x}),
    # so the fault enters both factors of the inversion sums.
    H = HeckeAlgebra(build_named("A2"))
    clean = run_suites(H, ["inversion"])
    assert clean[0].passed
    _corrupt_top_kl(H, H.system.parse_element("s1"))
    results = run_suites(H, ["inversion"])
    assert not results[0].passed
    assert results[0].first_failure is not None

    # the corner: h_{e,w0} is also g_{e,w0} and enters the one inversion
    # sum that holds it, x = e and z = w0, twice with opposite signs, as
    # l(w0) is odd; inversion misses this fault on A2 and B3 whether it
    # is made before or after a warm run, so bar-invariance must catch it
    H = HeckeAlgebra(build_named("A2"))
    assert all(r.passed for r in run_suites(H, ["inversion", "bar-invariance"]))
    _corrupt_top_kl(H, 0)
    results = run_suites(H, ["inversion", "bar-invariance"])
    assert not all(r.passed for r in results)


def test_corrupted_kl_cache_fails_bar_invariance():
    H = HeckeAlgebra(build_named("A2"))
    corrupt_entry(H._kl, H.system.longest, 0, lambda p: p + LaurentPoly({2: 1}))

    results = run_suites(H, ["bar-invariance"])
    assert not results[0].passed


def test_q_monotonicity_rejects_a_projection_out_of_range():
    # a negative projection would index the comparability table from its end
    H = HeckeAlgebra(build_named("A3"))
    sys = H.system
    sys._coset_reps([0])[sys.longest] = -1
    with pytest.raises(ValueError, match="element index -1 out of range"):
        run_suites(H, ["q-monotonicity"])


# Pinned fault injection.  Each case warms every table with a clean run,
# corrupts one cached entry and re-runs the suites over the corrupted
# cache; the check count, the failure count and every failure message,
# in order, of every suite must stay as recorded, so a rewrite of a
# suite keeps its check order and the text of its first counterexample.

FAULT_SITES = {
    # type: (subset, x, z of the corrupted g_{x,z}, top rep of the
    #        corrupted PKL, mid element and y of the corrupted h_{y,mid})
    "A3": ([0], "s2", "s1.s2.s3.s2", "s1.s2.s1.s3.s2", "s2.s1.s3", "s1"),
    "B3": ([1, 2], "s1", "s2.s1", "s1.s2.s3.s2.s1", "s1.s2.s1.s3.s2", "s1"),
}


def _faulted(name, suites, corrupt):
    """(checks, failures, every failure message in order) of each suite
    over the corrupted cache; the first message is the first_failure."""
    H = HeckeAlgebra(build_named(name))
    assert all(r.passed for r in run_suites(H, suites))
    corrupt(H, *FAULT_SITES[name])
    messages = []
    check = SuiteResult.check

    def recording(res, ok, describe):
        if not ok:
            messages.append(describe())
        check(res, ok, describe)

    SuiteResult.check = recording
    try:
        results = run_suites(H, suites)
    finally:
        SuiteResult.check = check
    out = []
    for r in results:
        mine, messages[:r.failures] = messages[:r.failures], []
        assert r.first_failure == (mine[0] if mine else None)
        out.append((r.checks, r.failures, mine))
    return out


def _corrupt_inverse_row(H, subset, x, z, *_, delta=LaurentPoly({1: -2, 2: 1})):
    # g_{x,z} is the w0 z w_I entry of the KL element of w0 x w_I in N;
    # every column of N is filled first, so no recursion reads the fault
    # (for I = {} N's table is H's, and the fault would change h too)
    sys, mod = H.system, H.parabolic(subset)
    x, z = sys.parse_element(x), sys.parse_element(z)
    for r in mod.reps:
        mod._nkl[r]
    corrupt_entry(mod._nkl, mod._opposite[x], mod._opposite[z], lambda g: g + delta)


def _unpackable_inverse(H, subset, x, z, *_):
    # v^-1 in an entry of g, which then does not pack
    _corrupt_inverse_row(H, subset, x, z, delta=LaurentPoly({-1: 1}))


def _corrupt_inverse_row_pair(H, subset, *_):
    # two faults in the row of e, whose keys come as s2.s3.s2 before s2
    for z in ("s2.s3.s2", "s2"):
        _corrupt_inverse_row(H, subset, "e", z)


def _corrupt_pkl(H, subset, x, _z, top, *_):
    sys, mod = H.system, H.parabolic(subset)
    x, top = sys.parse_element(x), sys.parse_element(top)
    corrupt_entry(mod._pkl, top, x, lambda p: p + LaurentPoly({1: 1}))


def _drop_pkl_diagonal(H, subset, _x, _z, top, *_):
    sys, mod = H.system, H.parabolic(subset)
    top = sys.parse_element(top)
    corrupt_entry(mod._pkl, top, top, lambda p: None)


def _corrupt_kl(H, _subset, _x, _z, _top, mid, y):
    sys = H.system
    mid, y = sys.parse_element(mid), sys.parse_element(y)
    corrupt_entry(H._kl, mid, y, lambda p: p + LaurentPoly({-1: 1}))


def _unpackable_pkl(H, subset, x, _z, top, *_):
    # v^-1 in an entry of M, which then does not pack
    sys, mod = H.system, H.parabolic(subset)
    x, top = sys.parse_element(x), sys.parse_element(top)
    corrupt_entry(mod._pkl, top, x, lambda p: p + LaurentPoly({-1: 1}))


def _oversized_kl(H, _subset, _x, _z, _top, mid, y):
    # the top coefficient of h_{y,mid} set to 2^63, which needs 65 bits
    sys = H.system
    mid, y = sys.parse_element(mid), sys.parse_element(y)

    def oversized(p):
        coeffs = dict(p.items())
        coeffs[max(coeffs)] = 1 << 63
        return LaurentPoly(coeffs)

    corrupt_entry(H._kl, mid, y, oversized)


def _corrupt_coset_rep(H, subset, x, _z, top, *_):
    # the coset table sends top to x, so project_q(top, subset) = x
    sys = H.system
    x, top = sys.parse_element(x), sys.parse_element(top)
    sys._coset_reps(subset)[top] = x


def _corrupt_inverse(H, _subset, x, z, *_):
    # x^-1 is read as z^-1, so the products of row x start at H_{z^-1}
    sys = H.system
    x, z = sys.parse_element(x), sys.parse_element(z)
    inv = list(sys._inv)
    inv[x] = inv[z]
    sys._inv = inv


def _corrupt_pairing(H, _subset, x, z, *_):
    # (H_x, H_z) comes out as v
    sys = H.system
    x, z = sys.parse_element(x), sys.parse_element(z)
    pairing = H.pairing

    def corrupted(h1, h2):
        if list(h1.terms) == [x] and list(h2.terms) == [z]:
            return LaurentPoly({1: 1})
        return pairing(h1, h2)

    H.pairing = corrupted


# case: (type, corruption, [(suite, checks, failures, messages)])
PINNED_FAULTS = {
    "A3-inverse-row": ("A3", _corrupt_inverse_row, [
        ("inversion", 2154, 4, [
            "I={s1} inversion fails at x=s2, z=s1.s2.s3.s2",
            "I={s1} inversion fails at x=s2, z=s1.s2.s1.s3.s2",
            "I={s1} transposed inversion fails at x=s1.s2.s3.s2, z=e",
            "I={s1} transposed inversion fails at x=s1.s2.s3.s2, z=s2",
        ]),
        ("positivity", 1077, 1, [
            "I={s1} g[s2, s1.s2.s3.s2] = -2*v^1 + 1*v^2 + 1*v^3 has a negative coefficient",
        ]),
        ("parity", 1077, 1, [
            "I={s1} parity fails for g[s2, s1.s2.s3.s2]",
        ]),
        ("degree-one", 373, 1, [
            "I={s1} degree-one mismatch at z=s2, x=s1.s2.s3.s2",
        ]),
    ]),
    "A3-inverse-row-pair": ("A3", _corrupt_inverse_row_pair, [
        ("positivity", 1077, 2, [
            "I={s1} g[e, s2] = -1*v^1 + 1*v^2 has a negative coefficient",
            "I={s1} g[e, s2.s3.s2] = -2*v^1 + 1*v^2 + 1*v^3 has a negative coefficient",
        ]),
        ("parity", 1077, 2, [
            "I={s1} parity fails for g[e, s2]",
            "I={s1} parity fails for g[e, s2.s3.s2]",
        ]),
    ]),
    "A3-unpackable-inverse": ("A3", _unpackable_inverse, [
        ("inversion", 2154, 4, [
            "I={s1} inversion fails at x=s2, z=s1.s2.s3.s2",
            "I={s1} inversion fails at x=s2, z=s1.s2.s1.s3.s2",
            "I={s1} transposed inversion fails at x=s1.s2.s3.s2, z=e",
            "I={s1} transposed inversion fails at x=s1.s2.s3.s2, z=s2",
        ]),
        ("positivity", 1077, 0, []),
        ("parity", 1077, 0, []),
    ]),
    "A3-pkl": ("A3", _corrupt_pkl, [
        ("inversion", 2154, 3, [
            "I={s1} inversion fails at x=e, z=s1.s2.s1.s3.s2",
            "I={s1} inversion fails at x=s2, z=s1.s2.s1.s3.s2",
            "I={s1} transposed inversion fails at x=s1.s2.s1.s3.s2, z=s2",
        ]),
        ("degree-one", 373, 1, [
            "I={s1} degree-one mismatch at z=s2, x=s1.s2.s1.s3.s2",
        ]),
    ]),
    "A3-euler-hom": ("A3", _corrupt_pkl, [
        ("euler-hom", 1152, 4, [
            "I={s1} euler_hom fails at x=s2, y=s1.s2.s1.s3.s2",
            "I={s1} shape character of s1.s2.s1.s3.s2 is not the standard basis element",
            "I={s1} euler_hom fails at x=s1.s2.s1.s3.s2, y=s2",
            "I={s1} euler_hom fails at x=s1.s2.s1.s3.s2, y=s1.s2.s1.s3.s2",
        ]),
    ]),
    "A3-bar": ("A3", _corrupt_kl, [
        ("bar-invariance", 237, 2, [
            "KL[s2.s1.s3] is not bar-invariant",
            "h[s1, s2.s1.s3] has a nonpositive exponent",
        ]),
    ]),
    "B3-inverse-row": ("B3", _corrupt_inverse_row, [
        ("inversion", 8554, 6, [
            "I={s2, s3} inversion fails at x=s1, z=s2.s1",
            "I={s2, s3} inversion fails at x=s1, z=s3.s2.s1",
            "I={s2, s3} inversion fails at x=s1, z=s2.s3.s2.s1",
            "I={s2, s3} inversion fails at x=s1, z=s1.s2.s3.s2.s1",
            "I={s2, s3} transposed inversion fails at x=s2.s1, z=e",
            "I={s2, s3} transposed inversion fails at x=s2.s1, z=s1",
        ]),
        ("positivity", 4277, 1, [
            "I={s2, s3} g[s1, s2.s1] = -1*v^1 + 1*v^2 has a negative coefficient",
        ]),
        ("parity", 4277, 1, [
            "I={s2, s3} parity fails for g[s1, s2.s1]",
        ]),
        ("degree-one", 1561, 1, [
            "I={s2, s3} degree-one mismatch at z=s1, x=s2.s1",
        ]),
    ]),
    "B3-pkl": ("B3", _corrupt_pkl, [
        ("inversion", 8554, 3, [
            "I={s2, s3} inversion fails at x=e, z=s1.s2.s3.s2.s1",
            "I={s2, s3} inversion fails at x=s1, z=s1.s2.s3.s2.s1",
            "I={s2, s3} transposed inversion fails at x=s1.s2.s3.s2.s1, z=s1",
        ]),
        ("degree-one", 1561, 1, [
            "I={s2, s3} degree-one mismatch at z=s1, x=s1.s2.s3.s2.s1",
        ]),
    ]),
    "B3-euler-hom": ("B3", _corrupt_pkl, [
        ("euler-hom", 4424, 4, [
            "I={s2, s3} euler_hom fails at x=s1, y=s1.s2.s3.s2.s1",
            "I={s2, s3} shape character of s1.s2.s3.s2.s1 is not the standard basis element",
            "I={s2, s3} euler_hom fails at x=s1.s2.s3.s2.s1, y=s1",
            "I={s2, s3} euler_hom fails at x=s1.s2.s3.s2.s1, y=s1.s2.s3.s2.s1",
        ]),
    ]),
    "B3-bar": ("B3", _corrupt_kl, [
        ("bar-invariance", 895, 2, [
            "KL[s1.s2.s1.s3.s2] is not bar-invariant",
            "h[s1, s1.s2.s1.s3.s2] has a nonpositive exponent",
        ]),
    ]),
    "A3-pkl-diagonal": ("A3", _drop_pkl_diagonal, [
        ("inversion", 2154, 8, [
            "I={s1} inversion fails at x=s3, z=s1.s2.s1.s3.s2",
            "I={s1} inversion fails at x=s3.s2, z=s1.s2.s1.s3.s2",
            "I={s1} inversion fails at x=s1.s3.s2, z=s1.s2.s1.s3.s2",
            "I={s1} inversion fails at x=s2.s3.s2, z=s1.s2.s1.s3.s2",
            "I={s1} inversion fails at x=s1.s2.s3.s2, z=s1.s2.s1.s3.s2",
            "I={s1} inversion fails at x=s2.s1.s3.s2, z=s1.s2.s1.s3.s2",
            "I={s1} inversion fails at x=s1.s2.s1.s3.s2, z=s1.s2.s1.s3.s2",
            "I={s1} transposed inversion fails at x=s1.s2.s1.s3.s2, z=s1.s2.s1.s3.s2",
        ]),
    ]),
    "B3-pkl-diagonal": ("B3", _drop_pkl_diagonal, [
        ("inversion", 8554, 3, [
            "I={s2, s3} inversion fails at x=s2.s3.s2.s1, z=s1.s2.s3.s2.s1",
            "I={s2, s3} inversion fails at x=s1.s2.s3.s2.s1, z=s1.s2.s3.s2.s1",
            "I={s2, s3} transposed inversion fails at x=s1.s2.s3.s2.s1, z=s1.s2.s3.s2.s1",
        ]),
    ]),
    "A3-q-monotonicity": ("A3", _corrupt_coset_rep, [
        ("q-monotonicity", 1704, 13, [
            "I={s1} projection not monotone at v=s3, w=s1.s2.s1.s3.s2",
            "I={s1} projection not monotone at v=s1.s2, w=s1.s2.s1.s3.s2",
            "I={s1} projection not monotone at v=s1.s3, w=s1.s2.s1.s3.s2",
            "I={s1} projection not monotone at v=s2.s3, w=s1.s2.s1.s3.s2",
            "I={s1} projection not monotone at v=s3.s2, w=s1.s2.s1.s3.s2",
            "I={s1} projection not monotone at v=s1.s2.s1, w=s1.s2.s1.s3.s2",
            "I={s1} projection not monotone at v=s1.s2.s3, w=s1.s2.s1.s3.s2",
            "I={s1} projection not monotone at v=s1.s3.s2, w=s1.s2.s1.s3.s2",
            "I={s1} projection not monotone at v=s2.s1.s3, w=s1.s2.s1.s3.s2",
            "I={s1} projection not monotone at v=s2.s3.s2, w=s1.s2.s1.s3.s2",
            "I={s1} projection not monotone at v=s1.s2.s1.s3, w=s1.s2.s1.s3.s2",
            "I={s1} projection not monotone at v=s1.s2.s3.s2, w=s1.s2.s1.s3.s2",
            "I={s1} projection not monotone at v=s2.s1.s3.s2, w=s1.s2.s1.s3.s2",
        ]),
    ]),
    "A3-pairing": ("A3", _corrupt_inverse, [
        ("pairing", 576, 2, [
            "eps(a(H[s2]) H[s2]) = 0, (H[s2], H[s2]) = 1*v^0",
            "eps(a(H[s2]) H[s1.s2.s3.s2]) = 1*v^0, (H[s2], H[s1.s2.s3.s2]) = 0",
        ]),
    ]),
    "A3-pairing-value": ("A3", _corrupt_pairing, [
        ("pairing", 576, 1, [
            "eps(a(H[s2]) H[s1.s2.s3.s2]) = 0, (H[s2], H[s1.s2.s3.s2]) = 1*v^1",
        ]),
    ]),
    "B3-q-monotonicity": ("B3", _corrupt_coset_rep, [
        ("q-monotonicity", 6776, 7, [
            "I={s2, s3} projection not monotone at v=s2.s1, w=s1.s2.s3.s2.s1",
            "I={s2, s3} projection not monotone at v=s1.s2.s1, w=s1.s2.s3.s2.s1",
            "I={s2, s3} projection not monotone at v=s2.s1.s3, w=s1.s2.s3.s2.s1",
            "I={s2, s3} projection not monotone at v=s3.s2.s1, w=s1.s2.s3.s2.s1",
            "I={s2, s3} projection not monotone at v=s1.s2.s1.s3, w=s1.s2.s3.s2.s1",
            "I={s2, s3} projection not monotone at v=s1.s3.s2.s1, w=s1.s2.s3.s2.s1",
            "I={s2, s3} projection not monotone at v=s2.s3.s2.s1, w=s1.s2.s3.s2.s1",
        ]),
    ]),
    "B3-pairing": ("B3", _corrupt_inverse, [
        ("pairing", 2304, 2, [
            "eps(a(H[s1]) H[s1]) = 0, (H[s1], H[s1]) = 1*v^0",
            "eps(a(H[s1]) H[s2.s1]) = 1*v^0, (H[s1], H[s2.s1]) = 0",
        ]),
    ]),
    "B3-pairing-value": ("B3", _corrupt_pairing, [
        ("pairing", 2304, 1, [
            "eps(a(H[s1]) H[s2.s1]) = 0, (H[s1], H[s2.s1]) = 1*v^1",
        ]),
    ]),
    "A3-pkl-unpackable": ("A3", _unpackable_pkl, [
        ("inversion", 2154, 3, [
            "I={s1} inversion fails at x=e, z=s1.s2.s1.s3.s2",
            "I={s1} inversion fails at x=s2, z=s1.s2.s1.s3.s2",
            "I={s1} transposed inversion fails at x=s1.s2.s1.s3.s2, z=s2",
        ]),
    ]),
    "B3-pkl-unpackable": ("B3", _unpackable_pkl, [
        ("inversion", 8554, 3, [
            "I={s2, s3} inversion fails at x=e, z=s1.s2.s3.s2.s1",
            "I={s2, s3} inversion fails at x=s1, z=s1.s2.s3.s2.s1",
            "I={s2, s3} transposed inversion fails at x=s1.s2.s3.s2.s1, z=s1",
        ]),
    ]),
    # the packed shape sums meet an entry of M that is not interned and
    # sum through from_kl; recorded with the one-pair-per-term route
    "A3-euler-hom-unpackable": ("A3", _unpackable_pkl, [
        ("euler-hom", 1152, 4, [
            "I={s1} euler_hom fails at x=s2, y=s1.s2.s1.s3.s2",
            "I={s1} shape character of s1.s2.s1.s3.s2 is not the standard basis element",
            "I={s1} euler_hom fails at x=s1.s2.s1.s3.s2, y=s2",
            "I={s1} euler_hom fails at x=s1.s2.s1.s3.s2, y=s1.s2.s1.s3.s2",
        ]),
    ]),
    "B3-euler-hom-unpackable": ("B3", _unpackable_pkl, [
        ("euler-hom", 4424, 4, [
            "I={s2, s3} euler_hom fails at x=s1, y=s1.s2.s3.s2.s1",
            "I={s2, s3} shape character of s1.s2.s3.s2.s1 is not the standard basis element",
            "I={s2, s3} euler_hom fails at x=s1.s2.s3.s2.s1, y=s1",
            "I={s2, s3} euler_hom fails at x=s1.s2.s3.s2.s1, y=s1.s2.s3.s2.s1",
        ]),
    ]),
    "A3-bar-oversized": ("A3", _oversized_kl, [
        ("bar-invariance", 237, 1, [
            "KL[s2.s1.s3] is not bar-invariant",
        ]),
    ]),
    "B3-bar-oversized": ("B3", _oversized_kl, [
        ("bar-invariance", 895, 1, [
            "KL[s1.s2.s1.s3.s2] is not bar-invariant",
        ]),
    ]),
}


@pytest.mark.parametrize("case", sorted(PINNED_FAULTS))
def test_pinned_fault(case):
    name, corrupt, expected = PINNED_FAULTS[case]
    suites = [suite for suite, *_ in expected]
    assert _faulted(name, suites, corrupt) == [tuple(rest) for _, *rest in expected]


@pytest.mark.parametrize("case", [c for c in sorted(PINNED_FAULTS) if "pairing" in c])
def test_pinned_pairing_faults_on_the_exact_walk(case, monkeypatch, step_routes):
    # the walk that steps _gen_terms finds the same faults, with the same
    # messages, as the packed walk
    monkeypatch.setattr(verify, "_fits_steps", lambda bound, steps: False)
    name, corrupt, expected = PINNED_FAULTS[case]
    assert _faulted(name, ["pairing"], corrupt) == [tuple(rest) for _, *rest in expected]
    assert step_routes["packed"] == 0 and step_routes["exact"] > 0


@pytest.mark.parametrize("name, packed", [("I2(39)", True), ("I2(40)", False)])
def test_pairing_walk_on_both_sides_of_the_gate(name, packed, step_routes):
    # every walk from H_{x^-1} steps at most l(w0) letters down a branch:
    # packed while 3^l(w0) < 2^63, as in I2(39), and by _gen_terms in I2(40)
    H = HeckeAlgebra(build_named(name))
    n = H.system.size
    [res] = run_suites(H, ["pairing"])
    assert res.passed and res.checks == n * n
    steps = n * (n - 1)
    assert step_routes == ({"packed": steps, "exact": 0} if packed
                           else {"packed": 0, "exact": steps})


# inversion sums the columns of a module as packed ints, or through
# lincomb (once per column of each identity, so twice per rep) when an
# operand does not pack or the longest column breaks the coefficient
# bound; bar-invariance likewise sums every KL element as packed ints,
# or takes each through HeckeAlgebra.bar when an operand of the algebra
# does not pack or the longest sum breaks the bound.

def _count_replays(monkeypatch):
    calls = {"lincomb": 0, "bar": 0}
    bar = HeckeAlgebra.bar

    def counted_lincomb(pairs):
        calls["lincomb"] += 1
        return lincomb(pairs)

    def counted_bar(self, h):
        calls["bar"] += 1
        return bar(self, h)

    monkeypatch.setattr(verify, "lincomb", counted_lincomb)
    monkeypatch.setattr(HeckeAlgebra, "bar", counted_bar)
    return calls


def _unpackable(*args, **kwargs):
    raise ValueError("forced replay")


@pytest.mark.parametrize("force", [
    lambda mp: mp.setattr(verify, "pack_shifted", _unpackable),
    # every unit then breaks the bound: top^2 * terms * (degree + 1) >= 1
    lambda mp: mp.setattr(verify, "PACK_BITS", 1),
], ids=["unpackable", "bound"])
@pytest.mark.parametrize("name", ["A3", "B3", "D4"])
def test_replayed_units_agree_with_packed_units(name, force, monkeypatch):
    suites = ["inversion", "bar-invariance"]
    calls = _count_replays(monkeypatch)
    packed = run_suites(HeckeAlgebra(build_named(name)), suites)
    assert all(r.passed for r in packed)
    assert calls == {"lincomb": 0, "bar": 0}
    force(monkeypatch)
    H = HeckeAlgebra(build_named(name))
    assert run_suites(H, suites) == packed
    units = sum(len(H.parabolic(subset).reps) for subset, _ in verify._subsets(H))
    assert calls == {"lincomb": 2 * units, "bar": H.system.size}


def test_bound_guard_rejects_a_colliding_sum():
    # 1 + 2^32 * 2^32 - v is not 1, but its packed int 1 + 2^64 - 2^64 is
    pk = verify._Packer()
    big = LaurentPoly.const(1 << 32)
    coeffs = {0: ONE, 1: big, 2: -ONE}
    table = {0: {0: pk(ONE)}, 1: {0: pk(big)}, 2: {0: pk(V)}}
    assert sum(pk(c) * table[y][0] for y, c in coeffs.items()) == 1
    polys = {0: {0: ONE}, 1: {0: big}, 2: {0: V}}
    assert lincomb((c, polys[y]) for y, c in coeffs.items()) != {0: ONE}
    assert not pk.exact(3)
    # a sum of small operands stays within the bound
    small = verify._Packer()
    small(ONE)
    assert small.exact(1)


@pytest.mark.parametrize("t, exact", [((1 << 30) + 1, False), (1 << 29, True)])
def test_bound_guard_counts_the_pairs_behind_a_coefficient(t, exact):
    # the v^7 coefficient of a * a adds 8 = degree + 1 products t * t,
    # which leaves the packing range although t * t does not
    pk = verify._Packer()
    a = LaurentPoly({e: t for e in range(8)})
    n = pk(a)
    assert pk.exact(1) == exact
    assert (unpack(n * n) == a * a) == exact


@pytest.mark.parametrize("name", ["B3", "D4"])
def test_bar_invariance_packs_each_operand_once(name, monkeypatch):
    # the bar images v^l(w) bar(H_w) share the memo of the KL operands
    keys = []

    def recorded(p, shift, reverse=False):
        keys.append((p, shift, reverse))
        return pack_shifted(p, shift, reverse)

    monkeypatch.setattr(verify, "pack_shifted", recorded)
    [res] = run_suites(HeckeAlgebra(build_named(name)), ["bar-invariance"])
    assert res.passed, res.first_failure
    assert keys and len(keys) == len(set(keys))


@pytest.mark.parametrize("name", ["B3", "D4"])
def test_bar_invariance_reads_the_packed_bar_basis(name, monkeypatch):
    # the bar basis keeps every value it fills on the packed route packed
    # at l(w), so the suite packs the KL operands alone; after the exact
    # route, which keeps none, it packs the bar values too, alike
    keys = []

    def recorded(p, shift, reverse=False):
        keys.append((p, shift, reverse))
        return pack_shifted(p, shift, reverse)

    def kl_operands(H):
        lengths = H.system.lengths
        return {key for x in range(H.system.size) for w, p in zip(*H._kl[x])
                for key in ((p, lengths[x] - lengths[w], True), (p, lengths[x], False))}

    monkeypatch.setattr(verify, "pack_shifted", recorded)
    H = HeckeAlgebra(build_named(name))
    [res] = run_suites(H, ["bar-invariance"])
    assert res.passed and H._bar_packed
    assert keys and set(keys) <= kl_operands(H)
    keys.clear()
    monkeypatch.setattr(hecke, "_fits_steps", lambda bound, steps: False)
    H = HeckeAlgebra(build_named(name))
    assert run_suites(H, ["bar-invariance"]) == [res]
    assert not H._bar_packed and set(keys) - kl_operands(H)
