"""W^I enumerated without W (quotient.py), against the route through W."""

import itertools

import pytest

from heckekit import CoxeterMatrix, GroupTooLarge, HeckeAlgebra, build, quotient, verify


def _all_subsets(rank):
    return itertools.chain.from_iterable(
        itertools.combinations(range(rank), k) for k in range(rank + 1)
    )


@pytest.mark.parametrize("text, realizable", [
    ("A3", True), ("B3", True), ("D4", True), ("F4", True), ("E8", True),
    ("A1xA2", True), ("G2xA1", True), ("A1xA1xA1", True), ("A12", True),
    # rank 2 is dihedral, and a label outside {2, 3, 4, 6} has no Cartan pair
    ("A2", False), ("G2", False), ("A1xA1", False), ("I2(5)xA1", False), ("H3", False),
    # affine and hyperbolic: a 3-cycle, the chains 4-3-4 and 6-3-3
    ("3 3 3 3", False), ("3 6 6 6", False), ("4 4 2 2 3 2 4", False),
    ("4 6 2 2 3 2 3", False), ("4 3 2 3 3 2 3", False),
    # B5 and F4 as matrix text
    ("5 3 2 2 2 3 2 2 3 2 4", True), ("4 3 2 2 4 2 3", True),
])
def test_realizable_is_the_finite_cartan_test(text, realizable):
    read = CoxeterMatrix.from_text if text[0].isdigit() else CoxeterMatrix.from_name
    assert quotient.realizable(read(text)) is realizable


def test_build_rejects_what_it_cannot_key():
    a3 = CoxeterMatrix.from_name("A3")
    for matrix, subset in ((a3, []), (a3, [3]), (CoxeterMatrix.from_name("A2"), [0]),
                           (CoxeterMatrix.from_text("3 3 3 3"), [0])):
        with pytest.raises(ValueError):
            quotient.build(matrix, subset)
    with pytest.raises(ValueError, match="^cap must be positive$"):
        quotient.build(a3, [0], cap=0)
    # the cap bounds the cosets: 56 of E7 / E6
    e7 = CoxeterMatrix.from_name("E7")
    assert quotient.build(e7, range(6), cap=56).size == 56
    with pytest.raises(GroupTooLarge, match="^more than 55 elements; the group is "
                                            "infinite or the cap is too small$"):
        quotient.build(e7, range(6), cap=55)


@pytest.mark.parametrize("name", ["A3", "B3", "A1xA2"])
def test_quotient_words_read_on_w_itself(sys_of, name):
    # every word of up to four letters, reduced or not, on every non-empty
    # subset: the same rep, or the same error naming the same canonical word
    W = sys_of(name)
    words = [w for k in range(5) for w in itertools.product(W.gens(), repeat=k)]
    for size in range(1, W.rank + 1):
        for subset in itertools.combinations(W.gens(), size):
            S = quotient.build(W.matrix, subset)
            index = {r: i for i, r in enumerate(W.min_reps(subset))}
            for word in words:
                text = ".".join(map(W.gen_label, word)) or "e"
                try:
                    expected = index[W.parse_min_rep(text, subset)]
                except ValueError as exc:
                    expected = str(exc)
                try:
                    got = S.parse_min_rep(text, subset)
                except ValueError as exc:
                    got = str(exc)
                assert got == expected, (subset, text)


def test_quotient_checks_the_cap_of_w():
    # |W| = |W^I| |W_I| against the cap, as `build` would find it
    for name, subset, size in (("A3", [0], 24), ("B3", [1, 2], 48), ("D4", [0, 1, 3], 192)):
        matrix = CoxeterMatrix.from_name(name)
        S = quotient.build(matrix, subset)
        S.check_group(size)
        for cap in (size - 1, S.size - 1, 1):
            with pytest.raises(GroupTooLarge) as err:
                S.check_group(cap)
            with pytest.raises(GroupTooLarge) as full:
                build(matrix, cap)
            assert str(err.value) == str(full.value)


QUOTIENT_TYPES = ["A3", "B3", "D4", "A4", "B4", "F4", "A1xA2", "A2xA2"]


def _quotient_pairs(alg_of, name):
    """(I, M, Q) for every non-empty subset I: the module M over W and the
    module Q over `quotient.build`, W^I enumerated without W."""
    H = alg_of(name)
    W = H.system
    for subset in _all_subsets(W.rank):
        if subset:
            yield subset, H.parabolic(subset), HeckeAlgebra(
                quotient.build(W.matrix, subset)).parabolic(subset)


@pytest.mark.parametrize("name", QUOTIENT_TYPES)
def test_quotient_module_is_the_module_over_w(alg_of, name):
    # index i of the quotient is the i-th rep of W^I, so every table is
    # the full route's mapped through that order-preserving bijection
    for subset, M, Q in _quotient_pairs(alg_of, name):
        W, S = M.system, Q.system
        reps = M.reps
        idx = {r: i for i, r in enumerate(reps)}.__getitem__
        assert Q.reps == tuple(range(len(reps))), subset
        assert S.lengths == tuple(W.lengths[r] for r in reps)
        assert [S.word_str(x) for x in Q.reps] == [W.word_str(r) for r in reps]
        assert S.first == tuple(W.first[r] for r in reps)
        assert Q.shift == M.shift
        assert [Q._left[x] for x in Q.reps] == [tuple(map(idx, M._left[r])) for r in reps]
        assert Q._opposite == {idx(r): idx(o) for r, o in M._opposite.items()}
        maps = W.graph_automorphisms(subset)
        assert len(S.graph_automorphisms(subset)) == len(maps)
        for phi, psi in zip(maps, S.graph_automorphisms(subset)):
            assert psi == tuple(idx(phi[r]) for r in reps)
        for x, r in enumerate(reps):
            for mine, theirs in ((Q._pkl[x], M._pkl[r]), (Q._nkl[x], M._nkl[r]),
                                 (Q.inverse_col(x), M.inverse_col(r))):
                assert mine == {idx(y): p for y, p in theirs.items()}, (subset, r)


# F4 is left out for time: its inversion sums over W^I of s1 alone take
# seconds, and the test above matches every F4 table with the full route's
@pytest.mark.parametrize("name", [t for t in QUOTIENT_TYPES if t != "F4"])
def test_verify_checks_pass_on_quotient_modules(alg_of, name):
    checks = (verify.check_inversion, verify.check_positivity,
              verify.check_parity, verify.check_degree_one)
    results = [verify.SuiteResult(check.__name__) for check in checks]
    for subset, _, Q in _quotient_pairs(alg_of, name):
        for check, res in zip(checks, results):
            check(res, Q, str(subset))
    for res in results:
        assert res.checks and res.passed, (res.name, res.first_failure)


def test_quotient_system_serves_its_subset_alone():
    S = quotient.build(CoxeterMatrix.from_name("A3"), [0])
    assert S.min_reps([0]) == tuple(range(12)) and S.is_min_coset_rep(5, [0])
    M = HeckeAlgebra(S).parabolic([0])
    for call in (lambda: S.min_reps([1]), lambda: HeckeAlgebra(S).parabolic([]),
                 lambda: S.longest_in([0]), lambda: M.w_long,
                 lambda: M.embed(M.delta(0)), lambda: M.extract(M.algebra.unit())):
        with pytest.raises(ValueError):
            call()
