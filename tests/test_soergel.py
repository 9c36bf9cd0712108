import itertools
import random

import pytest

from heckekit import (
    Character,
    bott_samelson_char,
    delta_char,
    graded_hom_rank,
    is_perverse,
    kl_decompose,
    support_graded_ranks,
)
from heckekit.laurent import LaurentPoly, ONE, V, V_INV, ZERO, div_exact, vpow

from oracles import decompose_in_kl_basis, trace_pairing

CROSS_ROUTE_TYPES = ["A1xA1", "A2", "B2", "A3", "B3", "I2(5)", "I2(7)"]


def _all_subsets(rank):
    return itertools.chain.from_iterable(
        itertools.combinations(range(rank), k) for k in range(rank + 1)
    )


# -- kl_decompose -----------------------------------------------------------------


def test_decompose_pkl_is_delta(alg_of):
    H = alg_of("A3")
    M = H.parabolic([0, 1])
    for x in M.reps:
        d = kl_decompose(M.kl_basis(x))
        assert d.coeffs == {x: ONE}


def test_decompose_standard_basis_unitriangular(alg_of):
    H = alg_of("B3")
    M = H.parabolic([0, 2])
    for x in M.reps:
        d = kl_decompose(M.delta(x))
        assert d.coeff(x) == ONE
        for y in d.support():
            assert H.system.bruhat_leq(y, x)


def test_decompose_matches_oracle(alg_of):
    H = alg_of("A3")
    rng = random.Random(5)
    for subset in ([], [0, 1]):
        M = H.parabolic(subset)
        for _ in range(8):
            terms = {
                rng.choice(M.reps): LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
                for _ in range(3)
            }
            p = M.elt(terms)
            assert kl_decompose(p).coeffs == decompose_in_kl_basis(M, p.terms)


def test_decompose_roundtrip(alg_of):
    H = alg_of("A3")
    M = H.parabolic([1, 2])
    rng = random.Random(6)
    for _ in range(8):
        terms = {
            rng.choice(M.reps): LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
            for _ in range(3)
        }
        p = M.elt(terms)
        assert kl_decompose(p).to_parabolic() == p


# -- Bott-Samelson characters -------------------------------------------------------


def test_bs_empty_word(alg_of):
    H = alg_of("A3")
    M = H.parabolic([0, 1])
    c = bott_samelson_char(M, ())
    assert c.coeffs == {0: ONE}


def test_bs_single_generator(alg_of):
    H = alg_of("A2")
    M = H.parabolic([])
    c = bott_samelson_char(M, (0,))
    s = H.system.element_from_word([0])
    assert c.coeffs == {s: ONE}


def test_bs_worked_example_a3(alg_of):
    # KL_s KL_t KL_u KL_{w_I} over I = {s, t} decomposes with a
    # non-constant coefficient at the identity: not perverse
    H = alg_of("A3")
    W = H.system
    M = H.parabolic([0, 1])
    c = bott_samelson_char(M, (0, 1, 2))
    stu = W.element_from_word([0, 1, 2])
    u = W.element_from_word([2])
    assert c.coeffs == {stu: ONE, u: ONE, 0: V + V_INV}
    assert not is_perverse(c)


def test_bs_equals_direct_product_route(alg_of):
    H = alg_of("A3")
    M = H.parabolic([0, 1])
    h = H.mult(
        H.mult(H.kl_basis(H.system.element_from_word([0])),
               H.kl_basis(H.system.element_from_word([1]))),
        H.mult(H.kl_basis(H.system.element_from_word([2])), M.ideal_gen),
    )
    assert bott_samelson_char(M, (0, 1, 2)) == kl_decompose(M.extract(h))


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_bs_positivity_random_words(alg_of, name):
    H = alg_of(name)
    rng = random.Random(11)
    for subset in _all_subsets(H.system.rank):
        M = H.parabolic(subset)
        for _ in range(10):
            word = [rng.randrange(H.system.rank) for _ in range(rng.randrange(0, 7))]
            c = bott_samelson_char(M, word)
            assert all(p.is_nonneg() for p in c.coeffs.values()), (subset, word)


# -- graded Hom ranks ------------------------------------------------------------------


def test_hom_rank_bs_self(alg_of):
    H = alg_of("A2")
    M = H.parabolic([])
    s = H.system.element_from_word([0])
    assert graded_hom_rank(delta_char(M, s), delta_char(M, s)) == ONE + vpow(2)


def test_hom_rank_diagonal_constant_one(alg_of):
    H = alg_of("A3")
    for subset in ([], [0], [0, 1], [0, 1, 2]):
        M = H.parabolic(subset)
        for x in M.reps:
            r = graded_hom_rank(delta_char(M, x), delta_char(M, x))
            assert r.coeff(0) == 1
            assert r.min_degree() == 0


def test_hom_rank_off_diagonal_vanishing(alg_of):
    H = alg_of("B2")
    for subset in _all_subsets(2):
        M = H.parabolic(subset)
        for x in M.reps:
            for y in M.reps:
                r = graded_hom_rank(delta_char(M, x), delta_char(M, y))
                md = r.min_degree()
                assert md is None or md >= 0
                assert r.coeff(0) == (1 if x == y else 0)


def _random_poly(rng):
    return LaurentPoly({rng.randint(-2, 2): rng.choice([-2, -1, 1, 2, 3])
                        for _ in range(rng.randint(1, 3))})


def _random_char(M, rng):
    return Character(M, {rng.choice(M.reps): _random_poly(rng)
                         for _ in range(rng.randint(1, 3))})


def test_hom_rank_matches_direct_composition(alg_of):
    # the route through H: embed both characters, bar the second, take
    # the multiplied-out trace pairing and divide by the Poincare polynomial
    rng = random.Random(12)
    for name in CROSS_ROUTE_TYPES:
        H = alg_of(name)
        for subset in _all_subsets(H.system.rank):
            M = H.parabolic(subset)
            pairs = [(_random_char(M, rng), _random_char(M, rng)) for _ in range(4)]
            pairs.append((delta_char(M, rng.choice(M.reps)),
                          delta_char(M, rng.choice(M.reps))))
            for c1, c2 in pairs:
                h1 = M.embed(c1.to_parabolic())
                h2 = H.bar(M.embed(c2.to_parabolic()))
                direct = div_exact(trace_pairing(H, h1, h2), M.poincare())
                assert graded_hom_rank(c1, c2) == direct, (name, subset, c1, c2)


def test_hom_rank_diagonal_shape_empty_subset(alg_of):
    # Recorded observations, not theorems we rely on: over the trivial
    # subset every diagonal rank lies in Z>=0[v^2] with constant term 1.
    # Palindromic bar-symmetry (r = v^(min+max) * bar(r)) holds throughout
    # A3 but fails in B3, so it is documented here rather than assumed.
    H = alg_of("A3")
    M = H.parabolic([])
    for x in M.reps:
        r = graded_hom_rank(delta_char(M, x), delta_char(M, x))
        assert r.coeff(0) == 1
        assert r.is_nonneg()
        assert all(e >= 0 and e % 2 == 0 for e, _ in r.items())
        assert r == vpow(r.min_degree() + r.max_degree()) * r.bar()

    H3 = alg_of("B3")
    M3 = H3.parabolic([])
    skew = H3.system.parse_element("s1.s2.s3.s2.s1.s3")
    r = graded_hom_rank(delta_char(M3, skew), delta_char(M3, skew))
    assert r != vpow(r.min_degree() + r.max_degree()) * r.bar()


def test_hom_rank_rejects_mixed_modules(alg_of):
    H = alg_of("A3")
    M1, M2 = H.parabolic([0]), H.parabolic([1])
    with pytest.raises(ValueError):
        graded_hom_rank(delta_char(M1, 0), delta_char(M2, 0))


# -- support graded ranks ------------------------------------------------------------------


def test_support_rank_of_pkl_at_apex(alg_of):
    H = alg_of("B3")
    for subset in ([], [0], [0, 1]):
        M = H.parabolic(subset)
        for x in M.reps:
            ranks = support_graded_ranks(M.kl_basis(x))
            assert ranks[x] == vpow(H.system.length(x))


def test_support_rank_below_apex_degree_bound(alg_of):
    H = alg_of("A3")
    M = H.parabolic([0, 1])
    W = H.system
    for x in M.reps:
        for y, rank in support_graded_ranks(M.kl_basis(x)).items():
            if y != x:
                assert rank.min_degree() < W.length(y)


def test_support_rank_standard_basis(alg_of):
    H = alg_of("A3")
    M = H.parabolic([0, 1])
    for x in M.reps:
        ranks = support_graded_ranks(M.delta(x))
        assert ranks == {x: vpow(H.system.length(x))}


def test_support_rank_encodes_pkl(alg_of):
    # rank at y of PKL_x is bar(h^I_{y,x}) * v^l(y)
    H = alg_of("A3")
    M = H.parabolic([2])
    W = H.system
    for x in M.reps:
        ranks = support_graded_ranks(M.kl_basis(x))
        for y, rank in ranks.items():
            assert rank == M.kl_basis(x).coeff(y).bar() * vpow(W.length(y))


# -- perversity ------------------------------------------------------------------------------


def test_delta_is_perverse(alg_of):
    H = alg_of("A3")
    M = H.parabolic([0, 1])
    for x in M.reps:
        assert is_perverse(delta_char(M, x))


def test_shifted_delta_not_perverse(alg_of):
    H = alg_of("A3")
    M = H.parabolic([0, 1])
    assert not is_perverse(Character(M, {0: V}))
    assert not is_perverse(Character(M, {0: LaurentPoly.const(-1)}))


def test_descent_product_not_perverse(alg_of):
    # KL_s acting on a rep whose coset top has s as a left descent gives
    # the (v + v^-1)-multiple, hence a non-perverse character
    H = alg_of("A3")
    W = H.system
    M = H.parabolic([0, 1])
    found = 0
    for x in M.reps:
        xw = W.mult(x, M.w_long)
        for s in range(W.rank):
            if W.length(W.mult_gen(xw, s, "left")) < W.length(xw):
                c = kl_decompose(M.extract(H.kl_gen_mult(s, M.embed(M.kl_basis(x)))))
                assert c.coeffs == {x: V + V_INV}
                assert not is_perverse(c)
                found += 1
    assert found > 0
