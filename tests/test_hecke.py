import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from heckekit import HeckeAlgebra, build_named
from heckekit.laurent import LaurentPoly, ONE, V, V_INV, ZERO, vpow

from oracles import bar_solve_kl, trace_pairing


def _word_elt(alg, *gens):
    return alg.system.element_from_word(gens)


# -- standard basis multiplication -----------------------------------------------


def test_gen_right_quadratic(alg_of):
    H = alg_of("A2")
    s = _word_elt(H, 0)
    assert H.mult_gen_right(H.std(s), 0) == H.elt({0: 1, s: V_INV - V})


def test_gen_right_identity_and_ascent(alg_of):
    H = alg_of("A2")
    assert H.mult_gen_right(H.unit(), 0) == H.std(_word_elt(H, 0))
    st_ = _word_elt(H, 0, 1)
    assert H.mult_gen_right(H.std(_word_elt(H, 0)), 1) == H.std(st_)


def test_mult_unit(alg_of):
    H = alg_of("A2")
    for x in range(H.system.size):
        assert H.mult(H.std(x), H.unit()) == H.std(x)
        assert H.mult(H.unit(), H.std(x)) == H.std(x)


def test_kl_gen_square(alg_of):
    # (H_s + v)^2 = (v + v^-1)(H_s + v), the quadratic relation rewritten
    H = alg_of("A3")
    s = _word_elt(H, 0)
    kls = H.elt({s: 1, 0: V})
    assert H.mult(kls, kls) == (V + V_INV) * kls


def test_mult_associative_spot(alg_of):
    H = alg_of("A3")
    a = H.kl_basis(_word_elt(H, 0))
    b = H.kl_basis(_word_elt(H, 1))
    c = H.kl_basis(_word_elt(H, 2))
    assert H.mult(H.mult(a, b), c) == H.mult(a, H.mult(b, c))


def test_braid_relation(alg_of):
    H = alg_of("A2")
    s, t = H.std(_word_elt(H, 0)), H.std(_word_elt(H, 1))
    assert H.mult(H.mult(s, t), s) == H.mult(H.mult(t, s), t)


# -- bar involution ---------------------------------------------------------------


def test_bar_basics(alg_of):
    H = alg_of("A2")
    assert H.bar(H.unit()) == H.unit()
    s = _word_elt(H, 0)
    assert H.bar(H.std(s)) == H.elt({s: 1, 0: V - V_INV})


def test_bar_fixes_generator_inverse(alg_of):
    # H_s * (H_s + (v - v^-1)) = 1
    H = alg_of("A2")
    s = _word_elt(H, 0)
    inv = H.elt({s: 1, 0: V - V_INV})
    assert H.mult(H.std(s), inv) == H.unit()


def _random_elt(H, rng, nterms=3):
    terms = {}
    for _ in range(nterms):
        w = rng.randrange(H.system.size)
        terms[w] = LaurentPoly(
            {rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(2)}
        )
    return H.elt(terms)


def test_bar_involution_random(alg_of):
    H = alg_of("A2")
    rng = random.Random(7)
    for _ in range(25):
        h = _random_elt(H, rng)
        assert H.bar(H.bar(h)) == h


def test_bar_multiplicative_random(alg_of):
    H = alg_of("A2")
    rng = random.Random(8)
    for _ in range(15):
        h1, h2 = _random_elt(H, rng, 2), _random_elt(H, rng, 2)
        assert H.bar(H.mult(h1, h2)) == H.mult(H.bar(h1), H.bar(h2))


# -- Kazhdan-Lusztig basis -----------------------------------------------------------


def test_kl_identity_and_generator(alg_of):
    H = alg_of("A2")
    assert H.kl_basis(0) == H.unit()
    s = _word_elt(H, 0)
    assert H.kl_basis(s) == H.elt({s: 1, 0: V})


def test_kl_a2_against_bar_solve_oracle(alg_of):
    H = alg_of("A2")
    st_ = _word_elt(H, 0, 1)
    expected = bar_solve_kl(H, st_)
    assert H.kl_basis(st_).terms == expected


@pytest.mark.parametrize("name", ["A2", "A3", "I2(5)"])
def test_kl_against_bar_solve_oracle(alg_of, name):
    H = alg_of(name)
    for x in range(H.system.size):
        assert H.kl_basis(x).terms == bar_solve_kl(H, x)


@pytest.mark.parametrize("name", ["A1", "A1xA1", "A2", "A3", "B2", "B3", "I2(7)"])
def test_kl_bar_invariant_and_degree_bound(alg_of, name):
    H = alg_of(name)
    W = H.system
    for x in range(W.size):
        kl = H.kl_basis(x)
        assert H.bar(kl) == kl
        assert kl.coeff(x) == ONE
        for y, p in kl.terms.items():
            if y != x:
                assert W.bruhat_leq(y, x)
                assert p.min_degree() >= 1
                assert p.is_nonneg()


def test_kl_poly_triangularity(alg_of):
    H = alg_of("A3")
    W = H.system
    for x in range(W.size):
        assert H.kl_poly(x, x) == ONE
        for y in range(W.size):
            if not W.bruhat_leq(y, x):
                assert H.kl_poly(y, x) == ZERO


def test_kl_dihedral_closed_form(alg_of):
    H = alg_of("I2(5)")
    W = H.system
    for x in range(W.size):
        for y in range(W.size):
            if W.bruhat_leq(y, x):
                assert H.kl_poly(y, x) == vpow(W.length(x) - W.length(y))


def test_mu_is_v_coefficient(alg_of):
    H = alg_of("A3")
    W = H.system
    for x in range(W.size):
        for y in range(W.size):
            assert H.mu(y, x) == H.kl_poly(y, x).coeff(1)


def test_kl_descent_absorption(alg_of):
    # KL_s KL_x = (v + v^-1) KL_x when sx < x
    H = alg_of("B3")
    W = H.system
    for x in range(W.size):
        for s in range(W.rank):
            if W.length(W.mult_gen(x, s, "left")) < W.length(x):
                assert H.kl_gen_mult(s, H.kl_basis(x)) == (V + V_INV) * H.kl_basis(x)


# -- trace, anti-involution, pairing ---------------------------------------------------


def test_eps_and_pairing_basics(alg_of):
    H = alg_of("A2")
    assert H.eps(H.unit()) == ONE
    assert H.pairing(H.unit(), H.unit()) == ONE
    s = _word_elt(H, 0)
    assert H.pairing(H.std(s), H.std(s)) == ONE
    kls = H.kl_basis(s)
    assert H.pairing(kls, kls) == ONE + vpow(2)


@pytest.mark.parametrize("name", ["A1", "A1xA1", "A2", "B2", "A3", "I2(7)"])
def test_pairing_orthonormal(alg_of, name):
    H = alg_of(name)
    for x in range(H.system.size):
        for y in range(H.system.size):
            expected = ONE if x == y else ZERO
            assert trace_pairing(H, H.std(x), H.std(y)) == expected
            assert H.pairing(H.std(x), H.std(y)) == expected


def test_pairing_matches_naive_composition(alg_of):
    H = alg_of("A2")
    rng = random.Random(9)
    for _ in range(20):
        h1, h2 = _random_elt(H, rng), _random_elt(H, rng)
        naive = H.eps(H.mult(H.a_inv(h1), h2))
        assert H.pairing(h1, h2) == naive


def test_a_inv_is_anti_automorphism(alg_of):
    H = alg_of("A3")
    rng = random.Random(10)
    for _ in range(15):
        h1, h2 = _random_elt(H, rng, 2), _random_elt(H, rng, 2)
        assert H.a_inv(H.mult(h1, h2)) == H.mult(H.a_inv(h2), H.a_inv(h1))
        assert H.a_inv(H.a_inv(h1)) == h1


# -- ideal generator -------------------------------------------------------------------


def test_ideal_generator_small(alg_of):
    H = alg_of("A3")
    assert H.kl_ideal_generator([]) == H.unit()
    s = _word_elt(H, 0)
    assert H.kl_ideal_generator([0]) == H.elt({s: 1, 0: V})


def test_ideal_generator_closed_form(alg_of):
    H = alg_of("A3")
    W = H.system
    ig = H.kl_ideal_generator([0, 1])
    wI = W.longest_in([0, 1])
    assert ig == H.kl_basis(wI)
    for x in W.subgroup([0, 1]):
        assert ig.coeff(x) == vpow(W.length(wI) - W.length(x))


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_ideal_generator_every_subset(alg_of, name):
    H = alg_of(name)
    W = H.system
    for size in range(W.rank + 1):
        for subset in itertools.combinations(range(W.rank), size):
            assert H.kl_ideal_generator(subset) == H.kl_basis(W.longest_in(subset))


# -- element arithmetic ------------------------------------------------------------------


def test_elt_normalization_and_text(alg_of):
    H = alg_of("A2")
    h = H.elt({0: ZERO, 1: ONE})
    assert h.support() == (1,)
    assert str(H.zero()) == "0"
    s = _word_elt(H, 0)
    assert str(H.elt({s: 1, 0: V})) == "(1*v^1) * H[e] + (1*v^0) * H[s1]"


small_polys = st.builds(
    LaurentPoly, st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3)
)


@settings(max_examples=30, deadline=None)
@given(c=small_polys, d=small_polys)
def test_mult_bilinear_in_scalars(c, d):
    H = HeckeAlgebra(build_named("A2"))
    h1 = H.kl_basis(1)
    h2 = H.kl_basis(2)
    assert H.mult(c * h1, d * h2) == (c * d) * H.mult(h1, h2)


# -- in-place accumulation and interned coefficients ---------------------------------


def test_kl_table_independent_of_fill_order():
    up = HeckeAlgebra(build_named("B3"))
    down = HeckeAlgebra(build_named("B3"))
    n = up.system.size

    def frozen(alg, x):
        # copies every coefficient map, so a later in-place change shows
        return {w: p.to_pairs() for w, p in alg.kl_basis(x).terms.items()}

    snapshots = {x: frozen(up, x) for x in range(8)}
    for x in range(n):
        up.kl_basis(x)
    for x in reversed(range(n)):
        down.kl_basis(x)
    for x in range(n):
        assert up.kl_basis(x).terms == down.kl_basis(x).terms
    for x, snap in snapshots.items():
        assert frozen(up, x) == snap


def test_kl_coefficients_are_interned():
    H = HeckeAlgebra(build_named("B3"))
    seen = {}
    for x in range(H.system.size):
        for p in H.kl_basis(x).terms.values():
            assert seen.setdefault(p, p) is p
