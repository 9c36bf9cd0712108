import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from heckekit import (CoxeterMatrix, HeckeAlgebra, build, build_named, delta_char,
                      hecke, parabolic)
from heckekit.laurent import LaurentPoly, ONE, V, V_INV, ZERO, vpow

from oracles import (bar_solve_kl, bar_via_acc, kl_basis_via_gen_mult,
                     kl_table_by_recursion, trace_pairing)

CROSS_ROUTE_TYPES = ["A1xA1", "A2", "B2", "A3", "B3", "I2(5)", "I2(7)"]


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


@pytest.mark.parametrize("name", CROSS_ROUTE_TYPES)
def test_generator_rules_match_products(alg_of, name):
    # the three rules of the generator kernel against whole products:
    # bar(H_w) = prod (H_s + v - v^-1) over the canonical word of w, and
    # KL_s H_w = (H_s + v H_e) * H_w
    H = alg_of(name)
    W = H.system
    gens = [W.element_from_word([s]) for s in W.gens()]
    for w in range(W.size):
        expected = H.unit()
        for s in W.reduced_word(w):
            expected = expected * H.elt({gens[s]: 1, 0: V - V_INV})
        assert H.elt(H._bar_of_basis(w)) == expected, (name, w)
        for s in W.gens():
            kls = H.elt({gens[s]: 1, 0: V})
            assert H.kl_gen_mult(s, H.std(w)) == kls * H.std(w), (name, w, s)


def test_arithmetic_rejects_other_kinds_and_owners(alg_of):
    A2, B3 = alg_of("A2"), alg_of("B3")
    M = A2.parabolic([0])
    # a character plus a standard-basis element once returned {0: 2}
    for a, b in ((delta_char(M, 0), M.delta(0)), (M.delta(0), delta_char(M, 0)),
                 (A2.unit(), M.delta(0))):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
    # an A2 element plus a B3 one once held B3 index 3 in A2
    for a, b in ((A2.unit(), B3.std(3)),
                 (A2.parabolic([]).delta(0), B3.parabolic([]).delta(0)),
                 (delta_char(M, 0), delta_char(A2.parabolic([1]), 0))):
        with pytest.raises(ValueError, match="different algebras or modules"):
            a + b
        with pytest.raises(ValueError, match="different algebras or modules"):
            a - b
    for a, b in ((A2.unit(), B3.std(3)), (B3.std(3), A2.unit())):
        with pytest.raises(ValueError, match="different Hecke algebras"):
            A2.mult(a, b)
        with pytest.raises(ValueError, match="different Hecke algebras"):
            a * b


def test_actions_reject_elements_of_other_owners(alg_of):
    A2, B3 = alg_of("A2"), alg_of("B3")
    M1, M2 = A2.parabolic([0]), A2.parabolic([1])
    # each of these once answered, or raised IndexError, for B3 indices
    calls = [
        lambda: A2.kl_gen_mult(0, B3.std(3)),
        lambda: A2.mult_gen_right(B3.std(3), 0),
        lambda: A2.bar(B3.std(40)),
        lambda: A2.pairing(A2.unit(), B3.unit()),
        lambda: A2.pairing(B3.unit(), A2.unit()),
        lambda: A2.a_inv(B3.std(40)),
        lambda: A2.eps(B3.unit()),
        lambda: A2.kl_gen_mult(0, M1.delta(0)),
        lambda: M1.kl_gen_mult(0, M2.delta(0)),
        lambda: M1.kl_gen_mult(0, A2.unit()),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="different algebra or module"):
            call()


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


@pytest.mark.parametrize("name", CROSS_ROUTE_TYPES)
def test_bar_matches_acc_route(alg_of, name):
    # every KL element, every bar(H_w) (whose bar cancels to H_w, every
    # lower coefficient summing to zero) and random elements
    H = alg_of(name)
    rng = random.Random(11)
    inputs = [H.kl_basis(x) for x in range(H.system.size)]
    inputs += [H.elt(H._bar_of_basis(w)) for w in range(H.system.size)]
    inputs += [_random_elt(H, rng) for _ in range(20)]
    for h in inputs:
        out = H.bar(h)
        assert out.terms == bar_via_acc(H, h), (name, h)
        assert all(out.terms.values())
    for w in range(H.system.size):
        assert H.bar(H.elt(H._bar_of_basis(w))).terms == {w: ONE}
    for x in range(H.system.size):
        assert (H.bar(H.kl_basis(x)) - H.kl_basis(x)).terms == {}


def test_bar_basis_values_are_interned():
    H = HeckeAlgebra(build_named("B3"))
    seen = {}
    for w in range(H.system.size):
        for p in H._bar_of_basis(w).values():
            assert seen.setdefault(p, p) is p
    assert sorted(map(id, H._bar_polys.values())) == sorted(map(id, seen.values()))


def test_bar_multiplicative_random(alg_of):
    H = alg_of("A2")
    rng = random.Random(8)
    for _ in range(15):
        h1, h2 = _random_elt(H, rng, 2), _random_elt(H, rng, 2)
        assert H.bar(H.mult(h1, h2)) == H.mult(H.bar(h1), H.bar(h2))


# -- packed generator steps ------------------------------------------------------

KERNEL_TYPES = ["A3", "B3", "D4", "A1xA2", "I2(7)"]
# the largest coefficient size B with B * 3 < 2^63: one step stays packed
STEP_BOUND = ((1 << 63) - 1) // 3


def _rows(H):
    """(indices, table, row) of every row of the generator table: right
    H_s, left H_s^-1 and KL_s on H, and KL_s on each module M."""
    W = H.system
    everything = range(W.size)
    out = [(everything, W._right, hecke._RIGHT_H), (everything, W._left, hecke._LEFT_H_INV),
           (everything, W._left, hecke._KL_H)]
    for size in range(1, W.rank + 1):
        for subset in itertools.combinations(range(W.rank), size):
            M = H.parabolic(subset)
            out.append((M.reps, M._left, parabolic._KL_M))
    return out


def _random_terms(rng, indices, top):
    """A term map on a few indices, exponents -3..3, coefficients up to top."""
    return {w: LaurentPoly({rng.randint(-3, 3): rng.choice([-1, 1]) * rng.randint(1, top)
                            for _ in range(rng.randint(1, 3))})
            for w in rng.sample(list(indices), min(4, len(indices)))}


@pytest.mark.parametrize("name", KERNEL_TYPES)
def test_packed_step_matches_gen_terms(alg_of, name, step_routes):
    # one step of every row and generator, on inputs with negative
    # exponents, with coefficients at the bound (packed) and one past it
    # (exact); and chains of up to 6 steps of small coefficients
    H = alg_of(name)
    rng = random.Random(17)
    for indices, table, row in _rows(H):
        for s in H.system.gens():
            for top, packed in ((3, 1), (STEP_BOUND, 1), (STEP_BOUND + 1, 0)):
                terms = _random_terms(rng, indices, top)
                terms[rng.choice(list(terms))] = LaurentPoly({-2: top, 1: -top})
                step_routes.update(packed=0, exact=0)
                got = H._steps(terms, [s], table, row)
                assert step_routes == {"packed": packed, "exact": 1 - packed}
                assert got == H._gen_terms(terms, s, table, row), (row, s, top)
                assert all(got.values())
        for _ in range(4):
            word = [rng.randrange(H.system.rank) for _ in range(rng.randint(0, 6))]
            terms = expected = _random_terms(rng, indices, 5)
            for s in word:
                expected = H._gen_terms(expected, s, table, row)
            step_routes.update(packed=0, exact=0)
            assert H._steps(terms, word, table, row) == expected, (row, word)
            assert step_routes == {"packed": len(word), "exact": 0}


def test_packed_step_rejects_a_generator_out_of_range(alg_of):
    H = alg_of("A2")
    right = H.system._right
    for s in (-1, H.system.rank):
        with pytest.raises(ValueError, match=f"^generator index {s} out of range$"):
            H._steps({0: ONE}, [0, s], right, hecke._RIGHT_H)
        with pytest.raises(ValueError, match=f"^generator index {s} out of range$"):
            H._step({0: 1}, s, right, hecke._packed_row(hecke._RIGHT_H, hecke.PACK_BITS))


def _word_terms(H, word, table, row, terms):
    for s in word:
        terms = H._gen_terms(terms, s, table, row)
    return terms


@pytest.mark.parametrize("name, packed", [("I2(39)", True), ("I2(40)", False)])
def test_chains_on_both_sides_of_the_gate(name, packed, step_routes):
    # 3^39 < 2^63 <= 3^40: the chain of bar(H_w0) down the 39 letters of
    # w0 in I2(39), and each product by H_w0, from coefficients 1, is
    # packed; in I2(40) each steps _gen_terms.  Both agree with _gen_terms
    # letter by letter.
    H = HeckeAlgebra(build_named(name))
    W = H.system
    w0, word = W.longest, W.reduced_word(W.longest)
    chain = {"packed": len(word), "exact": 0} if packed else {
        "packed": 0, "exact": len(word)}
    H._bar_of_basis(w0)
    assert step_routes == chain
    step_routes.update(packed=0, exact=0)
    prods = [H.mult(H.std(w0), H.std(w0)), H.mult(H.kl_basis(w0), H.std(w0))]
    assert step_routes == {k: 2 * n for k, n in chain.items()}
    for h1, prod in zip((H.std(w0), H.kl_basis(w0)), prods):
        assert prod.terms == _word_terms(H, word, W._right, hecke._RIGHT_H, h1.terms)
    # the rest of the basis, one letter past a stored element each, packed
    # from values the chain of w0 stored by either route
    step_routes.update(packed=0, exact=0)
    bars = [H._bar_of_basis(w) for w in range(W.size)]
    assert step_routes == {"packed": W.size - len(word) - 1, "exact": 0}
    for w in range(W.size):
        assert bars[w] == _word_terms(H, reversed(W.reduced_word(w)), W._left,
                                      hecke._LEFT_H_INV, {0: ONE}), w
    # every stored value is interned, whichever route decoded it
    assert sorted(map(id, H._bar_polys.values())) == sorted(
        {id(p) for b in bars for p in b.values()})


def test_bar_chain_gate_reads_the_stored_coefficients(step_routes):
    # the chain of w0 in I2(39) is packed from H_e (3^39 < 2^63), but not
    # from a stored bar(H_u) scaled by 2^40: 2^40 * 3^38 >= 2^63, so the 38
    # steps from u on step _gen_terms, and give 2^40 bar(H_w0)
    H = HeckeAlgebra(build_named("I2(39)"))
    W = H.system
    word = W.reduced_word(W.longest)
    u = W.element_from_word(word[-1:])
    big = LaurentPoly.const(1 << 40)
    start = {t: p * big for t, p in H._bar_of_basis(u).items()}
    H._bar_basis[u] = {t: H._intern_bar(p) for t, p in start.items()}
    step_routes.update(packed=0, exact=0)
    bar_w0 = H._bar_of_basis(W.longest)
    assert step_routes == {"packed": 0, "exact": 38}
    assert bar_w0 == _word_terms(H, reversed(word[:-1]), W._left, hecke._LEFT_H_INV, start)


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


@pytest.mark.parametrize("name", ["A4", "B4", "D4", "B3", "I2(7)"])
def test_kl_basis_matches_gen_mult_route(alg_of, name):
    H = alg_of(name)
    for x in range(H.system.size):
        assert H.kl_basis(x) == kl_basis_via_gen_mult(H, x)


@pytest.mark.parametrize("name", ["B3", "D4"])
def test_kl_descent_identity_every_left_descent(alg_of, name):
    # h_{w,x} = v h_{sw,x} for each left descent s of x and each w < sw,
    # zero coefficients included
    H = alg_of(name)
    W = H.system
    checked = 0
    for x in range(W.size):
        for s in W.descents(x, "left"):
            for w in range(W.size):
                sw = W.mult_gen(w, s, "left")
                if W.length(sw) > W.length(w):
                    assert H.kl_poly(w, x) == V * H.kl_poly(sw, x)
                    checked += 1
    assert checked > W.size


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
    W = H.system
    assert H.kl_basis(W.longest_in([])) == H.unit()
    s = _word_elt(H, 0)
    assert H.kl_basis(W.longest_in([0])) == H.elt({s: 1, 0: V})


def test_ideal_generator_closed_form(alg_of):
    H = alg_of("A3")
    W = H.system
    wI = W.longest_in([0, 1])
    closed = {x: vpow(W.length(wI) - W.length(x)) for x in W.subgroup([0, 1])}
    assert H.kl_basis(wI) == H.elt(closed)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_ideal_generator_every_subset(alg_of, name):
    H = alg_of(name)
    W = H.system
    for size in range(W.rank + 1):
        for subset in itertools.combinations(range(W.rank), size):
            M = H.parabolic(subset)
            assert M.embed(M.delta(0)) == H.kl_basis(W.longest_in(subset))


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
    # a scalar on the right of an element of H scales it as on the left
    assert h1 * c == c * h1


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


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("name", ["A1", "A3", "B3", "D4", "F4", "I2(5)", "I2(8)",
                                  "A1xB3", "G2xA2", "A2xA2"])
def test_kl_table_read_off_inverses_matches_plain_recursion(name, descending):
    # descending, each x that is not the minimum of its orbit is looked up
    # first and runs the recursion of the minimum on demand
    H = HeckeAlgebra(build_named(name))
    W = H.system
    inv = W._inv
    plain = kl_table_by_recursion(H)
    order = range(W.size)
    for x in (reversed(order) if descending else order):
        assert H._kl[x] == plain[x], W.word_str(x)
    for x in order:
        for w, p in H._kl[x].items():
            assert H._kl[inv[x]][inv[w]] is p


class _Recording(tuple):
    """A tuple that records the indices it is read at."""

    def __new__(cls, items, seen):
        out = super().__new__(cls, items)
        out.seen = seen
        return out

    def __getitem__(self, i):
        self.seen.add(i)
        return super().__getitem__(i)


def _orbit_minima(maps, domain):
    """The least element of each orbit of the group generated by `maps` on
    `domain`, e excluded: walking in index order, the first element of an
    orbit is its minimum."""
    seen, minima = set(), set()
    for x in domain:
        if x not in seen:
            minima.add(x)
            orbit = [x]
            seen.add(x)
            for y in orbit:
                for g in maps:
                    if g[y] not in seen:
                        seen.add(g[y])
                        orbit.append(g[y])
    return minima - {0}


@pytest.mark.parametrize("name", ["B3", "D4", "G2xA2", "A2xA2"])
def test_kl_recursion_runs_once_per_orbit(name):
    # the recursion reads the first letter of x, the read-off does not
    W = build_named(name)
    H = HeckeAlgebra(W)
    modules = [H.parabolic(subset) for size in range(1, W.rank + 1)
               for subset in itertools.combinations(range(W.rank), size)]
    seen = set()
    W.first = _Recording(W.first, seen)
    for x in range(W.size):
        H.kl_basis(x)
    assert seen == _orbit_minima(H._kl.maps, range(W.size))
    for M in modules:
        seen.clear()
        for x in M.reps:
            M.kl_basis(x)
        assert seen == _orbit_minima(M._pkl.maps, M.reps)
        seen.clear()
        for x in M.reps:
            M.inverse_row(x)
        assert seen == _orbit_minima(M._nkl.maps, M.reps)
    # B3 has no graph automorphism; the others act on some of their modules
    assert any(M._pkl.maps for M in modules) == (name != "B3")


@pytest.mark.parametrize("name", ["D4", "F4", "G2xA2", "A2xA2", "A1xA1xA1"])
def test_module_tables_read_off_orbits_match_plain_recursion(name):
    # M and N against tables over W^I that run the recursion for every x
    H = HeckeAlgebra(build_named(name))
    W = H.system
    for size in range(1, W.rank + 1):
        for subset in itertools.combinations(range(W.rank), size):
            M = H.parabolic(subset)
            if not M._pkl.maps:
                continue
            for table, spherical in ((M._pkl, True), (M._nkl, False)):
                plain = hecke.KLTable(W, M._left, spherical, hecke.Packing())
                for x in reversed(M.reps):
                    assert table[x] == plain[x], (subset, W.word_str(x))


def test_symmetry_setup_is_a_generating_set_not_the_group():
    # Aut of the graph of A1^12 is the symmetric group on 12 letters; the
    # maps are found on first use, so the bound times that too
    W = build_named("x".join(["A1"] * 12))
    start = time.perf_counter()
    H = HeckeAlgebra(W)
    maps = H._kl.maps
    assert time.perf_counter() - start < 1.0
    assert len(maps) <= W.rank * (W.rank - 1) // 2 + 1
    top = W.lengths[W.longest]
    assert H.kl_basis(W.longest).terms == {
        y: vpow(top - W.lengths[y]) for y in range(W.size)}


def test_symmetries_are_found_on_a_tables_first_use():
    W = build_named("D4")
    H = HeckeAlgebra(W)
    assert W._automorphisms == {}
    M = H.parabolic([0])
    assert W._automorphisms == {}
    for x in M.reps:
        M.kl_basis(x)
    assert list(W._automorphisms) == [frozenset({0})]


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "A1xA2", "G2xA2", "A2xA2",
                                  "A1xA1xA1"])
def test_tables_follow_a_relabelling_of_the_generators(name):
    # orbit minima, canonical words and r -> w0 r w_I depend on the label
    # order; H's KL table, PKL and g, read through a relabelling, do not
    H = HeckeAlgebra(build_named(name))
    W, n = H.system, H.system.rank
    m = W.matrix.m
    perms = [p for p in itertools.permutations(range(n)) if p != tuple(range(n))]
    for p in random.Random(name).sample(perms, min(3, len(perms))):
        q = [p.index(a) for a in range(n)]
        H2 = HeckeAlgebra(build(CoxeterMatrix(
            [[m[q[a]][q[b]] for b in range(n)] for a in range(n)])))
        phi = [H2.system.element_from_word(p[s] for s in W.reduced_word(w))
               for w in range(W.size)]

        def mapped(terms):
            return {phi[y]: c for y, c in terms.items()}

        for x in range(W.size):
            assert H2.kl_basis(phi[x]).terms == mapped(H.kl_basis(x).terms), (p, x)
        for size in range(n + 1):
            for subset in itertools.combinations(range(n), size):
                M, M2 = H.parabolic(subset), H2.parabolic(p[s] for s in subset)
                for x in M.reps:
                    assert M2.kl_basis(phi[x]).terms == mapped(M.kl_basis(x).terms)
                    assert M2.inverse_row(phi[x]) == mapped(M.inverse_row(x))


def test_kl_coefficients_are_interned():
    H = HeckeAlgebra(build_named("B3"))
    W = H.system
    maps = [H.kl_basis(x).terms for x in range(W.size)]
    for size in range(W.rank + 1):
        for subset in itertools.combinations(range(W.rank), size):
            M = H.parabolic(subset)
            maps += [M.kl_basis(x).terms for x in M.reps]
            maps += [M.inverse_row(x) for x in M.reps]
    seen = {}
    for terms in maps:
        for p in terms.values():
            assert seen.setdefault(p, p) is p
    # H and its modules share one table, holding exactly those values
    assert len(H._packing.polys) == len(seen)
    assert sorted(map(id, H._packing.polys.values())) == sorted(map(id, seen.values()))


@pytest.mark.parametrize("bits", [4, 6, 8])
def test_narrow_packing_raises_instead_of_a_wrong_table(monkeypatch, bits):
    # F4 coefficients reach 12, which 4 bits cannot hold; at 6 and 8 bits
    # the bound b (2 + sum |mu|) of some element passes 2^(bits-1)
    monkeypatch.setattr(hecke, "PACK_BITS", bits)
    H = HeckeAlgebra(build_named("F4"))
    with pytest.raises(ValueError, match=f"may not fit in {bits}-bit packing"):
        for x in range(H.system.size):
            H.kl_basis(x)


def test_packing_width_does_not_change_the_table(monkeypatch, alg_of):
    wide = alg_of("F4")
    table = [wide.kl_basis(x).terms for x in range(wide.system.size)]
    monkeypatch.setattr(hecke, "PACK_BITS", 10)
    H = HeckeAlgebra(wide.system)
    assert [H.kl_basis(x).terms for x in range(H.system.size)] == table


def _corrupt_descent_entry(H, bad, among=None):
    """Replace h_{w,y} in the cached KL_y by bad(h_{w,y}) at some w != y
    with sw < w, s the first letter of x = sy > y, x the first of `among`
    (default all of W but e) with such a w; return x."""
    W = H.system
    for x in among or range(1, W.size):
        s = W.first[x]
        y = W._left[x][s]
        terms = H.kl_basis(y).terms
        for w in terms:
            if w != y and W.lengths[W._left[w][s]] < W.lengths[w]:
                terms[w] = bad(terms[w])
                return x
    raise AssertionError("no descent entry")


@pytest.mark.parametrize("bad, message", [
    (lambda p: p + 1, "has a constant term"),
    (lambda p: p + V_INV, "negative exponent -1"),
    (lambda p: p + vpow(1, 1 << 70), "needs more than 64 bits"),
])
def test_corrupted_cached_coefficient_raises_when_read(bad, message):
    H = HeckeAlgebra(build_named("B3"))
    x = _corrupt_descent_entry(H, bad)
    with pytest.raises(ValueError, match=message):
        H.kl_basis(x)
    assert x not in H._kl


def test_corrupted_coefficient_read_by_the_inverse_raises_for_both():
    # x is read off x^-1 < x, so the fault in the recursion of x^-1
    # raises for x, and neither element is stored
    H = HeckeAlgebra(build_named("B3"))
    inv = H.system._inv
    xi = _corrupt_descent_entry(H, lambda p: p + 1,
                                [x for x in range(1, H.system.size) if inv[x] > x])
    x = inv[xi]
    assert xi < x
    with pytest.raises(ValueError, match="has a constant term"):
        H.kl_basis(x)
    assert x not in H._kl
    assert xi not in H._kl


def test_corrupted_orbit_minimum_raises_for_its_flip_image():
    # the flip s1 <-> s3 of A3 reads its image off the minimum m of an
    # orbit, so the fault in the recursion of m raises for the image, and
    # neither element is stored
    H = HeckeAlgebra(build_named("A3"))
    W = H.system
    flip, = W.graph_automorphisms()
    assert flip[W.parse_element("s1")] == W.parse_element("s3")
    minima = _orbit_minima(H._kl.maps, range(W.size))
    m = _corrupt_descent_entry(H, lambda p: p + 1,
                               [x for x in sorted(minima) if flip[x] != x])
    with pytest.raises(ValueError, match="has a constant term"):
        H.kl_basis(flip[m])
    assert flip[m] not in H._kl
    assert m not in H._kl


def test_corrupted_fixed_entry_of_spherical_module_raises():
    # in M, KL_s P_w = (v + v^-1) P_w where sw is not in W^I: a constant
    # term there must raise, not lose its v^-1 part
    H = HeckeAlgebra(build_named("B3"))
    M = H.parabolic([0])
    for x in M.reps[1:]:
        s = H.system.first[x]
        y = M._left[x][s]
        terms = M.kl_basis(y).terms
        fixed = [w for w in terms if M._left[w][s] == w]
        if fixed:
            terms[fixed[0]] = terms[fixed[0]] + 1
            break
    with pytest.raises(ValueError, match="has a constant term"):
        M.kl_basis(x)
    assert x not in M._pkl


def test_corrupted_entry_of_antispherical_module_raises():
    # the same guard in N, reached through inverse_row: a failed lookup
    # stores no KL element of m, so every read of g through it raises again
    H = HeckeAlgebra(build_named("B3"))
    W = H.system
    M = H.parabolic([0])
    for m in M.reps[1:]:
        s = W.first[m]
        y = M._left[m][s]
        terms = M._nkl[y]
        descents = [w for w in terms if W.lengths[M._left[w][s]] < W.lengths[w]]
        if descents:
            terms[descents[0]] = terms[descents[0]] + 1
            break
    x = M._opposite[m]
    with pytest.raises(ValueError, match="has a constant term"):
        M.inverse_row(x)
    for read in (M.inverse_row, M.inverse_col, lambda x: M.inverse_kl(x, x)):
        with pytest.raises(ValueError, match="has a constant term"):
            read(x)
    assert m not in M._nkl


def test_kl_basis_rejects_bad_index_and_caches_none():
    H = HeckeAlgebra(build_named("A2"))
    for x in (-1, H.system.size):
        with pytest.raises(ValueError, match=f"element index {x} out of range"):
            H.kl_basis(x)
    assert not H._kl
    for s in (-1, H.system.rank):
        with pytest.raises(ValueError, match=f"generator index {s} out of range"):
            H.kl_gen_mult(s, H.unit())
        # -1 once multiplied by the last generator, rank raised IndexError
        with pytest.raises(ValueError, match=f"generator index {s} out of range"):
            H.mult_gen_right(H.unit(), s)


def test_kl_poly_and_mu_reject_bad_y():
    # a negative y once wrapped around to an element from the end
    H = HeckeAlgebra(build_named("A3"))
    for y in (-1, -3, H.system.size):
        for query in (H.kl_poly, H.mu):
            with pytest.raises(ValueError, match=f"^element index {y} out of range$"):
                query(y, 5)


# -- long elements --------------------------------------------------------------


@pytest.mark.parametrize("name, subset", [("I2(1000)", []), ("I2(600)", [0])])
def test_kl_element_of_the_top_by_the_closed_form_on_a_fresh_table(name, subset):
    # in I2(m) every y in W^I lies below the top element x of W^I and
    # h^I_{y,x} = v^(l(x) - l(y)); the first lookup of x reads a chain of
    # l(x) first letters, past the default recursion limit
    H = HeckeAlgebra(build_named(name))
    M = H.parabolic(subset)
    top, lengths = M.reps[-1], H.system.lengths
    assert M.kl_basis(top).terms == {y: vpow(lengths[top] - lengths[y]) for y in M.reps}


def test_bar_and_kl_of_w0_on_a_fresh_algebra_do_not_recurse_per_letter():
    # bar(H_w) is read off bar(H_sw) and KL_w off KL_sw: under a recursion
    # limit 50 frames above this test, a recursion per letter of the 100
    # letters of w0 in I2(100) fails
    H = HeckeAlgebra(build_named("I2(100)"))
    W = H.system
    w0, lengths = W.longest, W.lengths
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        H.bar(H.std(w0))
        kl = H.kl_basis(w0)
    finally:
        sys.setrecursionlimit(limit)
    assert kl.terms == {y: vpow(lengths[w0] - lengths[y]) for y in range(W.size)}
    assert H.bar(kl) == kl
