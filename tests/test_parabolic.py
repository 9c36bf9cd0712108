import itertools
import random
import re

import pytest

from heckekit import Character, HeckeAlgebra, NotInIdeal, hecke
from heckekit.laurent import LaurentPoly, ONE, V, V_INV, ZERO, lincomb, vpow

from oracles import (
    inverse_row_via_duality,
    pkl_via_hecke,
    signed_inverse_from_decomposition,
)

CROSS_ROUTE_TYPES = ["A1xA1", "I2(5)", "A3", "B3", "D4"]


def _all_subsets(rank):
    return itertools.chain.from_iterable(
        itertools.combinations(range(rank), k) for k in range(rank + 1)
    )


# -- embed / extract --------------------------------------------------------------


def test_embed_identity_rep_is_ideal_generator(alg_of):
    H = alg_of("A3")
    M = H.parabolic([0, 1])
    assert M.embed(M.delta(0)) == H.kl_basis(M.w_long)


def test_embed_leading_monomial(alg_of):
    # the u = id term contributes coefficient v^l(w_I) at H_y
    H = alg_of("A3")
    M = H.parabolic([0, 1])
    for y in M.reps:
        h = M.embed(M.delta(y))
        assert h.coeff(y) == vpow(M.shift)


def test_embed_empty_subset_is_relabeling(alg_of):
    H = alg_of("A2")
    M = H.parabolic([])
    p = M.elt({0: V, 3: ONE})
    assert M.embed(p) == H.elt({0: V, 3: ONE})


def test_embed_matches_generic_multiplication(alg_of):
    H = alg_of("B3")
    for subset in ([0], [0, 2], [1, 2]):
        M = H.parabolic(subset)
        for y in M.reps[:6]:
            assert M.embed(M.delta(y)) == H.mult(H.std(y), H.kl_basis(M.w_long))


def test_extract_ideal_generator(alg_of):
    H = alg_of("A3")
    M = H.parabolic([0, 1])
    assert M.extract(H.kl_basis(M.w_long)) == M.delta(0)


def test_extract_roundtrip_random(alg_of):
    H = alg_of("A3")
    rng = random.Random(3)
    for subset in ([0], [0, 1], [1, 2]):
        M = H.parabolic(subset)
        for _ in range(10):
            terms = {
                rng.choice(M.reps): LaurentPoly(
                    {rng.randint(-2, 2): rng.randint(-3, 3)}
                )
                for _ in range(3)
            }
            p = M.elt(terms)
            assert M.extract(M.embed(p)) == p


def test_extract_rejects_non_ideal(alg_of):
    H = alg_of("A2")
    M = H.parabolic([0])
    with pytest.raises(NotInIdeal):
        M.extract(H.std(H.system.element_from_word([0])))
    with pytest.raises(NotInIdeal):
        M.extract(H.unit())


# -- elements ------------------------------------------------------------------------


def test_parabolic_and_hecke_elements_stay_apart(alg_of):
    # for I = {} both kinds share index sets and coefficients
    H = alg_of("A1")
    s = H.system.element_from_word([0])
    M = H.parabolic([])
    assert M.delta(s) != H.std(s) and H.std(s) != M.delta(s)
    assert str(M.delta(s)) == "(1*v^0) * H^I[s1]"
    assert str(H.std(s)) == "(1*v^0) * H[s1]"
    assert H.std(s) * H.std(s) == H.mult(H.std(s), H.std(s))
    assert V * M.delta(s) == M.delta(s) * V == M.elt({s: V})
    assert (M.delta(s) - M.delta(s)).is_zero()
    with pytest.raises(TypeError):
        M.delta(s) * M.delta(s)
    # a character with the same terms is a third kind
    c = Character(M, {s: ONE})
    assert c != M.delta(s) and M.delta(s) != c
    assert str(c) == "(1*v^0) * PKL[s1]"
    assert c.to_json_obj() == {"subset": [],
                               "coeffs": [{"word": "s1", "poly": [[0, 1]]}]}


# -- the action of KL_s ----------------------------------------------------------


def test_kl_gen_mult_three_cases_a1(alg_of):
    H = alg_of("A1")
    s = H.system.element_from_word([0])
    M = H.parabolic([])
    assert M.kl_gen_mult(0, M.delta(0)) == M.elt({s: ONE, 0: V})  # sx > x
    assert M.kl_gen_mult(0, M.delta(s)) == M.elt({0: ONE, s: V_INV})  # sx < x
    M = H.parabolic([0])
    assert M.kl_gen_mult(0, M.delta(0)) == M.elt({0: V + V_INV})  # sx not in W^I


@pytest.mark.parametrize("name", CROSS_ROUTE_TYPES)
def test_kl_gen_mult_matches_hecke_action(alg_of, name):
    # every generator on every delta and PKL element, every subset
    H = alg_of(name)
    for subset in _all_subsets(H.system.rank):
        M = H.parabolic(subset)
        elts = [M.delta(x) for x in M.reps] + [M.kl_basis(x) for x in M.reps]
        for s in range(H.system.rank):
            for p in elts:
                expected = M.extract(H.kl_gen_mult(s, M.embed(p)))
                assert M.kl_gen_mult(s, p) == expected, (subset, s, p)


def test_elt_rejects_non_reps(alg_of):
    H = alg_of("A3")
    M = H.parabolic([0, 1])
    s = H.system.element_from_word([0])
    with pytest.raises(ValueError):
        M.elt({s: ONE})


# -- parabolic KL basis ---------------------------------------------------------------


def test_pkl_identity_rep(alg_of):
    H = alg_of("A3")
    M = H.parabolic([0, 1])
    assert M.kl_basis(0) == M.delta(0)


def test_pkl_empty_subset_is_kl(alg_of):
    H = alg_of("A2")
    M = H.parabolic([])
    for x in range(H.system.size):
        assert M.kl_basis(x).terms == H.kl_basis(x).terms
        for y in range(H.system.size):
            assert M.kl_poly(y, x) == H.kl_poly(y, x)


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "A1xA2"])
def test_from_kl_matches_lincomb(alg_of, name, monkeypatch):
    # random pairs over a few y, so most y repeat, with negative exponents
    # and coefficients near 2^32, and one pair cancelling another: every
    # sum is packed and equals lincomb over the same columns
    rng = random.Random(32)
    H = alg_of(name)
    fallbacks = []
    monkeypatch.setattr(hecke, "lincomb", lambda pairs: fallbacks.append(pairs))
    for subset in _all_subsets(H.system.rank):
        M = H.parabolic(subset)
        for _ in range(4):
            ys = rng.sample(M.reps, min(3, len(M.reps)))
            pairs = [(rng.choice(ys), LaurentPoly(
                {rng.randint(-5, 5): rng.choice([-1, 1]) * (2**32 + rng.randint(-9, 9))
                 for _ in range(rng.randint(1, 3))})) for _ in range(6)]
            pairs.append((pairs[0][0], -pairs[0][1]))
            expected = lincomb((c, M.kl_basis(y).terms) for y, c in pairs)
            assert M.from_kl(iter(pairs)).terms == expected, (subset, pairs)
    assert not fallbacks


def test_pkl_unitriangular(alg_of):
    H = alg_of("B3")
    W = H.system
    for subset in ([1], [0, 1], [1, 2]):
        M = H.parabolic(subset)
        for x in M.reps:
            pkl = M.kl_basis(x)
            assert pkl.coeff(x) == ONE
            for y in pkl.terms:
                assert W.bruhat_leq(y, x)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_pkl_poly_equals_full_kl_poly(alg_of, name):
    # h^I_{y,x} = h_{y w_I, x w_I}
    H = alg_of(name)
    W = H.system
    for subset in _all_subsets(W.rank):
        M = H.parabolic(subset)
        wI = M.w_long
        for x in M.reps:
            for y in M.reps:
                assert M.kl_poly(y, x) == H.kl_poly(W.mult(y, wI), W.mult(x, wI))


@pytest.mark.parametrize("name", CROSS_ROUTE_TYPES)
def test_pkl_embeds_to_full_kl_element(alg_of, name):
    # kl_basis reads only the W^I coefficients of KL_{x w_I}; the rest of
    # the element must be what the ideal structure forces
    H = alg_of(name)
    W = H.system
    for subset in _all_subsets(W.rank):
        M = H.parabolic(subset)
        for x in M.reps:
            assert M.embed(M.kl_basis(x)) == H.kl_basis(W.mult(x, M.w_long)), (
                subset, x)


@pytest.mark.parametrize("name", CROSS_ROUTE_TYPES)
def test_pkl_matches_hecke_route(alg_of, name):
    # the recursion in M against the W^I coefficients of KL_{x w_I}
    H = alg_of(name)
    for subset in _all_subsets(H.system.rank):
        M = H.parabolic(subset)
        for x in M.reps:
            assert M.kl_basis(x).terms == pkl_via_hecke(M, x), (subset, x)


def test_pkl_a3_cross_check(alg_of):
    H = alg_of("A3")
    M = H.parabolic([0, 1])
    W = H.system
    wI = M.w_long
    assert len(M.reps) == 4
    for x in M.reps:
        for y in M.reps:
            assert M.kl_poly(y, x) == H.kl_poly(W.mult(y, wI), W.mult(x, wI))


# -- inverse parabolic KL ------------------------------------------------------------------


def test_inverse_kl_base_cases(alg_of):
    H = alg_of("A1")
    M = H.parabolic([])
    assert M.inverse_kl(0, 0) == ONE
    assert M.inverse_kl(1, 1) == ONE
    assert M.inverse_kl(0, 1) == V
    assert M.inverse_kl(1, 0) == ZERO


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "I2(5)"])
def test_inversion_identity(alg_of, name):
    H = alg_of(name)
    W = H.system
    for subset in _all_subsets(W.rank):
        M = H.parabolic(subset)
        for x in M.reps:
            lx = W.length(x)
            for z in M.reps:
                total = ZERO
                for y, hyz in M.kl_basis(z).terms.items():
                    g = M.inverse_kl(x, y)
                    if g:
                        sign = -1 if (W.length(y) - lx) % 2 else 1
                        total = total + sign * (g * hyz)
                assert total == (ONE if x == z else ZERO), (subset, x, z)


def test_inversion_identity_transposed(alg_of):
    H = alg_of("A3")
    W = H.system
    for subset in ([], [0, 1]):
        M = H.parabolic(subset)
        for x in M.reps:
            lx = W.length(x)
            for z in M.reps:
                total = ZERO
                for y in M.reps:
                    hz = M.kl_basis(y).coeff(z)
                    g = M.inverse_kl(y, x)
                    if hz and g:
                        sign = -1 if (W.length(y) - lx) % 2 else 1
                        total = total + sign * (hz * g)
                assert total == (ONE if x == z else ZERO)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_inverse_kl_properties(alg_of, name):
    H = alg_of(name)
    W = H.system
    for subset in _all_subsets(W.rank):
        M = H.parabolic(subset)
        for x in M.reps:
            for z in M.reps:
                g = M.inverse_kl(x, z)
                if not W.bruhat_leq(x, z):
                    assert g == ZERO
                    continue
                assert g.is_nonneg(), (subset, x, z, g)
                if x != z:
                    # in vZ[v] (g may vanish even on comparable pairs)
                    if g:
                        assert g.min_degree() >= 1
                    # degree-one coefficients agree with the parabolic KL side
                    assert g.coeff(1) == M.kl_basis(z).coeff(x).coeff(1)
                # parity of every exponent
                diff = W.length(z) - W.length(x)
                for e, _ in g.items():
                    assert (e - diff) % 2 == 0


@pytest.mark.parametrize("name", CROSS_ROUTE_TYPES)
def test_inverse_kl_matches_signed_decomposition(alg_of, name):
    # the duality rows against back-substitution in the parabolic KL basis
    H = alg_of(name)
    for subset in _all_subsets(H.system.rank):
        M = H.parabolic(subset)
        for z in M.reps:
            signed = signed_inverse_from_decomposition(M, z)
            for x in M.reps:
                assert M.inverse_kl(x, z) == signed.get(x, ZERO), (subset, x, z)


@pytest.mark.parametrize("name", CROSS_ROUTE_TYPES)
def test_inverse_row_keys_are_upper_interval(alg_of, name):
    H = alg_of(name)
    W = H.system
    for subset in _all_subsets(W.rank):
        M = H.parabolic(subset)
        for x in M.reps:
            row = M.inverse_row(x)
            assert set(row) <= set(M.reps)
            for z in M.reps:
                assert (z in row) == W.bruhat_leq(x, z), (subset, x, z)
            assert row[x] == ONE
        # the column of z: keys exactly the y <= z, ascending, and values
        # the z entries of the rows, zeros included
        for z in M.reps:
            col = M.inverse_col(z)
            assert list(col) == [y for y in M.reps if W.bruhat_leq(y, z)], (subset, z)
            assert col == {y: M.inverse_row(y)[z] for y in col}, (subset, z)


@pytest.mark.parametrize("name", CROSS_ROUTE_TYPES)
def test_inverse_row_matches_duality_route(alg_of, name):
    # the recursion in N against KL duality in H, keys and zero values included
    H = alg_of(name)
    for subset in _all_subsets(H.system.rank):
        M = H.parabolic(subset)
        for x in M.reps:
            assert M.inverse_row(x) == inverse_row_via_duality(M, x), (subset, x)


def test_modules_compute_no_hecke_kl_element(sys_of):
    # for I != {} both recursions run over W^I, apart from the table of H
    H = HeckeAlgebra(sys_of("D4"))
    for subset in ([0], [0, 1]):
        M = H.parabolic(subset)
        for x in M.reps:
            M.kl_basis(x)
            M.inverse_row(x)
    assert not H._kl


def test_empty_subset_modules_fill_the_table_of_h(sys_of):
    # for I = {} both modules are H: kl_basis and inverse_row read and
    # fill its one KL table
    H = HeckeAlgebra(sys_of("A3"))
    M = H.parabolic([])
    x = H.system.parse_element("s1.s2")
    assert M.kl_basis(x).terms is H._kl[x]
    m = M._opposite[x]
    assert m not in H._kl
    row = M.inverse_row(x)
    assert m in H._kl
    assert sorted(row) == sorted(M._opposite[r] for r in H._kl[m])
    assert M._pkl is H._kl and M._nkl is H._kl


@pytest.mark.parametrize("name, zeros", [("A3", 60), ("D4", 5162)])
def test_inverse_row_keeps_zero_entries(alg_of, name, zeros):
    # g_{x,z} vanishes on some comparable pairs; those keys stay in the
    # row, so its keys still give the Bruhat interval
    H = alg_of(name)
    W = H.system
    found = 0
    for subset in _all_subsets(W.rank):
        M = H.parabolic(subset)
        for x in M.reps:
            for z, g in M.inverse_row(x).items():
                if not g:
                    assert W.bruhat_leq(x, z) and x != z
                    found += 1
    assert found == zeros


def test_inverse_maps_are_fresh_copies(sys_of):
    # N's table is the one store of g: mutating a row or column that a
    # caller was given changes no later read of g
    H = HeckeAlgebra(sys_of("D4"))
    for subset in _all_subsets(H.system.rank):
        M = H.parabolic(subset)
        rows = {x: dict(M.inverse_row(x)) for x in M.reps}
        cols = {z: dict(M.inverse_col(z)) for z in M.reps}
        for w in M.reps:
            M.inverse_row(w)[w] = V
            M.inverse_col(w)[w] = V
        for w in M.reps:
            assert M.inverse_row(w) == rows[w], (subset, w)
            assert M.inverse_col(w) == cols[w], (subset, w)
            for z, g in rows[w].items():
                assert M.inverse_kl(w, z) == g, (subset, w, z)


def test_inverse_kl_rejects_non_reps(alg_of):
    H = alg_of("A3")
    M = H.parabolic([0])
    W = H.system
    s1 = W.element_from_word([0])
    s2 = W.element_from_word([1])
    s2s1 = W.element_from_word([1, 0])

    def msg(word):
        return "^" + re.escape(
            f"{word} is not a minimal coset representative for I = {{s1}}") + "$"

    with pytest.raises(ValueError, match=msg("s1")):
        M.inverse_kl(s1, s2)
    with pytest.raises(ValueError, match=msg("s2.s1")):
        M.inverse_kl(s2, s2s1)
    # x is checked before z
    with pytest.raises(ValueError, match=msg("s1")):
        M.inverse_kl(s1, s2s1)
    with pytest.raises(ValueError, match=msg("s1")):
        M.inverse_row(s1)
    with pytest.raises(ValueError, match=msg("s1")):
        M.inverse_col(s1)
    assert M.inverse_kl(s2, s2) == ONE


def test_modules_reject_out_of_range_indices(alg_of):
    # -1 once wrapped to the longest element of A2, s1.s2.s1, and was
    # reported as a non-representative of I = {} although it is one
    H = alg_of("A2")
    for subset in ([], [0]):
        M = H.parabolic(subset)
        for w in (-1, H.system.size):
            with pytest.raises(ValueError, match=f"^element index {w} out of range$"):
                M.kl_basis(w)
            with pytest.raises(ValueError, match=f"^element index {w} out of range$"):
                M.inverse_row(w)
