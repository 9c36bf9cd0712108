import itertools
import random

import pytest

from heckekit import (HeckeAlgebra, build_named, e_shape, euler_hom, f_shape, hecke,
                      shape_character)
from heckekit.laurent import ONE, ZERO, LaurentPoly, div_exact
from heckekit.rouquier import ComplexShape, _kl_sum, mirror_shape

from oracles import (f_shape_via_bruhat, shape_character_via_terms,
                     signed_inverse_from_decomposition, trace_pairing)

CROSS_ROUTE_TYPES = ["A1xA1", "A2", "B2", "A3", "B3", "I2(5)", "I2(7)"]


def _all_subsets(rank):
    return itertools.chain.from_iterable(
        itertools.combinations(range(rank), k) for k in range(rank + 1)
    )


def test_a1_f_shape(alg_of):
    H = alg_of("A1")
    M = H.parabolic([])
    shape = f_shape(M, 1)
    assert shape.terms == {0: ((1, 0, 1),), 1: ((0, 1, 1),)}


def test_a1_e_shape(alg_of):
    H = alg_of("A1")
    M = H.parabolic([])
    shape = e_shape(M, 1)
    assert shape.terms == {0: ((1, 0, 1),), -1: ((0, -1, 1),)}


def test_identity_shapes(alg_of):
    H = alg_of("A3")
    M = H.parabolic([0, 2])
    for shape in (f_shape(M, 0), e_shape(M, 0)):
        assert shape.terms == {0: ((0, 0, 1),)}


def test_rouquier_character_definition(alg_of):
    # the character is extract(H_x * KL_I) for every rep
    H = alg_of("A3")
    for subset in ([], [0, 1], [1, 2]):
        M = H.parabolic(subset)
        for x in M.reps:
            assert M.extract(H.mult(H.std(x), H.kl_basis(M.w_long))) == M.delta(x)


def test_f_shape_invariants(alg_of):
    for name in ("A3", "B3"):
        H = alg_of(name)
        W = H.system
        for subset in _all_subsets(W.rank):
            M = H.parabolic(subset)
            for x in M.reps:
                shape = f_shape(M, x)
                assert shape.terms[0] == ((x, 0, 1),)
                for deg, entries in shape.terms.items():
                    assert deg >= 0
                    for y, shift, mult in entries:
                        assert shift == deg  # linearity
                        assert mult > 0
                        if deg != 0:
                            assert y != x and W.bruhat_leq(y, x)
                            # parity of the homological degree
                            assert (deg - W.length(x) + W.length(y)) % 2 == 0


@pytest.mark.parametrize("name", CROSS_ROUTE_TYPES + ["D4"])
def test_shapes_match_bruhat_scan(alg_of, name):
    # one column of g against a Bruhat scan of W^I, every subset
    H = alg_of(name)
    for subset in _all_subsets(H.system.rank):
        M = H.parabolic(subset)
        for x in M.reps:
            expected = f_shape_via_bruhat(M, x)
            assert f_shape(M, x) == expected, (subset, x)
            assert e_shape(M, x) == mirror_shape(expected), (subset, x)


def test_e_shape_mirrors_f_shape(alg_of):
    H = alg_of("B3")
    M = H.parabolic([0, 1])
    for x in M.reps:
        fsh, esh = f_shape(M, x), e_shape(M, x)
        assert set(esh.terms) == {-d for d in fsh.terms}
        for deg, entries in fsh.terms.items():
            mirrored = tuple(sorted((y, -deg, m) for y, _, m in entries))
            assert esh.terms[-deg] == mirrored


def test_mirror_swaps_the_two_shape_sums(alg_of):
    # mirror_shape hands the two cached characters over swapped, which is
    # exact only if these sums agree term for term
    for name in CROSS_ROUTE_TYPES:
        H = alg_of(name)
        for subset in _all_subsets(H.system.rank):
            M = H.parabolic(subset)
            for x in M.reps:
                f = f_shape(M, x)
                assert _kl_sum(mirror_shape(f), -1).terms == _kl_sum(f, 1).terms
                assert _kl_sum(mirror_shape(f), 1).terms == _kl_sum(f, -1).terms
                shape_character(f)
                e = mirror_shape(f)
                assert e._bar_char is f._char and e._char is None


def _count_lincomb(monkeypatch):
    # Packing.column_sum falls back to lincomb; nothing else in hecke.py
    # calls it on the way from a shape to its character
    calls = []
    lincomb = hecke.lincomb

    def counted(pairs):
        calls.append(len(pairs))
        return lincomb(pairs)

    monkeypatch.setattr(hecke, "lincomb", counted)
    return calls


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "A1xA2"])
def test_packed_shape_sums_match_one_pair_per_term(alg_of, name, monkeypatch):
    # every shape sum of a clean table is packed, and equals the sum of
    # one lincomb pair per term
    H = alg_of(name)
    calls = _count_lincomb(monkeypatch)
    for subset in _all_subsets(H.system.rank):
        M = H.parabolic(subset)
        for x in M.reps:
            for shape in (f_shape(M, x), e_shape(M, x)):
                for twist in (1, -1):
                    got = _kl_sum(shape, twist)
                    assert not calls, (subset, x, twist)
                    assert got == shape_character_via_terms(shape, twist), (subset, x)


def _packing_state(H):
    pk = H._packing
    return len(pk.polys), len(pk.packed), len(pk.pairs), pk.bound


def test_shape_sums_past_the_bound_take_from_kl(monkeypatch):
    H = HeckeAlgebra(build_named("B3"))
    M = H.parabolic([1])
    top = M.reps[-1]
    f = f_shape(M, top)
    for y in M.reps:  # every column filled, so only a sum could add values
        M.kl_basis(y)
    shapes = [
        # the terms of the shape of top, each 2^62 times: the bound fails,
        # though every coefficient of the sum would pack
        ComplexShape(M, top, {deg: tuple((y, shift, mult << 62) for y, shift, mult in e)
                              for deg, e in f.terms.items()}),
        # one term 2^64 PKL_top, whose packed sum would read as v PKL_top
        ComplexShape(M, top, {0: ((top, 0, 1 << 64),)}),
    ]
    state = _packing_state(H)
    calls = _count_lincomb(monkeypatch)
    for shape in shapes:
        for twist in (1, -1):
            got = _kl_sum(shape, twist)
            assert len(calls) == 1
            assert got == shape_character_via_terms(shape, twist)
            calls.clear()
    assert _kl_sum(shapes[0], 1) == M.delta(top) * (1 << 62)
    assert _kl_sum(shapes[1], 1) == M.kl_basis(top) * (1 << 64)
    assert _packing_state(H) == state


@pytest.mark.parametrize("name, subset", [("A1", []), ("B3", [1])])
def test_shape_sums_on_fresh_tables_check_the_bound_after_reading(name, subset, monkeypatch):
    # nothing is packed yet, so the bound reads 0 until the sum fills the
    # column: the guard must see the bound of the values it multiplied
    H = HeckeAlgebra(build_named(name))
    M = H.parabolic(subset)
    top = M.reps[-1]
    shape = ComplexShape(M, top, {0: ((top, 0, 1 << 64),)})
    calls = _count_lincomb(monkeypatch)
    got = _kl_sum(shape, 1)
    assert calls == [1]
    assert got == M.kl_basis(top) * (1 << 64)
    assert got == shape_character_via_terms(shape, 1)


def test_shape_sums_over_a_corrupted_column_take_from_kl(monkeypatch):
    # v^-1 in an entry of PKL_top: that entry is not interned, so every sum
    # over the column of top falls back to one lincomb, the sums over clean
    # columns stay packed, and the Packing is left as it was
    H = HeckeAlgebra(build_named("A3"))
    M = H.parabolic([0])
    top = M.reps[-1]
    for x in M.reps:
        shape_character(f_shape(M, x))
    terms = dict(M.kl_basis(top).terms)
    terms[0] = terms[0] + LaurentPoly({-1: 1})
    M._pkl[top] = terms
    state = _packing_state(H)
    calls = _count_lincomb(monkeypatch)
    for x in M.reps:
        for shape in (f_shape(M, x), e_shape(M, x)):
            for twist in (1, -1):
                got = _kl_sum(shape, twist)
                assert len(calls) == any(y == top for e in shape.terms.values()
                                         for y, _, _ in e)
                assert got == shape_character_via_terms(shape, twist), (x, twist)
                calls.clear()
    assert _kl_sum(f_shape(M, top), 1) != M.delta(top)
    assert _packing_state(H) == state


def test_degree_one_layer_is_mu_like(alg_of):
    # multiplicity in homological degree 1 equals the v-coefficient of h^I
    H = alg_of("A3")
    for subset in ([], [0], [0, 1]):
        M = H.parabolic(subset)
        for x in M.reps:
            layer = {y: m for y, _, m in f_shape(M, x).terms.get(1, ())}
            expected = {}
            for z in M.reps:
                if z != x:
                    c = M.kl_basis(x).coeff(z).coeff(1)
                    if c:
                        expected[z] = c
            assert layer == expected


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_shape_character_recovers_standard_basis(alg_of, name):
    H = alg_of(name)
    for subset in _all_subsets(H.system.rank):
        M = H.parabolic(subset)
        for x in M.reps:
            assert shape_character(f_shape(M, x)) == M.delta(x)


def test_f_shape_against_signed_decomposition_oracle(alg_of):
    H = alg_of("A3")
    M = H.parabolic([0, 1])
    W = H.system
    u = W.element_from_word([2])
    for x in M.reps:
        signed = signed_inverse_from_decomposition(M, x)
        for y in M.reps:
            g = M.inverse_kl(y, x)
            assert g == signed.get(y, ZERO), (y, x)
    # and the shape for x = u specifically
    shape = f_shape(M, u)
    assert shape.terms == {0: ((u, 0, 1),), 1: ((0, 1, 1),)}


def test_e_shape_character_is_bar_twisted(alg_of):
    # alternating character of the negative lift is extract(bar(H_x) KL_I)
    H = alg_of("A3")
    for subset in ([], [0, 1]):
        M = H.parabolic(subset)
        for x in M.reps:
            expected = M.extract(H.mult(H.bar(H.std(x)), H.kl_basis(M.w_long)))
            assert shape_character(e_shape(M, x)) == expected


def test_euler_hom_a1_hand_value(alg_of):
    H = alg_of("A1")
    M = H.parabolic([])
    assert euler_hom(f_shape(M, 1), e_shape(M, 1)) == ONE


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_euler_hom_delta(alg_of, name):
    H = alg_of(name)
    for subset in _all_subsets(H.system.rank):
        M = H.parabolic(subset)
        fs = {x: f_shape(M, x) for x in M.reps}
        es = {x: e_shape(M, x) for x in M.reps}
        for x in M.reps:
            for y in M.reps:
                expected = ONE if x == y else ZERO
                assert euler_hom(fs[x], es[y]) == expected, (subset, x, y)


def _random_shape(M, rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        deg = rng.randint(-2, 2)
        term = (rng.choice(M.reps), rng.randint(-2, 2), rng.randint(1, 3))
        terms[deg] = tuple(sorted(terms.get(deg, ()) + (term,)))
    return ComplexShape(M, M.reps[0], terms)


def test_euler_hom_matches_direct_composition(alg_of):
    # the route through H: embed both characters, bar the second, take
    # the multiplied-out trace pairing and divide by the Poincare polynomial
    rng = random.Random(13)
    for name in CROSS_ROUTE_TYPES:
        H = alg_of(name)
        for subset in _all_subsets(H.system.rank):
            M = H.parabolic(subset)
            pairs = [(_random_shape(M, rng), _random_shape(M, rng)) for _ in range(4)]
            for _ in range(2):
                x, y = rng.choice(M.reps), rng.choice(M.reps)
                pairs.append((f_shape(M, x), e_shape(M, y)))
                pairs.append((e_shape(M, x), f_shape(M, y)))
            for a, b in pairs:
                h1 = M.embed(shape_character(a))
                h2 = H.bar(M.embed(shape_character(b)))
                direct = div_exact(trace_pairing(H, h1, h2),
                                   M.system.poincare(M.subset))
                assert euler_hom(a, b) == direct, (name, subset, a, b)


def test_euler_hom_rejects_mixed_modules(alg_of):
    H = alg_of("A3")
    M1, M2 = H.parabolic([0]), H.parabolic([1])
    with pytest.raises(ValueError):
        euler_hom(f_shape(M1, 0), e_shape(M2, 0))


def test_empty_shape_has_zero_character(alg_of):
    from heckekit.rouquier import ComplexShape

    H = alg_of("A2")
    M = H.parabolic([0])
    assert shape_character(ComplexShape(M, 0, {})).is_zero()


def test_shape_renderings(alg_of):
    H = alg_of("A1")
    M = H.parabolic([])
    shape = f_shape(M, 1)
    assert shape.text_lines() == ["0\ts1:0:1", "1\te:1:1"]
    assert shape.to_json_obj() == [
        {"degree": 0, "terms": [{"word": "s1", "shift": 0, "mult": 1}]},
        {"degree": 1, "terms": [{"word": "e", "shift": 1, "mult": 1}]},
    ]
