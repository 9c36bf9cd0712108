import itertools
import random

import pytest

from heckekit import e_shape, euler_hom, f_shape, shape_character
from heckekit.laurent import ONE, ZERO, div_exact
from heckekit.rouquier import ComplexShape

from oracles import signed_inverse_from_decomposition, trace_pairing

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
            assert M.extract(H.mult(H.std(x), M.ideal_gen)) == M.delta(x)


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


def test_e_shape_mirrors_f_shape(alg_of):
    H = alg_of("B3")
    M = H.parabolic([0, 1])
    for x in M.reps:
        fsh, esh = f_shape(M, x), e_shape(M, x)
        assert set(esh.terms) == {-d for d in fsh.terms}
        for deg, entries in fsh.terms.items():
            mirrored = tuple(sorted((y, -deg, m) for y, _, m in entries))
            assert esh.terms[-deg] == mirrored


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
            expected = M.extract(H.mult(H.bar(H.std(x)), M.ideal_gen))
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
                direct = div_exact(trace_pairing(H, h1, h2), M.poincare())
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
