import pytest
from hypothesis import given, strategies as st

from heckekit.laurent import (
    PACK_BITS,
    LaurentPoly,
    NotDivisible,
    ONE,
    V,
    V_INV,
    ZERO,
    div_exact,
    dot,
    lincomb,
    pack,
    pack_shifted,
    unpack,
    vpow,
)

polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6),
)
nonzero_polys = polys.filter(bool)


def test_add_disjoint_supports():
    assert V + V_INV == LaurentPoly({1: 1, -1: 1})


def test_add_cancellation():
    assert V + (-V) == ZERO
    assert not (V - V)


def test_add_doubling():
    p = ONE + vpow(2)
    assert p + p == LaurentPoly({0: 2, 2: 2})


def test_mul_dihedral_square():
    p = V + V_INV
    assert p * p == LaurentPoly({2: 1, 0: 2, -2: 1})


def test_mul_zero_absorbs():
    assert (ONE + vpow(5) - vpow(-3)) * ZERO == ZERO


def test_mul_hand_convolution():
    a = ONE + vpow(2)
    b = ONE + vpow(2) + vpow(4)
    assert a * b == LaurentPoly({0: 1, 2: 2, 4: 2, 6: 1})


def test_bar_basics():
    assert V.bar() == V_INV
    assert (ONE + vpow(2)).bar() == ONE + vpow(-2)


def test_div_exact_self():
    p = ONE + vpow(2)
    assert div_exact(p, p) == ONE


def test_div_exact_shift():
    assert div_exact(V + vpow(3), ONE + vpow(2)) == V


def test_div_exact_remainder():
    with pytest.raises(NotDivisible):
        div_exact(ONE + V, ONE + vpow(2))


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        div_exact(ONE, ZERO)


def test_accessors():
    p = V + 2 * vpow(3)
    assert p.coeff(3) == 2
    assert p.coeff(17) == 0
    assert (vpow(-2) + V).min_degree() == -2
    assert ZERO.min_degree() is None
    assert not (V - vpow(2)).is_nonneg()
    assert (V + vpow(2)).is_nonneg()
    assert ZERO.is_nonneg()


def test_constant_nonneg_int():
    assert LaurentPoly.const(3).is_constant_nonneg_int()
    assert ZERO.is_constant_nonneg_int()
    assert not LaurentPoly.const(-1).is_constant_nonneg_int()
    assert not (V + ONE).is_constant_nonneg_int()


def test_text_rendering():
    assert str(ZERO) == "0"
    assert str(V + V_INV) == "1*v^-1 + 1*v^1"
    assert str(LaurentPoly({0: -2, 2: 1})) == "-2*v^0 + 1*v^2"
    assert str(LaurentPoly({0: 2, 2: -1})) == "2*v^0 - 1*v^2"


def test_json_pairs_roundtrip():
    p = LaurentPoly({-1: 3, 4: -2})
    assert p.to_pairs() == [[-1, 3], [4, -2]]
    assert LaurentPoly(p.to_pairs()) == p


def test_non_integers_rejected():
    # these once built 2.5*v^1 and v^0.5, and int() truncated 2.9 to 2
    for bad in ({1: 2.5}, {0.5: 1}, {1: "2"}):
        with pytest.raises(ValueError, match="must be integers"):
            LaurentPoly(bad)
    with pytest.raises(ValueError, match="must be integers"):
        LaurentPoly([[1, 2.9]])


def test_monomial_const_and_vpow_reject_non_integers():
    # these once printed 1*v^0.5, 2.5*v^1 and 1.5*v^0
    for build in (lambda: vpow(0.5), lambda: vpow(1, 2.5),
                  lambda: LaurentPoly.monomial(1, 2.5),
                  lambda: LaurentPoly.monomial("1"), lambda: LaurentPoly.const(1.5)):
        with pytest.raises(ValueError, match="must be integers"):
            build()
    # integer types that are not int are read as ints
    assert vpow(True, True) == V
    assert LaurentPoly.const(0) == ZERO and not LaurentPoly.monomial(3, 0)._c


def test_no_zero_coefficients_stored():
    p = LaurentPoly({0: 1, 2: 0, 5: -1})
    assert p.support() == (0, 5)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
def test_bar_is_ring_homomorphism(a, b):
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()
    assert a.bar().bar() == a


@given(polys, nonzero_polys)
def test_div_exact_roundtrip(a, b):
    assert div_exact(a * b, b) == a


# -- fast paths of __mul__: integer and monomial factors -------------------------

monomials = st.builds(
    LaurentPoly.monomial, st.integers(-6, 6), st.integers(-9, 9).filter(bool)
)


def _general_product(a, b):
    """The convolution written out, independent of any fast path."""
    out = {}
    for e1, k1 in a.items():
        for e2, k2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + k1 * k2
    return LaurentPoly(out)


@given(polys, st.integers(-20, 20))
def test_int_factor_agrees_with_const(p, k):
    expected = p * LaurentPoly.const(k)
    assert p * k == expected
    assert k * p == expected
    assert 0 not in (p * k)._c.values()


@given(polys)
def test_zero_int_factor_is_empty(p):
    for q in (p * 0, 0 * p, p * ZERO, ZERO * p):
        assert q == ZERO
        assert q._c == {}


@given(polys, monomials)
def test_monomial_factor_agrees_with_general_product(p, m):
    expected = _general_product(p, m)
    assert p * m == expected
    assert m * p == expected
    assert 0 not in (p * m)._c.values()


@given(polys, polys)
def test_products_store_no_zero_coefficients(a, b):
    assert a * b == _general_product(a, b)
    assert 0 not in (a * b)._c.values()


def _equal_copies(p):
    """p rebuilt along every constructor path."""
    return [
        # the opposite insertion order
        LaurentPoly(dict(reversed(list(p._c.items())))),
        sum((LaurentPoly.monomial(e, k) for e, k in p.items()), ZERO),
        p + ZERO,
        ZERO + p,
        p * 1,
        p * ONE,
        -(-p),
        p.bar().bar(),
        dot({0: p}, {0: ONE}),
    ]


@given(polys)
def test_equal_polys_hash_equally(p):
    fresh = _equal_copies(p)  # built while p has no cached hash
    h = hash(p)
    for q in fresh + _equal_copies(p):
        assert q == p
        assert hash(q) == h  # the first hash of q
        assert hash(q) == h  # the cached one
    assert hash(p) == h
    assert {p: "x"}[fresh[0]] == "x"
    # a value derived from a hashed operand hashes as its own value
    assert hash(-p) == hash(LaurentPoly({e: -k for e, k in p.items()}))
    assert hash(p.bar()) == hash(LaurentPoly({-e: k for e, k in p.items()}))


def test_constants_hash_as_the_ints_they_equal():
    # p == k for an int k, so hash(p) must be hash(k), or a dict or set
    # keyed by one misses the other
    for k, p in [(0, ZERO), (1, ONE), (-1, LaurentPoly.const(-1)),
                 (-1, LaurentPoly({0: -1, 2: 0}))]:
        assert p == k and hash(p) == hash(k)
        assert k in {p} and p in {k}
        assert {p: "a"}.get(k) == "a" and {k: "a"}.get(p) == "a"
    for p in [V, V_INV, ONE + V, LaurentPoly({0: 1, 2: -1}), vpow(-3)]:
        assert p not in {0, 1, -1}
        assert hash(p) == hash(LaurentPoly(dict(p.items())))


term_maps = st.dictionaries(st.integers(0, 5), polys, max_size=4)


@given(st.lists(st.tuples(polys, term_maps), max_size=4))
def test_lincomb_matches_term_by_term_sum(pairs):
    expected = {}
    for c, terms in pairs:
        for w, p in terms.items():
            expected[w] = expected.get(w, ZERO) + c * p
    out = lincomb(pairs)
    assert out == {w: p for w, p in expected.items() if p}
    assert all(0 not in p._c.values() for p in out.values())


@given(st.lists(st.tuples(polys, term_maps), max_size=4))
def test_lincomb_stores_no_zero_values(pairs):
    # every pair followed by its negation: the whole sum cancels
    cancelling = [pair for c, terms in pairs for pair in ((c, terms), (-c, terms))]
    assert lincomb(cancelling) == {}
    assert lincomb(iter(cancelling)) == {}
    assert lincomb([]) == {}


@given(term_maps, term_maps)
def test_dot_of_maps_without_a_common_index_is_the_shared_zero(a, b):
    b = {w + 6: p for w, p in b.items()}  # the keys of a lie in 0..5
    for x, y in ((a, b), (b, a)):
        out = dot(x, y)
        assert out is ZERO
        assert out == LaurentPoly()


# -- Kronecker packing -------------------------------------------------------------

HALF = 1 << (PACK_BITS - 1)
packable = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(0, 8),
                    st.one_of(st.integers(-9, 9), st.integers(-HALF + 1, HALF - 1)),
                    max_size=6),
)


@given(packable)
def test_pack_round_trip(p):
    n = pack(p)
    assert unpack(n) == p
    assert n == sum(k << (PACK_BITS * e) for e, k in p.items())
    # the v-shifts of the recursion are shifts of the packed value
    assert unpack(n << PACK_BITS) == p * V
    assert 0 not in unpack(n)._c.values()


@given(packable)
def test_pack_round_trip_narrow(p):
    small = LaurentPoly({e: max(-7, min(7, k)) for e, k in p.items()})
    assert unpack(pack(small, 4), 4) == small


def test_pack_extremes():
    for k in (HALF - 1, -HALF + 1):
        p = LaurentPoly({0: k, 3: -k, 5: 1})
        assert unpack(pack(p)) == p
    assert pack(ZERO) == 0 and unpack(0) == ZERO
    assert pack(ONE) == 1


def test_pack_rejects_negative_exponent_and_oversized_coefficient():
    with pytest.raises(ValueError, match="negative exponent -1"):
        pack(V_INV + V)
    for k in (HALF, -HALF, 3 * HALF):
        with pytest.raises(ValueError, match=f"coefficient {k} needs more than 64 bits"):
            pack(LaurentPoly({2: k}))
    with pytest.raises(ValueError, match="coefficient 8 needs more than 4 bits"):
        pack(vpow(1, 8), 4)


@given(packable, st.integers(0, 8))
def test_pack_shifted_round_trip(p, shift):
    assert unpack(pack_shifted(p, shift)) == vpow(shift) * p
    assert unpack(pack_shifted(p, shift), shift=shift) == p
    assert pack_shifted(p, shift) == pack(p) << (PACK_BITS * shift)
    assert pack_shifted(p, 0) == pack(p)


@given(packable, st.integers(8, 16))
def test_pack_shifted_reversal_is_bar_within_degree(p, d):
    # every exponent of p is at most 8, so v^d bar(p) lies in Z[v]
    n = pack_shifted(p, d, reverse=True)
    assert n == pack(vpow(d) * p.bar())
    assert unpack(n) == vpow(d) * p.bar()


def test_pack_shifted_rejects_negative_exponent_and_oversized_coefficient():
    with pytest.raises(ValueError, match=r"v\^1 \* \(1\*v\^-2\): negative exponent -1"):
        pack_shifted(vpow(-2), 1)
    # reversal within degree 2 sends v^3 to v^-1
    with pytest.raises(ValueError, match=r"v\^2 \* bar\(1\*v\^3\): negative exponent -1"):
        pack_shifted(vpow(3), 2, reverse=True)
    assert pack_shifted(vpow(-2), 2) == 1 == pack_shifted(vpow(2), 2, reverse=True)
    for k in (HALF, -HALF):
        with pytest.raises(ValueError, match=f"coefficient {k} needs more than 64 bits"):
            pack_shifted(LaurentPoly({1: k}), 3, reverse=True)
    with pytest.raises(ValueError, match="coefficient 8 needs more than 4 bits"):
        pack_shifted(vpow(1, 8), 2, bits=4)
