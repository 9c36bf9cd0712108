"""Exact integer Laurent polynomials in one variable v.

The ring Z[v, v^-1] is the coefficient ring for everything downstream:
Kazhdan-Lusztig polynomials, graded ranks, Poincare polynomials.  A
polynomial is a sparse map exponent -> coefficient with no zero entries
stored, so structural equality of the maps is equality in the ring.
Values are immutable and shared across table entries: a Hecke algebra
interns the coefficients of its KL basis, so one object stands for every
equal entry.  The map `_c` must never be mutated; code that builds a
polynomial fills a fresh dict and wraps it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union

PolyLike = Union["LaurentPoly", int]


class NotDivisible(ArithmeticError):
    """Exact division failed: the dividend is not a multiple of the divisor."""


class LaurentPoly:
    """An element of Z[v, v^-1].

    >>> p = LaurentPoly({1: 1, -1: 1})
    >>> str(p * p)
    '1*v^-2 + 2*v^0 + 1*v^2'
    >>> p.bar() == p
    True
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        c: dict[int, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for e, k in items:
            k = c.get(e, 0) + k
            if k:
                c[e] = k
            elif e in c:
                del c[e]
        self._c = c

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        p = cls.__new__(cls)
        p._c = {exp: coeff} if coeff else {}
        return p

    @classmethod
    def const(cls, value: int) -> "LaurentPoly":
        return cls.monomial(0, value)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> "LaurentPoly":
        return cls((int(e), int(k)) for e, k in pairs)

    # -- queries ---------------------------------------------------------

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def min_degree(self) -> int | None:
        """Smallest exponent with nonzero coefficient, None for 0."""
        return min(self._c) if self._c else None

    def max_degree(self) -> int | None:
        return max(self._c) if self._c else None

    def is_nonneg(self) -> bool:
        """True iff every coefficient is >= 0."""
        return all(k >= 0 for k in self._c.values())

    def is_constant_nonneg_int(self) -> bool:
        """True iff the support is contained in {0} with value >= 0."""
        if not self._c:
            return True
        return set(self._c) == {0} and self._c[0] >= 0

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._c))

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    # -- ring operations -------------------------------------------------

    def __add__(self, other: PolyLike) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, k in other._c.items():
            k = c.get(e, 0) + k
            if k:
                c[e] = k
            elif e in c:
                del c[e]
        p = LaurentPoly.__new__(LaurentPoly)
        p._c = c
        return p

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        p = LaurentPoly.__new__(LaurentPoly)
        p._c = {e: -k for e, k in self._c.items()}
        return p

    def __sub__(self, other: PolyLike) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: PolyLike) -> "LaurentPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other: PolyLike) -> "LaurentPoly":
        if isinstance(other, int):
            # a zero factor must leave no zero coefficients behind
            p = LaurentPoly.__new__(LaurentPoly)
            p._c = {e: k * other for e, k in self._c.items()} if other else {}
            return p
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        c: dict[int, int] = {}
        if len(a) == 1:
            # a monomial factor shifts and scales: no two products share
            # an exponent, and Z has no zero divisors
            for e1, k1 in a.items():
                for e2, k2 in b.items():
                    c[e1 + e2] = k1 * k2
        else:
            for e1, k1 in a.items():
                for e2, k2 in b.items():
                    e = e1 + e2
                    k = c.get(e, 0) + k1 * k2
                    if k:
                        c[e] = k
                    elif e in c:
                        del c[e]
        p = LaurentPoly.__new__(LaurentPoly)
        p._c = c
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1 (negate every exponent)."""
        p = LaurentPoly.__new__(LaurentPoly)
        p._c = {-e: k for e, k in self._c.items()}
        return p

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, k in sorted(self._c.items()):
            if not parts:
                parts.append(f"-{-k}*v^{e}" if k < 0 else f"{k}*v^{e}")
            elif k < 0:
                parts.append(f" - {-k}*v^{e}")
            else:
                parts.append(f" + {k}*v^{e}")
        return "".join(parts)

    __repr__ = __str__

    def to_pairs(self) -> list[list[int]]:
        """JSON form: [exponent, coefficient] pairs in ascending exponent order."""
        return [[e, k] for e, k in sorted(self._c.items())]


def _as_poly(x: PolyLike) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to LaurentPoly")


def div_exact(a: PolyLike, b: PolyLike) -> LaurentPoly:
    """Return q with q * b == a, raising NotDivisible if none exists.

    Division runs top-down after shifting both arguments to ordinary
    polynomials with nonzero constant term; since v is a unit the shift
    never loses divisibility.
    """
    a, b = _as_poly(a), _as_poly(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return ZERO
    da, db = a.min_degree(), b.min_degree()
    rem = {e - da: k for e, k in a._c.items()}
    div = {e - db: k for e, k in b._c.items()}
    deg_b = max(div)
    lead_b = div[deg_b]
    q: dict[int, int] = {}
    while rem:
        deg_r = max(rem)
        if deg_r < deg_b:
            raise NotDivisible(f"({a}) is not divisible by ({b})")
        c, r = divmod(rem[deg_r], lead_b)
        if r:
            raise NotDivisible(f"({a}) is not divisible by ({b})")
        shift = deg_r - deg_b
        q[shift] = c
        for e, k in div.items():
            e += shift
            val = rem.get(e, 0) - c * k
            if val:
                rem[e] = val
            elif e in rem:
                del rem[e]
    return LaurentPoly({e + da - db: k for e, k in q.items()})


def dot(a: Mapping[int, LaurentPoly], b: Mapping[int, LaurentPoly]) -> LaurentPoly:
    """sum_w a_w * b_w over two sparse maps of polynomials.

    Walks the shorter map and sums every product into one exponent map,
    so no intermediate polynomial is built.
    """
    if len(b) < len(a):
        a, b = b, a
    c: dict[int, int] = {}
    for w, p in a.items():
        q = b.get(w)
        if q is not None:
            for e1, k1 in p._c.items():
                for e2, k2 in q._c.items():
                    e = e1 + e2
                    c[e] = c.get(e, 0) + k1 * k2
    out = LaurentPoly.__new__(LaurentPoly)
    out._c = {e: k for e, k in c.items() if k}
    return out


def vpow(exp: int, coeff: int = 1) -> LaurentPoly:
    """The monomial coeff * v^exp."""
    return LaurentPoly.monomial(exp, coeff)


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
V = vpow(1)
V_INV = vpow(-1)
