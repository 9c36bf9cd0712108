"""The Hecke algebra of a finite Coxeter system over Z[v, v^-1].

Standard basis {H_w} with the quadratic relation H_s^2 = -(v - v^-1) H_s + 1
and braid relations; bar involution fixing each H_s^-1 = H_s + (v - v^-1);
Kazhdan-Lusztig basis {KL_w}, the unique bar-invariant basis with
KL_x = H_x + sum_{y < x} h_{y,x} H_y and h_{y,x} in vZ[v].

Multiplying H_w on either side by a generator follows the rule forced by
length additivity and the quadratic relation:

    H_w * H_s = H_{ws}                      if ws > w,
    H_w * H_s = H_{ws} + (v^-1 - v) H_w     if ws < w,

and symmetrically on the left.  The bar involution is the ring
homomorphism with bar(v) = v^-1 and bar(H_s) = H_s^-1, so on a basis
element bar(H_w) = H_{s1}^-1 ... H_{sk}^-1 for any reduced word
w = s1 ... sk, i.e. bar(H_w) = (H_{w^-1})^-1.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .coxeter import CoxeterSystem
from .laurent import LaurentPoly, ONE, V, V_INV, ZERO, _as_poly, dot

_V_MINUS_VINV = V - V_INV
_VINV_MINUS_V = V_INV - V


def _acc(terms: dict[int, LaurentPoly], w: int, p: LaurentPoly) -> None:
    q = terms.get(w)
    q = p if q is None else q + p
    if q:
        terms[w] = q
    elif w in terms:
        del terms[w]


class HeckeElt:
    """An element of the Hecke algebra in the standard basis.

    `terms` maps element indices to nonzero Laurent polynomials.
    Instances are arithmetic values: +, -, * (algebra product for
    HeckeElt operands, scalar action for LaurentPoly / int).
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "HeckeAlgebra", terms: dict[int, LaurentPoly]):
        self.algebra = algebra
        self.terms = terms

    def coeff(self, w: int) -> LaurentPoly:
        return self.terms.get(w, ZERO)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        terms = dict(self.terms)
        for w, p in other.terms.items():
            _acc(terms, w, p)
        return HeckeElt(self.algebra, terms)

    def __neg__(self) -> "HeckeElt":
        return HeckeElt(self.algebra, {w: -p for w, p in self.terms.items()})

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        return self + (-other)

    def __mul__(self, other) -> "HeckeElt":
        if isinstance(other, HeckeElt):
            return self.algebra.mult(self, other)
        return self._scaled(_as_poly(other))

    def __rmul__(self, other) -> "HeckeElt":
        return self._scaled(_as_poly(other))

    def _scaled(self, c: LaurentPoly) -> "HeckeElt":
        if not c:
            return HeckeElt(self.algebra, {})
        return HeckeElt(self.algebra, {w: p * c for w, p in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        sys = self.algebra.system
        return " + ".join(
            f"({self.terms[w]}) * H[{sys.word_str(w)}]" for w in sorted(self.terms)
        )

    __repr__ = __str__

    def to_json_obj(self) -> list[dict]:
        sys = self.algebra.system
        return [
            {"word": sys.word_str(w), "poly": self.terms[w].to_pairs()}
            for w in sorted(self.terms)
        ]

    def items(self) -> Iterator[tuple[int, LaurentPoly]]:
        return iter(sorted(self.terms.items()))


class HeckeAlgebra:
    """Hecke algebra attached to a CoxeterSystem.

    Keeps per-system memo tables: bar of standard basis elements, the
    Kazhdan-Lusztig basis and the interning table `_polys` that maps each
    KL coefficient to the one shared object standing for every equal
    entry.  Queries are pure in (system, arguments).
    """

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._bar_basis: dict[int, dict[int, LaurentPoly]] = {0: {0: ONE}}
        self._kl: dict[int, HeckeElt] = {}
        self._polys: dict[LaurentPoly, LaurentPoly] = {}
        self._ideal: dict[frozenset[int], HeckeElt] = {}
        self._parabolic: dict[frozenset[int], object] = {}

    # -- constructors -------------------------------------------------------

    def elt(self, terms: Mapping[int, LaurentPoly | int]) -> HeckeElt:
        out: dict[int, LaurentPoly] = {}
        for w, c in terms.items():
            if not 0 <= w < self.system.size:
                raise ValueError(f"element index {w} out of range")
            p = _as_poly(c)
            if p:
                out[w] = p
        return HeckeElt(self, out)

    def zero(self) -> HeckeElt:
        return HeckeElt(self, {})

    def unit(self) -> HeckeElt:
        return HeckeElt(self, {0: ONE})

    def std(self, w: int) -> HeckeElt:
        """The standard basis element H_w."""
        if not 0 <= w < self.system.size:
            raise ValueError(f"element index {w} out of range")
        return HeckeElt(self, {w: ONE})

    # -- multiplication -------------------------------------------------------

    def _gen_right_raw(self, terms: dict[int, LaurentPoly], s: int) -> dict:
        sys = self.system
        out: dict[int, LaurentPoly] = {}
        for w, c in terms.items():
            ws = sys._right[w][s]
            _acc(out, ws, c)
            if sys.lengths[ws] < sys.lengths[w]:
                _acc(out, w, c * _VINV_MINUS_V)
        return out

    def _gen_left_raw(self, terms: dict[int, LaurentPoly], s: int) -> dict:
        sys = self.system
        out: dict[int, LaurentPoly] = {}
        for w, c in terms.items():
            sw = sys._left[w][s]
            _acc(out, sw, c)
            if sys.lengths[sw] < sys.lengths[w]:
                _acc(out, w, c * _VINV_MINUS_V)
        return out

    def mult_gen_right(self, h: HeckeElt, s: int) -> HeckeElt:
        """h * H_s."""
        return HeckeElt(self, self._gen_right_raw(h.terms, s))

    def mult(self, h1: HeckeElt, h2: HeckeElt) -> HeckeElt:
        """The algebra product, expanding h2 along canonical reduced words."""
        sys = self.system
        out: dict[int, LaurentPoly] = {}
        for y, d in h2.terms.items():
            cur = {w: c * d for w, c in h1.terms.items()}
            for s in sys.words[y]:
                cur = self._gen_right_raw(cur, s)
            for w, c in cur.items():
                _acc(out, w, c)
        return HeckeElt(self, out)

    def kl_gen_mult(self, s: int, h: HeckeElt) -> HeckeElt:
        """Left multiplication by KL_s = H_s + v.

        On a standard term: KL_s H_w = H_{sw} + v H_w if sw > w, and
        H_{sw} + v^-1 H_w if sw < w.
        """
        sys = self.system
        out: dict[int, LaurentPoly] = {}
        for w, c in h.terms.items():
            sw = sys._left[w][s]
            _acc(out, sw, c)
            if sys.lengths[sw] > sys.lengths[w]:
                _acc(out, w, c * V)
            else:
                _acc(out, w, c * V_INV)
        return HeckeElt(self, out)

    # -- bar involution ---------------------------------------------------------

    def _bar_of_basis(self, w: int) -> dict[int, LaurentPoly]:
        cached = self._bar_basis.get(w)
        if cached is not None:
            return cached
        sys = self.system
        s = sys.words[w][0]
        rest = self._bar_of_basis(sys._left[w][s])
        # bar(H_w) = H_s^-1 * bar(H_{s w}) = (H_s + (v - v^-1)) * bar(H_{s w})
        out = self._gen_left_raw(rest, s)
        for u, c in rest.items():
            _acc(out, u, c * _V_MINUS_VINV)
        self._bar_basis[w] = out
        return out

    def bar(self, h: HeckeElt) -> HeckeElt:
        """The bar involution: coefficients v -> v^-1, H_w -> (H_{w^-1})^-1."""
        out: dict[int, LaurentPoly] = {}
        for w, c in h.terms.items():
            cb = c.bar()
            for u, p in self._bar_of_basis(w).items():
                _acc(out, u, p * cb)
        return HeckeElt(self, out)

    # -- Kazhdan-Lusztig basis -----------------------------------------------------

    def kl_basis(self, x: int) -> HeckeElt:
        """KL_x, by the inductive algorithm on the smallest left descent:

            KL_x = KL_s KL_{sx} - sum_z mu(z, sx) KL_z

        over z < sx with sz < z, where mu is the coefficient of v.  The
        sum is taken in place in the fresh terms of KL_s KL_{sx}, and each
        coefficient is then replaced by its interned copy.
        """
        cached = self._kl.get(x)
        if cached is not None:
            return cached
        sys = self.system
        if x == 0:
            result = self.unit()
        else:
            s = sys.words[x][0]
            y = sys._left[x][s]
            below = self.kl_basis(y)
            result = self.kl_gen_mult(s, below)
            for z, hzy in below.terms.items():
                if z == y:
                    continue
                m = hzy.coeff(1)
                if m and sys.lengths[sys._left[z][s]] < sys.lengths[z]:
                    for w, p in self.kl_basis(z).terms.items():
                        _acc(result.terms, w, p * -m)
        polys = self._polys
        for w, p in result.terms.items():
            result.terms[w] = polys.setdefault(p, p)
        self._kl[x] = result
        return result

    def kl_poly(self, y: int, x: int) -> LaurentPoly:
        """h_{y,x}: the H_y coefficient of KL_x (0 unless y <= x)."""
        return self.kl_basis(x).coeff(y)

    def mu(self, y: int, x: int) -> int:
        """The coefficient of v in h_{y,x}."""
        return self.kl_poly(y, x).coeff(1)

    # -- trace, anti-involution, pairing ----------------------------------------

    def a_inv(self, h: HeckeElt) -> HeckeElt:
        """The anti-involution a: H_x -> H_{x^-1}, fixing coefficients."""
        inv = self.system._inv
        return HeckeElt(self, {inv[w]: c for w, c in h.terms.items()})

    def eps(self, h: HeckeElt) -> LaurentPoly:
        """The trace: the coefficient of H_id."""
        return h.terms.get(0, ZERO)

    def pairing(self, h1: HeckeElt, h2: HeckeElt) -> LaurentPoly:
        """(h1, h2) = eps(a(h1) * h2) = sum_w h1_w * h2_w.

        The standard basis is orthonormal, eps(H_{x^-1} H_y) = delta_{x,y}
        (the `pairing` verify suite multiplies every such product out), so
        the pairing is the coefficient dot product.
        """
        return dot(h1.terms, h2.terms)

    # -- parabolic ideal generator -------------------------------------------------

    def kl_ideal_generator(self, subset) -> HeckeElt:
        """KL_{w_I} by its closed form sum_{x in W_I} v^(l(w_I) - l(x)) H_x."""
        key = self.system.subset(subset)
        cached = self._ideal.get(key)
        if cached is not None:
            return cached
        sys = self.system
        elems = sys.subgroup(key)
        top = sys.lengths[elems[-1]]
        h = HeckeElt(
            self, {x: LaurentPoly.monomial(top - sys.lengths[x]) for x in elems}
        )
        assert h == self.kl_basis(elems[-1]), "closed form disagrees with recursion"
        self._ideal[key] = h
        return h

    def parabolic(self, subset):
        """The parabolic module H * KL_{w_I}, cached per subset."""
        from .parabolic import ParabolicModule

        key = self.system.subset(subset)
        mod = self._parabolic.get(key)
        if mod is None:
            mod = ParabolicModule(self, key)
            self._parabolic[key] = mod
        return mod
