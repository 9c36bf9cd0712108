"""The parabolic left ideal H * KL_{w_I} and its two bases.

Elements are stored in the standard parabolic basis {P_x = H_x KL_{w_I}},
indexed by the minimal coset representatives x in W^I.  The parabolic KL
basis is PKL_x = KL_{x w_I}, read back through the ideal; the inverse
parabolic KL polynomials g_{x,z} solve the triangular system

    sum_y (-1)^(l(y) - l(x)) g_{x,y} h_{y,z} = delta_{x,z}

by back-substitution over the Bruhat interval in W^I, with g_{x,x} = 1.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .hecke import HeckeAlgebra, HeckeElt, _acc
from .laurent import LaurentPoly, ONE, ZERO, _as_poly, dot, vpow


class NotInIdeal(ValueError):
    """The Hecke element does not lie in the ideal H * KL_{w_I}."""


class ParabolicElt:
    """An element of the ideal, written in the basis {H_x KL_{w_I}}."""

    __slots__ = ("module", "terms")

    def __init__(self, module: "ParabolicModule", terms: dict[int, LaurentPoly]):
        self.module = module
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
        if not isinstance(other, ParabolicElt):
            return NotImplemented
        return self.module is other.module and self.terms == other.terms

    def __add__(self, other: "ParabolicElt") -> "ParabolicElt":
        terms = dict(self.terms)
        for w, p in other.terms.items():
            _acc(terms, w, p)
        return ParabolicElt(self.module, terms)

    def __neg__(self) -> "ParabolicElt":
        return ParabolicElt(self.module, {w: -p for w, p in self.terms.items()})

    def __sub__(self, other: "ParabolicElt") -> "ParabolicElt":
        return self + (-other)

    def __mul__(self, other) -> "ParabolicElt":
        c = _as_poly(other)
        if not c:
            return ParabolicElt(self.module, {})
        return ParabolicElt(self.module, {w: p * c for w, p in self.terms.items()})

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        sys = self.module.system
        return " + ".join(
            f"({self.terms[w]}) * H^I[{sys.word_str(w)}]" for w in sorted(self.terms)
        )

    __repr__ = __str__

    def to_json_obj(self) -> list[dict]:
        sys = self.module.system
        return [
            {"word": sys.word_str(w), "poly": self.terms[w].to_pairs()}
            for w in sorted(self.terms)
        ]

    def items(self) -> Iterator[tuple[int, LaurentPoly]]:
        return iter(sorted(self.terms.items()))


class ParabolicModule:
    """The ideal H * KL_{w_I} for a finitary subset I of the generators."""

    def __init__(self, algebra: HeckeAlgebra, subset):
        self.algebra = algebra
        self.system = algebra.system
        self.subset = self.system.subset(subset)
        self.w_long = self.system.longest_in(self.subset)
        self.shift = self.system.lengths[self.w_long]
        self.reps = self.system.min_reps(self.subset)
        self._rep_set = frozenset(self.reps)
        self.ideal_gen = algebra.kl_ideal_generator(self.subset)
        self._wi_elems = self.system.subgroup(self.subset)
        self._pkl: dict[int, ParabolicElt] = {}
        self._g: dict[tuple[int, int], LaurentPoly] = {}

    def poincare(self) -> LaurentPoly:
        return self.system.poincare(self.subset)

    def subset_labels(self) -> list[str]:
        return [self.system.gen_label(s) for s in sorted(self.subset)]

    def _check_rep(self, w: int) -> None:
        if w not in self._rep_set:
            raise ValueError(
                f"{self.system.word_str(w)} is not a minimal coset "
                f"representative for I = {{{', '.join(self.subset_labels())}}}"
            )

    # -- constructors ---------------------------------------------------------

    def elt(self, terms: Mapping[int, LaurentPoly | int]) -> ParabolicElt:
        out: dict[int, LaurentPoly] = {}
        for w, c in terms.items():
            self._check_rep(w)
            p = _as_poly(c)
            if p:
                out[w] = p
        return ParabolicElt(self, out)

    def zero(self) -> ParabolicElt:
        return ParabolicElt(self, {})

    def delta(self, x: int) -> ParabolicElt:
        """The standard basis element H_x KL_{w_I}."""
        self._check_rep(x)
        return ParabolicElt(self, {x: ONE})

    # -- embedding into the Hecke algebra ----------------------------------------

    def embed(self, p: ParabolicElt) -> HeckeElt:
        """Expand in the standard basis of H.

        For y in W^I the lengths l(y u) = l(y) + l(u) add over u in W_I,
        so H_y KL_{w_I} = sum_u v^(l(w_I) - l(u)) H_{y u} term by term.
        """
        sys = self.system
        out: dict[int, LaurentPoly] = {}
        for y, c in p.terms.items():
            for u in self._wi_elems:
                w = sys.mult(y, u)
                _acc(out, w, c * vpow(self.shift - sys.lengths[u]))
        return HeckeElt(self.algebra, out)

    def extract(self, h: HeckeElt) -> ParabolicElt:
        """Invert embed on the ideal; raises NotInIdeal otherwise.

        The coefficient of H_y for y in W^I picks out the u = id term of
        the closed form, so it is v^(l(w_I)) times the parabolic
        coefficient; the result is validated by re-embedding.
        """
        down = vpow(-self.shift)
        terms: dict[int, LaurentPoly] = {}
        for y in self.reps:
            c = h.terms.get(y)
            if c is not None:
                terms[y] = c * down
        p = ParabolicElt(self, terms)
        if self.embed(p) != h:
            raise NotInIdeal("element is not in the ideal H * KL_{w_I}")
        return p

    # -- parabolic KL basis ---------------------------------------------------------

    def kl_basis(self, x: int) -> ParabolicElt:
        """PKL_x = KL_{x w_I} read through the ideal; unitriangular at x."""
        cached = self._pkl.get(x)
        if cached is not None:
            return cached
        self._check_rep(x)
        top = self.system.mult(x, self.w_long)
        p = self.extract(self.algebra.kl_basis(top))
        self._pkl[x] = p
        return p

    def kl_poly(self, y: int, x: int) -> LaurentPoly:
        """h_{y,x} in the parabolic module, cross-checked against the
        identity h_{y,x} = h_{y w_I, x w_I} in H."""
        self._check_rep(y)
        p = self.kl_basis(x).coeff(y)
        sys = self.system
        q = self.algebra.kl_poly(sys.mult(y, self.w_long), sys.mult(x, self.w_long))
        assert p == q, "parabolic KL polynomial disagrees with h_{y w_I, x w_I}"
        return p

    # -- inverse parabolic KL polynomials ----------------------------------------------

    def inverse_kl(self, x: int, z: int) -> LaurentPoly:
        """g_{x,z}: back-substitution over [x, z] in W^I; g_{x,x} = 1."""
        self._check_rep(x)
        self._check_rep(z)
        if x == z:
            return ONE
        if not self.system.bruhat_leq(x, z):
            return ZERO
        key = (x, z)
        cached = self._g.get(key)
        if cached is not None:
            return cached
        sys = self.system
        lx = sys.lengths[x]
        total = ZERO
        for y, hyz in self.kl_basis(z).terms.items():
            if y == z or not sys.bruhat_leq(x, y):
                continue
            g = self.inverse_kl(x, y)
            if g:
                sign = -1 if (sys.lengths[y] - lx) % 2 else 1
                total = total + sign * (g * hyz)
        sign_z = -1 if (sys.lengths[z] - lx) % 2 else 1
        result = (-sign_z) * total
        self._g[key] = result
        return result

    # -- Hom pairings over W^I ----------------------------------------------------

    # embed(P_x) = sum_u v^(l(w_I) - l(u)) H_{x u} over u in W_I, and the
    # cosets x W_I are disjoint, so under the orthonormal pairing of H
    #     ( embed(P), embed(Q) ) = pi_I * sum_x P_x Q_x,
    # where pi_I = sum_u v^(2 l(u)) is the Poincare polynomial of W_I.
    # embed(PKL_z) = KL_{z w_I} is bar-invariant, so bar(embed(Q)) is the
    # embedding of bar_I Q = sum_z bar(b_z) PKL_z for Q = sum_z b_z PKL_z.
    # Both forms below are these pairings divided by pi_I.

    def pair_embedded_std(self, p_terms: Mapping[int, LaurentPoly],
                          q_bar_terms: Mapping[int, LaurentPoly]) -> LaurentPoly:
        """(embed(P), bar(embed(Q))) / pi_I = sum_w P_w (bar_I Q)_w.

        Both maps are standard-basis coefficients; the second is the
        bar-twisted bar_I Q = sum_z bar(b_z) PKL_z, not Q itself.
        """
        return dot(p_terms, q_bar_terms)

    def pair_embedded_kl(self, p_coeffs: Mapping[int, LaurentPoly],
                         q_coeffs: Mapping[int, LaurentPoly]) -> LaurentPoly:
        """(embed(P), bar(embed(Q))) / pi_I for KL-basis coefficient maps:

            sum_{y,z} p_y bar(q_z) sum_w h^I_{w,y} h^I_{w,z},

        the Hom formula for singular Soergel bimodules; each column dot
        runs over the shorter of the two parabolic KL columns.
        """
        total = ZERO
        for y, c in p_coeffs.items():
            col_y = self.kl_basis(y).terms
            for z, d in q_coeffs.items():
                hom = dot(col_y, self.kl_basis(z).terms)
                if hom:
                    total = total + c * d.bar() * hom
        return total
