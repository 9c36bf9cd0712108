"""The parabolic left ideal H * KL_{w_I} and its two bases.

Elements are stored in the standard parabolic basis {P_x = H_x KL_{w_I}},
indexed by the minimal coset representatives x in W^I, on which each
KL_s acts by Deodhar's three cases (`kl_gen_mult`).  The parabolic KL
basis is PKL_x = KL_{x w_I}, read back through the ideal.  The inverse
parabolic KL polynomials, the solution g_{x,z} of

    sum_y (-1)^(l(y) - l(x)) g_{x,y} h_{y,z} = delta_{x,z},

come by KL duality from one KL element of H per row x:
g_{x,z} = sum_{u in W_I} (-v)^(l(u)) h_{w0 z w_I u, w0 x w_I}, which for
I = {} is the classical g_{x,z} = h_{w0 z, w0 x}.
"""

from __future__ import annotations

from typing import Mapping

from .hecke import HeckeAlgebra, HeckeElt, TermElt, _acc
from .laurent import LaurentPoly, ONE, V, V_INV, ZERO, _as_poly, dot, vpow

_V_PLUS_VINV = V + V_INV


class NotInIdeal(ValueError):
    """The Hecke element does not lie in the ideal H * KL_{w_I}."""


class ParabolicElt(TermElt):
    """An element of the ideal, written in the basis {H_x KL_{w_I}};
    scaling is its only product."""

    __slots__ = ()
    _label = "H^I"

    @property
    def module(self) -> "ParabolicModule":
        return self.owner


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
        self._wi_elems = self.system.subgroup(self.subset)
        self._pkl: dict[int, ParabolicElt] = {}
        self._rows: dict[int, dict[int, LaurentPoly]] = {}
        # shared values: h -> h v^(-l(w_I)) for `_restrict`, and the
        # interning table of the inverse rows
        self._down: dict[LaurentPoly, LaurentPoly] = {}
        self._gvals: dict[LaurentPoly, LaurentPoly] = {}
        self._dual: dict[int, tuple[int, int, int]] = {}

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

    # -- the action of H ---------------------------------------------------------

    def kl_gen_mult(self, s: int, p: ParabolicElt) -> ParabolicElt:
        """Left multiplication by KL_s = H_s + v (Deodhar, J. Algebra 111
        (1987)): on a standard term,

            KL_s P_x = P_{sx} + v P_x       if sx > x and sx in W^I,
            KL_s P_x = P_{sx} + v^-1 P_x    if sx < x,
            KL_s P_x = (v + v^-1) P_x       if sx not in W^I (sx = x t, t in I).
        """
        sys = self.system
        out: dict[int, LaurentPoly] = {}
        for x, c in p.terms.items():
            sx = sys._left[x][s]
            if sx not in self._rep_set:
                _acc(out, x, c * _V_PLUS_VINV)
            else:
                _acc(out, sx, c)
                _acc(out, x, c * (V if sys.lengths[sx] > sys.lengths[x] else V_INV))
        return ParabolicElt(self, out)

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

    def _restrict(self, terms: Mapping[int, LaurentPoly]) -> dict[int, LaurentPoly]:
        """Parabolic coefficients: H_y coefficients over v^(l(w_I)), y in W^I.

        Each distinct coefficient is divided once, so equal entries share
        one value, as the KL coefficients they come from do.
        """
        down = vpow(-self.shift)
        memo = self._down
        out = {}
        for y in self.reps:
            c = terms.get(y)
            if c is not None:
                d = memo.get(c)
                if d is None:
                    d = memo[c] = c * down
                out[y] = d
        return out

    def extract(self, h: HeckeElt) -> ParabolicElt:
        """Invert embed on the ideal, validated by re-embedding; raises
        NotInIdeal otherwise."""
        p = ParabolicElt(self, self._restrict(h.terms))
        if self.embed(p) != h:
            raise NotInIdeal("element is not in the ideal H * KL_{w_I}")
        return p

    # -- parabolic KL basis ---------------------------------------------------------

    def kl_basis(self, x: int) -> ParabolicElt:
        """PKL_x: the W^I coefficients of KL_{x w_I}; unitriangular at x."""
        cached = self._pkl.get(x)
        if cached is not None:
            return cached
        self._check_rep(x)
        kl = self.algebra.kl_basis(self.system.mult(x, self.w_long))
        p = self._pkl[x] = ParabolicElt(self, self._restrict(kl.terms))
        return p

    def kl_poly(self, y: int, x: int) -> LaurentPoly:
        """h_{y,x} in the parabolic module."""
        self._check_rep(y)
        return self.kl_basis(x).coeff(y)

    # -- inverse parabolic KL polynomials ----------------------------------------------

    def inverse_row(self, x: int) -> dict[int, LaurentPoly]:
        """{z: g_{x,z}} for all z >= x in W^I, zero values included.

        m = w0 x w_I is the minimal representative of w0 x W_I.  One pass
        over the support of KL_m sends each y = w0 z w_I u to the entry of
        z with the term (-v)^(l(u)) h_{y,m}.  The support is all of [e, m],
        and the coset w0 z W_I meets it exactly when x <= z, so the keys
        of the row are the upper Bruhat interval of x in W^I.
        """
        if x in self._rows:
            return self._rows[x]
        self._check_rep(x)
        sys = self.system
        if not self._dual:
            # w0 r u' -> (r, l(u), (-1)^l(u)) for r in W^I and u' = w_I u
            for r in self.reps:
                w0r = sys.mult(sys.longest, r)
                for u1 in self._wi_elems:
                    lu = self.shift - sys.lengths[u1]
                    self._dual[sys.mult(w0r, u1)] = (r, lu, -1 if lu % 2 else 1)
        m = sys.mult(sys.mult(sys.longest, x), self.w_long)
        acc: dict[int, dict[int, int]] = {}
        for y, h in self.algebra.kl_basis(m).terms.items():
            z, lu, sign = self._dual[y]
            c = acc.setdefault(z, {})
            for e, k in h.items():
                c[e + lu] = c.get(e + lu, 0) + sign * k
        vals = self._gvals
        row = self._rows[x] = {}
        for z, c in acc.items():
            g = LaurentPoly(c)
            row[z] = vals.setdefault(g, g)
        return row

    def inverse_kl(self, x: int, z: int) -> LaurentPoly:
        """g_{x,z} by KL duality: the z entry of `inverse_row(x)`, so 0
        unless x <= z, and g_{x,x} = 1."""
        row = self.inverse_row(x)
        self._check_rep(z)
        return row.get(z, ZERO)

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
