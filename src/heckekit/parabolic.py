"""The parabolic left ideal H * KL_{w_I} and its two bases.

Elements are stored in the standard parabolic basis {P_x = H_x KL_{w_I}},
indexed by the minimal coset representatives x in W^I, on which each
KL_s acts by Deodhar's three cases (`kl_gen_mult`).  This is the
spherical module M; the antispherical module N differs only in
KL_s N_x = 0 where sx is not in W^I (Deodhar, J. Algebra 111 (1987);
Soergel, Represent. Theory 1 (1997), §3).  The KL bases of both are
`KLTable`s over W^I, the recursion of H (hecke.py) with the action above,
so no element of H is computed; for I = {} both modules are H and read
its table.  PKL_x embeds as KL_{x w_I}.  Every coset fact is read off
the system: rep[w] = min w W_I, so W^I is where rep[x] = x, KL_s reads
rep[sx], and P_y embeds onto each H_w with rep[w] = y; l(w_I); and
x -> w0 x w_I.  Over a `quotient.CosetSystem`, W^I enumerated without W,
every index is a rep and rep is the identity; `embed` and `extract`,
which need W, raise there.  The inverse
parabolic KL polynomials, the solution g_{x,z} of

    sum_y (-1)^(l(y) - l(x)) g_{x,y} h_{y,z} = delta_{x,z},

are by KL duality the coefficients g_{x,z} = n_{w0 z w_I, w0 x w_I} of
the KL basis of N, where Soergel's n_{y,x} = sum_{u in W_I} (-v)^(l(u))
h_{yu,x}; for I = {} this is the classical g_{x,z} = h_{w0 z, w0 x}.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping

from .hecke import Column, HeckeAlgebra, HeckeElt, KLTable, TermElt, _own
from .laurent import LaurentPoly, ONE, V, V_INV, ZERO, _as_poly, dot, vpow

_KL_M = (V_INV, V, V + V_INV)  # KL_s P_w in M: (lower, higher, fixed)


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
        self.system = sys = algebra.system
        self.subset = sys.subset(subset)
        self.shift = sys.longest_length_in(self.subset)
        self.reps = sys.min_reps(self.subset)
        self._rep = sys._coset_reps(self.subset)
        # r -> w0 r w_I, an order-reversing involution of W^I
        self._opposite = sys.opposites(self.subset)
        # KL_s and the KL tables of M and N, N's the one store of g: H's for I = {}
        self._left = sys._left
        self._pkl = self._nkl = algebra._kl
        if self.subset:
            # KL_s on W^I: sw, or w where sw = w t with t in I (Deodhar 1987)
            self._left = sys.coset_action(self.subset)
            self._pkl = KLTable(sys, self._left, True, algebra._packing, self.subset)
            self._nkl = KLTable(sys, self._left, False, algebra._packing, self.subset)

    @property
    def w_long(self) -> int:
        """w_I, the longest element of W_I: an element of W, so not
        available over a `CosetSystem`."""
        return self.system.longest_in(self.subset)

    def subset_labels(self) -> list[str]:
        return [self.system.gen_label(s) for s in sorted(self.subset)]

    def _check_rep(self, w: int) -> int:
        self.system._check_element(w)
        if self._rep[w] != w:
            raise ValueError(
                f"{self.system.word_str(w)} is not a minimal coset "
                f"representative for I = {{{', '.join(self.subset_labels())}}}"
            )
        return w

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
        """Left multiplication by KL_s = H_s + v: the KL_s row of the
        generator table in hecke.py, and KL_s P_x = (v + v^-1) P_x where sx
        is not in W^I, i.e. sx = x t with t in I (Deodhar 1987)."""
        return ParabolicElt(self, self.algebra._gen_terms(
            _own(self, p), s, self._left, _KL_M))

    # -- embedding into the Hecke algebra ----------------------------------------

    def embed(self, p: ParabolicElt) -> HeckeElt:
        """Expand in the standard basis of H, one pass over W.

        For y in W^I the lengths l(y u) = l(y) + l(u) add over u in W_I,
        so H_y KL_{w_I} = sum_u v^(l(w_I) - l(u)) H_{y u}: each H_w takes
        the coefficient of its rep y = rep[w] times v^(l(w_I) - l(w) + l(y)).
        """
        if self.system.tree is None:  # W^I alone (quotient.py)
            raise ValueError("a module over W^I alone has no embedding into H")
        terms, lengths = p.terms, self.system.lengths
        return HeckeElt(self.algebra, {
            w: terms[y] * vpow(self.shift - lengths[w] + lengths[y])
            for w, y in enumerate(self._rep) if y in terms})

    def extract(self, h: HeckeElt) -> ParabolicElt:
        """Invert embed on the ideal, reading the H_y coefficients over
        v^(l(w_I)) at y in W^I, validated by re-embedding; raises
        NotInIdeal otherwise."""
        down = vpow(-self.shift)
        p = ParabolicElt(self, {y: c * down for y, c in h.terms.items()
                                if self._rep[y] == y})
        if self.embed(p) != h:
            raise NotInIdeal("element is not in the ideal H * KL_{w_I}")
        return p

    # -- parabolic KL basis ---------------------------------------------------------

    def kl_basis(self, x: int) -> ParabolicElt:
        """PKL_x, the KL element of x in M; unitriangular at x."""
        return ParabolicElt(self, Column(*self._pkl[self._check_rep(x)]))

    def from_kl(self, pairs: Iterable[tuple[int, LaurentPoly]]) -> ParabolicElt:
        """sum_y c_y PKL_y over (y, c_y) pairs, in the standard basis; a y
        may occur in several pairs.  Every column is read first, then
        summed over packed ints by the algebra's `Packing.column_sum`."""
        return ParabolicElt(self, self.algebra._packing.column_sum(
            [(c, self._pkl[self._check_rep(y)]) for y, c in pairs]))

    def kl_poly(self, y: int, x: int) -> LaurentPoly:
        """h_{y,x} in the parabolic module."""
        self._check_rep(y)
        return self.kl_basis(x).coeff(y)

    # -- inverse parabolic KL polynomials ----------------------------------------------

    def inverse_row(self, x: int) -> dict[int, LaurentPoly]:
        """{z: g_{x,z}} for all z >= x in W^I, zero values included, in a
        fresh dict: the KL element of m = w0 x w_I in N (KL_m in H for
        I = {}) reindexed by r -> w0 r w_I.  Its keys are [e, m] in W^I,
        and the reindexing reverses the Bruhat order, so they are the upper
        interval of x."""
        self._check_rep(x)
        opposite = self._opposite
        return {opposite[r]: g for r, g in zip(*self._nkl[opposite[x]])}

    def inverse_col(self, z: int) -> dict[int, LaurentPoly]:
        """{x: g_{x,z}} for all x <= z in W^I, x ascending, zero values
        included: over the keys x of the KL element of z in N, [e, z] in
        W^I, the w0 z w_I entry of the KL element of w0 x w_I in N, found
        by bisecting that column's keys."""
        self._check_rep(z)
        nkl, opposite = self._nkl, self._opposite
        xs, oz = nkl[z][0], opposite[z]
        cols = map(nkl.__getitem__, map(opposite.__getitem__, xs))
        return {x: hs[bisect_left(ys, oz)] for x, (ys, hs) in zip(xs, cols)}

    def inverse_kl(self, x: int, z: int) -> LaurentPoly:
        """g_{x,z} by KL duality: the entry at w0 z w_I of the KL element
        of w0 x w_I in N, so 0 unless x <= z, and g_{x,x} = 1."""
        self._check_rep(x)
        col = Column(*self._nkl[self._opposite[x]])
        self._check_rep(z)
        return col.get(self._opposite[z], ZERO)

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

        the Hom formula for singular Soergel bimodules, taken as the
        dot of P and bar_I Q that `pair_embedded_std` reads."""
        p = self.from_kl(p_coeffs.items())
        q_bar = self.from_kl((z, d.bar()) for z, d in q_coeffs.items())
        return dot(p.terms, q_bar.terms)
