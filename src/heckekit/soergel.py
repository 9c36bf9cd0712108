"""Character-level calculus for singular Soergel bimodules.

A Character is the expansion of an element of the parabolic module in
its KL basis {PKL_y}, y in W^I: a `TermElt` over W^I printed as
`(c) * PKL[word]`.  Under the KL dictionary its coefficients are the
graded multiplicities of the indecomposable objects.  On top of that sit
the Bott-Samelson characters, the Hom-formula graded ranks, the support
graded ranks and the perversity test, all computed over W^I.
"""

from __future__ import annotations

from .hecke import TermElt, _acc
# div_exact: see the note in rouquier.py.
from .laurent import LaurentPoly, ONE, div_exact, vpow  # noqa: F401
from .parabolic import _KL_M, ParabolicElt, ParabolicModule


class Character(TermElt):
    """A finite map (element of W^I) -> LaurentPoly of KL-basis
    coefficients; `coeffs` and `module` name `terms` and `owner`."""

    __slots__ = ()
    _label = "PKL"

    @property
    def module(self) -> ParabolicModule:
        return self.owner

    @property
    def coeffs(self) -> dict[int, LaurentPoly]:
        return self.terms

    def to_json_obj(self) -> dict:
        return {"subset": self.module.subset_labels(),
                "coeffs": super().to_json_obj()}


def delta_char(module: ParabolicModule, x: int) -> Character:
    """The character of a single unshifted KL-basis object."""
    module._check_rep(x)
    return Character(module, {x: ONE})


def kl_decompose(p: ParabolicElt) -> Character:
    """Expand a standard-basis element in the parabolic KL basis.

    Back-substitution from the top of the Bruhat order on the support;
    unitriangularity of PKL_y makes the expansion unique.
    """
    module = p.module
    work = dict(p.terms)
    out: dict[int, LaurentPoly] = {}
    while work:
        y = max(work)  # enumeration order refines Bruhat order
        c = out[y] = work.pop(y)
        nc = -c
        for z, h in module.kl_basis(y).terms.items():
            if z != y:
                _acc(work, z, nc * h)
    return Character(module, out)


def bott_samelson_char(module: ParabolicModule, word) -> Character:
    """Character of the Bott-Samelson object of a generator word over I:
    KL_{s_1} ... KL_{s_k} KL_{w_I}, multiplied out from P_e = KL_{w_I} by
    the KL_s row of `ParabolicModule.kl_gen_mult`, as one chain of
    generator steps (hecke.py), and decomposed in the parabolic KL basis."""
    terms = module.algebra._steps({0: ONE}, reversed(tuple(word)), module._left, _KL_M)
    return kl_decompose(ParabolicElt(module, terms))


def graded_hom_rank(c1: Character, c2: Character) -> LaurentPoly:
    """Graded rank of the Hom space between objects with these characters.

    By the Hom formula, grk Hom(B_x, B_y) = sum_z h^I_{z,x} h^I_{z,y} over
    W^I, extended bilinearly with the second character bar-twisted.  It
    equals the Hecke pairing of the embedded characters divided by the
    Poincare polynomial of W_I, because the standard basis of H is
    orthonormal (see `ParabolicModule.pair_embedded_kl`).
    """
    if c1.module is not c2.module:
        raise ValueError("characters live over different parabolic modules")
    return c1.module.pair_embedded_kl(c1.coeffs, c2.coeffs)


def support_graded_ranks(p: ParabolicElt) -> dict[int, LaurentPoly]:
    """Graded rank of the x-th support subquotient for each x in the
    support: bar of the standard-basis coefficient times v^l(x)."""
    sys = p.module.system
    return {
        x: c.bar() * vpow(sys.lengths[x]) for x, c in sorted(p.terms.items())
    }


def is_perverse(c: Character) -> bool:
    """True iff every KL coefficient is a constant nonnegative integer."""
    return all(p.is_constant_nonneg_int() for p in c.coeffs.values())
