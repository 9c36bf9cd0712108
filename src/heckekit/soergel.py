"""Character-level calculus for singular Soergel bimodules.

A Character stores the expansion of an ideal element in the parabolic KL
basis {PKL_y}; under the KL dictionary its coefficients are the graded
multiplicities of the indecomposable objects.  On top of that sit the
Bott-Samelson characters, the Hom-formula graded ranks, the support
graded ranks and the perversity test.
"""

from __future__ import annotations

from typing import Iterator

# div_exact: see the note in rouquier.py.
from .laurent import LaurentPoly, ONE, ZERO, div_exact, vpow  # noqa: F401
from .parabolic import ParabolicElt, ParabolicModule


class Character:
    """A finite map (element of W^I) -> LaurentPoly of KL-basis coefficients."""

    __slots__ = ("module", "coeffs")

    def __init__(self, module: ParabolicModule, coeffs: dict[int, LaurentPoly]):
        self.module = module
        self.coeffs = coeffs

    def coeff(self, y: int) -> LaurentPoly:
        return self.coeffs.get(y, ZERO)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return self.module is other.module and self.coeffs == other.coeffs

    def items(self) -> Iterator[tuple[int, LaurentPoly]]:
        return iter(sorted(self.coeffs.items()))

    def to_parabolic(self) -> ParabolicElt:
        """Expand back into the standard parabolic basis."""
        acc = self.module.zero()
        for y, c in self.coeffs.items():
            acc = acc + c * self.module.kl_basis(y)
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        sys = self.module.system
        return " + ".join(
            f"({self.coeffs[y]}) * PKL[{sys.word_str(y)}]"
            for y in sorted(self.coeffs)
        )

    __repr__ = __str__

    def to_json_obj(self) -> dict:
        sys = self.module.system
        return {
            "subset": self.module.subset_labels(),
            "coeffs": [
                {"word": sys.word_str(y), "poly": self.coeffs[y].to_pairs()}
                for y in sorted(self.coeffs)
            ],
        }


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
        c = work.pop(y)
        out[y] = c
        for z, h in module.kl_basis(y).terms.items():
            if z == y:
                continue
            val = work.get(z, ZERO) - c * h
            if val:
                work[z] = val
            elif z in work:
                del work[z]
    return Character(module, out)


def bott_samelson_char(module: ParabolicModule, word) -> Character:
    """Character of the Bott-Samelson object of a generator word over I:
    KL_{s_1} ... KL_{s_k} KL_{w_I}, decomposed in the parabolic KL basis."""
    algebra = module.algebra
    h = module.ideal_gen
    for s in reversed(tuple(word)):
        h = algebra.kl_gen_mult(s, h)
    return kl_decompose(module.extract(h))


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
