"""Graded shapes of singular Rouquier complexes at the character level.

A shape records, per homological degree, which parabolic KL basis objects
occur, with what grading shift and multiplicity.  For the positive lift
of x the shape is linear: degree 0 carries exactly (x, 0, 1) and degree
i > 0 carries (y, i, m) where m is the coefficient of v^i in the inverse
parabolic KL polynomial g_{y,x}.  The negative lift mirrors it into
nonpositive degrees with shift equal to the degree.

No differentials are stored: the terms are fully determined at this
level, the maps between them are not.
"""

from __future__ import annotations

# div_exact is no longer called here; it stays bound because
# perfbench/selftest.py checks that the tracer wraps it in this namespace.
from .laurent import LaurentPoly, div_exact, dot, vpow  # noqa: F401
from .parabolic import ParabolicElt, ParabolicModule

Term = tuple[int, int, int]  # (element of W^I, grading shift, multiplicity)


class ComplexShape:
    """Per homological degree, a sorted tuple of (element, shift, mult)."""

    __slots__ = ("module", "apex", "terms", "_char", "_bar_char")

    def __init__(self, module: ParabolicModule, apex: int,
                 terms: dict[int, tuple[Term, ...]]):
        self.module = module
        self.apex = apex
        self.terms = terms
        self._char: ParabolicElt | None = None
        self._bar_char: ParabolicElt | None = None

    def degrees(self) -> list[int]:
        return sorted(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexShape):
            return NotImplemented
        return (self.module is other.module and self.apex == other.apex
                and self.terms == other.terms)

    def text_lines(self) -> list[str]:
        sys = self.module.system
        out = []
        for deg in self.degrees():
            rendered = " ".join(
                f"{sys.word_str(y)}:{shift}:{mult}"
                for y, shift, mult in self.terms[deg]
            )
            out.append(f"{deg}\t{rendered}")
        return out

    def to_json_obj(self) -> list[dict]:
        sys = self.module.system
        return [
            {
                "degree": deg,
                "terms": [
                    {"word": sys.word_str(y), "shift": shift, "mult": mult}
                    for y, shift, mult in self.terms[deg]
                ],
            }
            for deg in self.degrees()
        ]

    def __repr__(self) -> str:
        return "\n".join(self.text_lines())


def f_shape(module: ParabolicModule, x: int) -> ComplexShape:
    """Shape of the positive-lift minimal complex for x in W^I.

    Degree i collects (y, i, m) with m = coeff(g_{y,x}, i) > 0 over the
    column `inverse_col(x)`, y ascending; g_{x,x} = 1 makes (x, 0, 1)
    the one term of degree 0, and the other y < x lie in degrees i > 0.
    """
    by_degree: dict[int, list[Term]] = {}
    for y, g in module.inverse_col(x).items():
        for i, m in g.items():
            by_degree.setdefault(i, []).append((y, i, m))
    return ComplexShape(module, x, {i: tuple(e) for i, e in by_degree.items()})


def mirror_shape(shape: ComplexShape) -> ComplexShape:
    """Every term (y, i, m) of degree i moved to (y, -i, m) in degree -i."""
    terms = {
        -deg: tuple(sorted((y, -shift, mult) for y, shift, mult in entries))
        for deg, entries in shape.terms.items()
    }
    out = ComplexShape(shape.module, shape.apex, terms)
    # the term (y, i, m) in degree i adds (y, (-1)^i m v^i) to the
    # character of shape; its mirror (y, -i, m) in degree -i adds the same
    # pair to the bar-twisted character of out, and vice versa, so the two
    # cached sums swap
    out._char, out._bar_char = shape._bar_char, shape._char
    return out


def e_shape(module: ParabolicModule, x: int) -> ComplexShape:
    """Shape of the negative lift: the mirror of the positive lift."""
    return mirror_shape(f_shape(module, x))


def _kl_sum(shape: ComplexShape, twist: int) -> ParabolicElt:
    """sum over terms (y, shift, mult) in degree d of
    (-1)^d mult v^(twist * shift) PKL_y; twist -1 bars the coefficients.
    The terms of each y are grouped into one coefficient c_y, and
    `ParabolicModule.from_kl` sums the pairs (y, c_y)."""
    coeffs: dict[int, LaurentPoly] = {}
    for deg, entries in shape.terms.items():
        for y, shift, mult in entries:
            t = vpow(twist * shift, -mult if deg % 2 else mult)
            coeffs[y] = coeffs[y] + t if y in coeffs else t
    return shape.module.from_kl(coeffs.items())


def shape_character(shape: ComplexShape) -> ParabolicElt:
    """Alternating sum over degrees of v^shift-scaled KL basis elements."""
    if shape._char is None:
        shape._char = _kl_sum(shape, 1)
    return shape._char


def euler_hom(a: ComplexShape, b: ComplexShape) -> LaurentPoly:
    """Euler characteristic of the graded Hom complex between two shapes.

    Summing the Hom-formula graded ranks over term pairs with homological
    signs collapses to sum_w A_w (bar_I B)_w over W^I: A is the character
    of a, and bar_I B = sum_z bar(b_z) PKL_z is the character of b with
    its KL coefficients b_z = sum of (-1)^deg mult v^shift barred: the
    pairing `ParabolicModule.pair_embedded_std`, taken here as one `dot`.
    The bar-twisted character is cached on the shape next to its character.
    """
    if a.module is not b.module:
        raise ValueError("shapes live over different parabolic modules")
    if b._bar_char is None:
        b._bar_char = _kl_sum(b, -1)
    return dot(shape_character(a).terms, b._bar_char.terms)
