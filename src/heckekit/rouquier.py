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

from .hecke import _acc
# div_exact is no longer called here; it stays bound because
# perfbench/selftest.py checks that the tracer wraps it in this namespace.
from .laurent import LaurentPoly, div_exact, vpow  # noqa: F401
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

    Degree 0 is (x, 0, 1); degree i > 0 collects (y, i, m) with
    m = coeff(g_{y,x}, i) > 0 over y < x in W^I.
    """
    module._check_rep(x)
    sys = module.system
    by_degree: dict[int, list[Term]] = {0: [(x, 0, 1)]}
    for y in module.reps:
        if y == x or not sys.bruhat_leq(y, x):
            continue
        g = module.inverse_kl(y, x)
        for i, m in g.items():
            assert i > 0 and m > 0, "inverse KL polynomial outside vN[v]"
            by_degree.setdefault(i, []).append((y, i, m))
    terms = {deg: tuple(sorted(entries)) for deg, entries in by_degree.items()}
    return ComplexShape(module, x, terms)


def e_shape(module: ParabolicModule, x: int) -> ComplexShape:
    """Shape of the negative lift: degree -i holds (y, -i, m) for every
    positive-lift term (y, i, m), mirroring degree 0."""
    pos = f_shape(module, x)
    terms = {
        -deg: tuple(sorted((y, -shift, mult) for y, shift, mult in entries))
        for deg, entries in pos.terms.items()
    }
    return ComplexShape(module, x, terms)


def _kl_sum(shape: ComplexShape, twist: int) -> ParabolicElt:
    """sum over terms (y, shift, mult) in degree d of
    (-1)^d mult v^(twist * shift) PKL_y; twist -1 bars the coefficients."""
    module = shape.module
    acc: dict[int, LaurentPoly] = {}
    for deg, entries in shape.terms.items():
        sign = -1 if deg % 2 else 1
        for y, shift, mult in entries:
            c = (sign * mult) * vpow(twist * shift)
            for w, h in module.kl_basis(y).terms.items():
                _acc(acc, w, c * h)
    return ParabolicElt(module, acc)


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
    its KL coefficients b_z = sum of (-1)^deg mult v^shift barred.  The
    bar-twisted character is cached on the shape next to its character.
    """
    if a.module is not b.module:
        raise ValueError("shapes live over different parabolic modules")
    if b._bar_char is None:
        b._bar_char = _kl_sum(b, -1)
    return a.module.pair_embedded_std(shape_character(a).terms, b._bar_char.terms)
