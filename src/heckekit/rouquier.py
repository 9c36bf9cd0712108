"""Graded shapes of singular Rouquier complexes at the character level.

A shape records, per homological degree, which parabolic KL basis objects
occur, with what grading shift and multiplicity.  For the positive lift
of x the shape is linear: degree 0 carries exactly (x, 0, 1) and degree
i > 0 carries (y, i, m) where m is the coefficient of v^i in the inverse
parabolic KL polynomial g_{y,x}.  The negative lift mirrors it into
nonpositive degrees with shift equal to the degree.

No differentials are stored: the terms are fully determined at this
level, the maps between them are not.

A character, sum_y c_y PKL_y with c_y the signed, shifted multiplicities
of y, is summed as packed ints p(2^K) (Kronecker substitution,
`laurent.pack`): c_y(2^K) times the packed value of each entry of the
column PKL_y, read off the algebra's `Packing`, and only the nonzero sums
decoded.  A shape past the bound of the packing, or a column with an
entry the `Packing` does not hold, is summed by `ParabolicModule.from_kl`.
"""

from __future__ import annotations

# div_exact is no longer called here; it stays bound because
# perfbench/selftest.py checks that the tracer wraps it in this namespace.
from .laurent import PACK_BITS, LaurentPoly, div_exact, unpack, vpow  # noqa: F401
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

    The terms of each y are grouped into one coefficient c_y.  The sum is
    taken as packed ints when every entry of the columns PKL_y is interned
    in the algebra's `Packing` and the bound holds, else by `from_kl` over
    the pairs (y, c_y): the kernel is chosen once per call."""
    mod = shape.module
    coeffs: dict[int, dict[int, int]] = {}
    total = 0
    for deg, entries in shape.terms.items():
        for y, shift, mult in entries:
            c = coeffs.setdefault(y, {})
            e = twist * shift
            c[e] = c.get(e, 0) + (-mult if deg % 2 else mult)
            total += abs(mult)
    terms = _packed_kl_sum(mod, coeffs, total)
    if terms is None:
        return mod.from_kl((y, LaurentPoly(c)) for y, c in coeffs.items())
    return ParabolicElt(mod, terms)


def _packed_kl_sum(mod: ParabolicModule, coeffs: dict[int, dict[int, int]],
                   total: int) -> dict[int, LaurentPoly] | None:
    """sum_y c_y PKL_y over the coefficient maps c_y, as packed column sums
    (Kronecker substitution, `laurent.pack`): each c_y, moved up by
    v^(-lo), lo the least exponent or 0, is one int n_y = c_y(2^K), and
    entry w of the sum is sum_y n_y h_{w,y}(2^K), with h_{w,y}(2^K) read
    off `Packing.packed`.  A coefficient of the sum adds at most
    sum |mult| = `total` products of a multiplicity and a coefficient of
    the table, so `Packing.bound` * total < 2^(K-1) keeps every digit
    exact; only the nonzero sums are decoded and moved back by v^lo.
    Reading a column may fill it and widen the bound, so the bound is
    checked once every column has been read.  None where the bound fails
    or an entry is not interned, which only a corrupted table holds; the
    `Packing` is only read."""
    pk = mod.algebra._packing
    K = PACK_BITS
    lo = min([0, *(e for c in coeffs.values() for e in c)])
    packed = pk.packed
    sums: dict[int, int] = {}
    for y, c in coeffs.items():
        mod._check_rep(y)
        n = sum(k << K * (e - lo) for e, k in c.items())
        if not n:
            continue
        # one product per distinct interned value of the column
        prods: dict[int, int] = {}
        for w, p in mod._pkl[y].items():
            i = id(p)
            m = prods.get(i)
            if m is None:
                try:
                    m = prods[i] = n * packed[i]
                except KeyError:
                    return None
            sums[w] = sums.get(w, 0) + m
    if pk.bound * total >= 1 << (K - 1):
        return None
    move = vpow(lo)
    return {w: unpack(n) * move for w, n in sums.items() if n}


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
