"""Independent verification routes used by the tests.

Each oracle recomputes a quantity along a path disjoint from the library
implementation it checks: the KL coefficients by solving the
bar-invariance system directly, the Bruhat order by the subword
property, basis decompositions by a standalone back-substitution, and
the bilinear pairing by multiplying out eps(a(h1) h2).
"""

import functools

from heckekit.laurent import LaurentPoly, ONE, ZERO


def bar_solve_kl(algebra, x):
    """Solve for the KL coefficients of x directly from bar-invariance.

    Writes the element as H_x + sum of unknowns p_y H_y with p_y in
    vZ[v], imposes invariance under the bar involution and solves by
    back-substitution from the top.  Independent of the generator-product
    recursion the library uses.
    """
    sys = algebra.system
    below = [y for y in range(sys.size) if algebra.system.bruhat_leq(y, x)]
    below.sort(reverse=True)  # enumeration order refines Bruhat order
    p = {x: ONE}
    for z in below:
        if z == x:
            continue
        # c_z = sum over solved y > z of bar(p_y) * (coeff of H_z in bar(H_y))
        c = ZERO
        for y, py in p.items():
            r = algebra._bar_of_basis(y).get(z)
            if r is not None:
                c = c + py.bar() * r
        positive = LaurentPoly({e: k for e, k in c.items() if e > 0})
        assert c == positive - positive.bar(), (
            "bar-invariance system is inconsistent; no KL element exists"
        )
        if positive:
            p[z] = positive
    return p


def bruhat_lower_set(system, y):
    """All x <= y, by brute force over subwords of a reduced word of y.

    The subword property: x <= y iff some reduced word of x appears as a
    subsequence of any fixed reduced word of y.  Multiplying out every
    subsequence of the canonical word of y therefore yields exactly the
    lower Bruhat interval.
    """
    word = system.words[y]
    out = set()
    for mask in range(1 << len(word)):
        w = 0
        for i, s in enumerate(word):
            if mask >> i & 1:
                w = system.mult_gen(w, s, "right")
        out.add(w)
    return out


def decompose_in_kl_basis(module, terms):
    """Expand a standard-basis coefficient map in the parabolic KL basis
    by back-substitution (standalone copy, kept free of library calls
    other than reading the basis elements)."""
    work = dict(terms)
    out = {}
    while work:
        y = max(work)
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
    return out


def signed_inverse_from_decomposition(module, x):
    """g_{y,x} recovered from the signed KL-basis expansion of the
    standard basis element of x: an oracle for the inversion-formula
    route the library uses."""
    sys = module.system
    expansion = decompose_in_kl_basis(module, {x: ONE})
    out = {}
    for y, c in expansion.items():
        sign = -1 if (sys.lengths[y] - sys.lengths[x]) % 2 else 1
        out[y] = sign * c
    return out


@functools.lru_cache(maxsize=None)
def _eps_row(algebra, w):
    """{y: eps(H_w H_y)} over all y with a nonzero trace.

    The products H_w H_y are built in enumeration order, each from
    H_w H_{ys} by one right multiplication by a generator s (the last
    letter of the canonical word of y), so prefixes are shared.
    """
    sys = algebra.system
    prods = [{w: ONE}]
    row = {0: ONE} if w == 0 else {}
    for y in range(1, sys.size):
        s = sys.words[y][-1]
        prods.append(algebra._gen_right_raw(prods[sys._right[y][s]], s))
        c = prods[y].get(0)
        if c:
            row[y] = c
    return row


def trace_pairing(algebra, h1, h2):
    """(h1, h2) = eps(a(h1) h2) expanded bilinearly over the traces
    eps(H_{x^-1} H_y) of honest standard-basis products; assumes nothing
    about orthonormality."""
    inv = algebra.system._inv
    total = ZERO
    for x, c in h1.terms.items():
        for y, g in _eps_row(algebra, inv[x]).items():
            d = h2.terms.get(y)
            if d is not None:
                total = total + c * d * g
    return total
