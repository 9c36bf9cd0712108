"""Independent verification routes used by the tests.

Each oracle recomputes a quantity along a path disjoint from the library
implementation it checks: the KL coefficients by solving the
bar-invariance system directly, the Bruhat order by the subword
property, basis decompositions by a standalone back-substitution, the
bilinear pairing by multiplying out eps(a(h1) h2), Bott-Samelson
characters by products in H instead of in the parabolic module, the
KL basis by whole-element generator products instead of the library's
half-table descent recursion, the KL table of H by that recursion run
for every x instead of reading KL_x off KL_{x^-1}, the parabolic KL
basis and the inverse parabolic KL rows through the full Hecke algebra
instead of the recursions over W^I in the two parabolic modules, and
the bar involution and the expansion of characters by one polynomial
product and sum per term instead of the library's sparse exponent-map
products, and the positive Rouquier shapes by a Bruhat scan of W^I with
one g_{y,x} per pair instead of the library's one column of g, the
embedding of the parabolic module by one product y u per term over W_I
instead of one pass over the coset table, and the characters of shapes
by one KL pair per term instead of the library's packed column sums,
and the chamber keys of the enumeration by tuples of coordinates instead
of the library's packed integers, and the CLI's argparse tree with
every subcommand's parser constructed and filled as it is registered
instead of only the one a parse dispatches to.
"""

import argparse
import functools

from heckekit import cli, coxeter
from heckekit.hecke import KLTable, Packing
from heckekit.laurent import LaurentPoly, ONE, V, V_INV, ZERO, lincomb, vpow
from heckekit.parabolic import ParabolicElt
from heckekit.rouquier import ComplexShape


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


def kl_table_by_recursion(algebra):
    """The KL table of H with the mu-recursion run for every x, where the
    library runs it only at the minimum of each orbit under inversion and
    the graph automorphisms: a `KLTable` over W without maps, with a
    packing of its own."""
    sys = algebra.system
    return KLTable(sys, sys._left, False, Packing())


@functools.lru_cache(maxsize=None)
def kl_basis_via_gen_mult(algebra, x):
    """KL_x by the generator-product recursion

        KL_x = KL_s KL_{sx} - sum_z mu(z, sx) KL_z

    over z < sx with sz < z, s the first letter of x, taken in whole
    elements with the public `kl_gen_mult` and HeckeElt arithmetic and
    memoized here, apart from the library's table.
    """
    sys = algebra.system
    if x == 0:
        return algebra.unit()
    s = sys.reduced_word(x)[0]
    y = sys.mult_gen(x, s, "left")
    below = kl_basis_via_gen_mult(algebra, y)
    result = algebra.kl_gen_mult(s, below)
    for z, h in below.terms.items():
        m = h.coeff(1)
        if m and z != y and s in sys.descents(z, "left"):
            result = result - m * kl_basis_via_gen_mult(algebra, z)
    return result


def embed_via_subgroup(module, p):
    """embed(p) as the sum over y in W^I and u in W_I of
    p_y v^(l(w_I) - l(u)) H_{y u}, one product y u per term, where the
    library reads each H_w off the coset table in one pass over W."""
    sys = module.system
    out = {}
    for y, c in p.terms.items():
        for u in sys.subgroup(module.subset):
            _acc(out, sys.mult(y, u), c * vpow(module.shift - sys.lengths[u]))
    return module.algebra.elt(out)


def pkl_via_hecke(module, x):
    """PKL_x as the W^I coefficients of KL_{x w_I} in H over v^(l(w_I))."""
    sys = module.system
    kl = module.algebra.kl_basis(sys.mult(x, module.w_long))
    down = vpow(-module.shift)
    reps = set(module.reps)
    return {y: c * down for y, c in kl.terms.items() if y in reps}


@functools.lru_cache(maxsize=None)
def _dual_positions(module):
    """w0 r w_I u -> (r, l(u)) over r in W^I and u in W_I."""
    sys = module.system
    out = {}
    for r in module.reps:
        w0r = sys.mult(sys.longest, r)
        for u1 in sys.subgroup(module.subset):
            out[sys.mult(w0r, u1)] = (r, module.shift - sys.lengths[u1])
    return out


def inverse_row_via_duality(module, x):
    """{z: g_{x,z}} by KL duality from one KL element of H:

        g_{x,z} = sum_{u in W_I} (-v)^(l(u)) h_{w0 z w_I u, w0 x w_I},

    one entry per coset w0 z W_I that meets the support [e, w0 x w_I],
    zero sums included."""
    sys = module.system
    dual = _dual_positions(module)
    m = sys.mult(sys.mult(sys.longest, x), module.w_long)
    acc = {}
    for y, h in module.algebra.kl_basis(m).terms.items():
        z, lu = dual[y]
        c = acc.setdefault(z, {})
        for e, k in h.items():
            c[e + lu] = c.get(e + lu, 0) + (-1) ** lu * k
    return {z: LaurentPoly(c) for z, c in acc.items()}


def tuple_chamber_action(matrix):
    """A drop-in for `coxeter._chamber_action` whose keys are tuples of
    the coordinates of rho o w^-1, stepped one coordinate at a time, with
    no packing and so no bound.  Every crystallographic matrix takes the
    Cartan realization, rank 2 included, where the library acts on Z/2m.
    A dihedral label without one (5, 7, 8, ...) keys w by (k, e) with
    w = r^k s1^e, r = s1 s2 of order m: s1 toggles e, and s2 = s1 r
    sends r^k to r^(k-1) s1 and r^k s1 to r^(k+1)."""
    n = matrix.rank
    labels = {matrix.bond(i, j) for i in range(n) for j in range(i + 1, n)}
    if not labels <= coxeter._CRYSTAL_PAIRS.keys():
        m = matrix.bond(0, 1)
        return (0, 0), lambda s, key: ((key[0] + (2 * key[1] - 1) * s) % m, 1 - key[1])
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j], a[j][i] = coxeter._CRYSTAL_PAIRS[matrix.bond(i, j)]

    def act(i, f):
        fi = f[i]
        return tuple([fj - aij * fi for fj, aij in zip(f, a[i])])

    return (1,) * n, act


def eager_make_parser():
    """A drop-in for `cli.make_parser` built with argparse's own
    subparsers action: every subcommand of `cli.COMMANDS` is constructed
    and filled at registration."""
    parser = argparse.ArgumentParser(
        prog="heckekit",
        description="Exact Kazhdan-Lusztig, parabolic and Rouquier-shape tables "
                    "for finite Coxeter systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, fill in cli.COMMANDS:
        fill(sub.add_parser(name, help=text))
    return parser


def bruhat_lower_set(system, y):
    """All x <= y, by brute force over subwords of a reduced word of y.

    The subword property: x <= y iff some reduced word of x appears as a
    subsequence of any fixed reduced word of y.  Multiplying out every
    subsequence of the canonical word of y therefore yields exactly the
    lower Bruhat interval.
    """
    word = system.reduced_word(y)
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


def bott_samelson_via_hecke(module, word):
    """KL-basis coefficients of KL_{s_1} ... KL_{s_k} KL_{w_I}, the product
    taken in H and read back through `extract`, which re-embeds the result
    to check that it lies in the ideal."""
    algebra = module.algebra
    h = algebra.kl_basis(module.w_long)
    for s in reversed(tuple(word)):
        h = algebra.kl_gen_mult(s, h)
    return decompose_in_kl_basis(module, module.extract(h).terms)


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


def _times_gen(sys, terms, s):
    """terms * H_s by the quadratic relation, written out here:
    H_w H_s = H_{ws} if ws > w and H_{ws} + (v^-1 - v) H_w if ws < w."""
    out = {}
    for w, c in terms.items():
        ws = sys._right[w][s]
        _acc(out, ws, c)
        if sys.lengths[ws] < sys.lengths[w]:
            _acc(out, w, c * (V_INV - V))
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
        s = sys.reduced_word(y)[-1]
        prods.append(_times_gen(sys, prods[sys._right[y][s]], s))
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


def _acc(terms, w, p):
    """terms[w] += p, dropping the entry when the sum is zero."""
    q = terms.get(w, ZERO) + p
    if q:
        terms[w] = q
    else:
        terms.pop(w, None)


def bar_via_acc(algebra, h):
    """bar(h) = sum_w bar(c_w) bar(H_w), one polynomial product and sum
    per term of the cached bar(H_w)."""
    out = {}
    for w, c in h.terms.items():
        cb = c.bar()
        for u, p in algebra._bar_of_basis(w).items():
            _acc(out, u, p * cb)
    return out


def to_parabolic_via_acc(char):
    """sum_y c_y PKL_y of a character, one polynomial product and sum per
    term of PKL_y."""
    module = char.module
    out = {}
    for y, c in char.coeffs.items():
        for w, h in module.kl_basis(y).terms.items():
            _acc(out, w, c * h)
    return out


def f_shape_via_bruhat(module, x):
    """The positive-lift shape of x: every y < x in W^I found by
    `bruhat_leq` over all of W^I, each g_{y,x} read with `inverse_kl`,
    and the terms of each degree sorted."""
    module._check_rep(x)
    sys = module.system
    by_degree = {0: [(x, 0, 1)]}
    for y in module.reps:
        if y == x or not sys.bruhat_leq(y, x):
            continue
        for i, m in module.inverse_kl(y, x).items():
            by_degree.setdefault(i, []).append((y, i, m))
    terms = {deg: tuple(sorted(entries)) for deg, entries in by_degree.items()}
    return ComplexShape(module, x, terms)


def shape_character_via_terms(shape, twist):
    """sum over terms (y, shift, mult) in degree d of
    (-1)^d mult v^(twist * shift) PKL_y through `laurent.lincomb`, one pair
    per term, where the library groups the terms by y and sums packed
    columns."""
    module = shape.module
    return ParabolicElt(module, lincomb(
        (vpow(twist * shift, -mult if deg % 2 else mult), module.kl_basis(y).terms)
        for deg, entries in shape.terms.items() for y, shift, mult in entries))
