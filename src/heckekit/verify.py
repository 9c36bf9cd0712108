"""Invariant suites over a whole system: every character-level identity
the library is built on, re-checked exhaustively at desk scale.

A suite over the modules W^I is a function of one module, `check(res,
mod, where)`, with `where` the prefix "I={...}" of its messages;
`_per_module` makes it the suite over every subset I (each finitary, the
system being finite).  `_subsets` is the one walk over the subsets.
`run_suites` runs a selection of suites by name, one after another.

Most suites check in units (a row, a column, a subset): one pass lists
the failed checks of a unit in check order, and `SuiteResult.add` counts
the unit at once and sends each failure through `SuiteResult.check`, so
the counts, their order and the failure messages are those of the
check-by-check loop.

`inversion` and `bar-invariance` sum products as packed ints p(2^K),
K = `PACK_BITS` (`laurent.pack_shifted`): one int add per term, and one
int multiply per distinct coefficient and index.  A sum is exact in the
packing when (largest operand coefficient)^2 * terms * (degree + 1) <
2^(K-1), and then equal ints are equal polynomials.  Each picks its
kernel once, `inversion` per module and `bar-invariance` per algebra:
packed sums when every operand packs within this bound, else `lincomb`
over the same columns, or `HeckeAlgebra.bar` of each KL element.
`euler-hom` reads the characters of the shapes through the library's
`ParabolicModule.from_kl`, which sums packed columns of PKL as well.
`pairing` and `bs-positivity` apply generators by the packed steps of
hecke.py: the `pairing` walk picks them once per algebra, where
3^l(w0) < 2^(K-1), else `_gen_terms`, and `bott_samelson_char` picks
them once per word.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .hecke import HeckeAlgebra, _RIGHT_H, _fits_steps, _packed_row
from .laurent import PACK_BITS, LaurentPoly, ONE, ZERO, lincomb, pack_shifted, unpack
from .parabolic import ParabolicModule
from .rouquier import euler_hom, f_shape, mirror_shape, shape_character
from .soergel import bott_samelson_char

DEFAULT_BS_WORDS = 40
DEFAULT_SEED = 91

@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: int = 0
    first_failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def check(self, ok: bool, describe) -> None:
        """Count one check.  `describe()`, the message of a failure, is
        called at once and only for the first failure, so a closure may
        read the caller's loop variables without capturing them."""
        self.checks += 1
        if not ok:
            self.failures += 1
            if self.first_failure is None:
                self.first_failure = describe()

    def add(self, checks: int, failed, describe) -> None:
        """Count a unit of `checks` checks, of which the items of `failed`,
        in check order, fail with the message `describe(item)`."""
        self.checks += checks - len(failed)
        for item in failed:
            self.check(False, lambda: describe(item))


def _subsets(algebra: HeckeAlgebra):
    """Every subset I of the generators, by size, then lexicographically,
    with its message prefix "I={...}"."""
    sys = algebra.system
    for size in range(sys.rank + 1):
        for combo in itertools.combinations(range(sys.rank), size):
            yield frozenset(combo), "I={" + ", ".join(map(sys.gen_label, combo)) + "}"


def _per_module(name: str, check):
    """The suite `name` over every parabolic module: `check(res, mod,
    where)` checks the module W^I, `where` its prefix "I={...}"."""
    def suite(algebra: HeckeAlgebra, **_) -> SuiteResult:
        res = SuiteResult(name)
        for subset, where in _subsets(algebra):
            check(res, algebra.parabolic(subset), where)
        return res
    suite.__doc__ = check.__doc__
    return suite


class _Packer(dict):
    """The operands of one module's or suite's packed sums as ints: maps (p,
    shift, reverse) to `pack_shifted(p, shift, reverse)`, packed once per
    value (F4 has 3,172 distinct values among the 396,809 entries of
    v^l(w) bar(H_w)).  `top` and `degree` are the largest coefficient size
    and exponent of every value packed, or bounds on them that a caller
    widened them to for operands it packed elsewhere."""

    def __init__(self):
        super().__init__()
        self.top = self.degree = 0

    def __call__(self, p: LaurentPoly, shift: int = 0, reverse: bool = False) -> int:
        key = (p, shift, reverse)
        n = self.get(key)
        if n is None:
            n = self[key] = pack_shifted(p, shift, reverse)
            c = p._c
            if c:
                self.top = max(self.top, *map(abs, c.values()))
                self.degree = max(self.degree,
                                  shift - min(c) if reverse else shift + max(c))
        return n

    def exact(self, terms: int) -> bool:
        """Whether every coefficient of a sum of `terms` products of values
        packed so far lies below 2^(K-1) in size, so that the sum's int
        stands for one polynomial: a coefficient of one product adds at
        most degree + 1 products of two coefficients."""
        return self.top * self.top * terms * (self.degree + 1) < 1 << (PACK_BITS - 1)


def _packed_lincomb(pairs: list[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """sum_i n_i m_i over (n_i, m_i) pairs of a packed int and a map of
    packed ints, with no zero values.  The maps of equal n_i are added
    first, so each distinct n_i multiplies once per index."""
    groups: dict[int, dict[int, int]] = {}
    for n, terms in pairs:
        acc = groups.get(n)
        if acc is None:
            groups[n] = dict(terms)
            continue
        for z, m in terms.items():
            acc[z] = acc.get(z, 0) + m
    out: dict[int, int] = {}
    for n, acc in groups.items():
        for z, m in acc.items():
            out[z] = out.get(z, 0) + n * m
    return {z: m for z, m in out.items() if m}


def suite_bar_invariance(algebra: HeckeAlgebra, **_) -> SuiteResult:
    """bar(KL_x) = KL_x and h_{y,x} in vZ[v] for y < x.

    v^l(x) bar(KL_x) = sum_w v^(l(x)-l(w)) bar(h_{w,x}) v^l(w) bar(H_w)
    is summed as packed ints (the digits of h_{w,x} reversed) when every
    operand packs within the bound for the longest sum; otherwise each
    KL_x goes through `HeckeAlgebra.bar`.  The packed v^l(w) bar(H_w) are
    read off `HeckeAlgebra._bar_packed` where the bar basis filled them."""
    res = SuiteResult("bar-invariance")
    sys = algebra.system
    lengths = sys.lengths
    kls = [algebra.kl_basis(x) for x in range(sys.size)]
    pk = _Packer()
    try:
        bars = {}
        for w in range(sys.size):
            terms = algebra._bar_of_basis(w)
            # the packed route of the bar basis keeps each value packed at
            # l(w); the exact route packs nothing, so its values go through pk
            known = algebra._bar_packed.get(lengths[w], {})
            bars[w] = {y: known.get(id(a)) or pk(a, lengths[w]) for y, a in terms.items()}
        # every value of v^l(w) bar(H_w) has coefficients of size at most
        # `_bar_bound` and exponents in [0, 2 l(w)]
        pk.top = max(pk.top, algebra._bar_bound)
        pk.degree = max(pk.degree, 2 * lengths[sys.longest])
        # a sum is read only if every operand, all packed by now, keeps the bound
        fixed = [_packed_lincomb([(pk(p, lengths[x] - lengths[w], True), bars[w])
                                  for w, p in kl.terms.items()])
                 == {y: pk(p, lengths[x]) for y, p in kl.terms.items()}
                 for x, kl in enumerate(kls)]
        packed = pk.exact(max(len(kl.terms) for kl in kls))
    except ValueError:
        packed = False
    for x, kl in enumerate(kls):
        res.check(fixed[x] if packed else algebra.bar(kl) == kl,
                  lambda: f"KL[{sys.word_str(x)}] is not bar-invariant")
        for y, p in kl.terms.items():
            if y == x:
                res.check(p == ONE, lambda: f"leading coefficient of "
                          f"KL[{sys.word_str(x)}] is not 1")
            else:
                res.check(p.min_degree() >= 1, lambda: f"h[{sys.word_str(y)}, "
                          f"{sys.word_str(x)}] has a nonpositive exponent")
    return res


def check_inversion(res: SuiteResult, mod: ParabolicModule, where: str) -> None:
    """The inversion identity and its transposed form.

    With the sign (-1)^(l(y)-l(x)) split as (-1)^l(x) (-1)^l(y), both are
    column sums: the identity at (x, z) is entry x of sum_y (-1)^l(y)
    h_{y,z} G[., y], its transposed form entry z of sum_y (-1)^l(y)
    g_{y,x} H[., y], and each must be (-1)^l(x) delta_{x,z}.  Both kernels,
    packed ints when every entry of h and g packs within the bound for the
    longest column and `lincomb` otherwise, are exact.
    """
    sys, reps = mod.system, mod.reps
    lengths = sys.lengths
    h_cols = {z: mod.kl_basis(z).terms for z in reps}  # z -> {y: h_{y,z}}
    pk = _Packer()
    try:
        cols = ({z: {y: pk(p) for y, p in col.items()} for z, col in h_cols.items()},
                {x: {y: pk(g) for y, g in mod.inverse_col(x).items() if g} for x in reps})
        packed = pk.exact(max(len(col) for side in cols for col in side.values()))
    except ValueError:
        packed = False
    kernel = _packed_lincomb
    if not packed:  # polynomial columns of g only for this kernel
        kernel = lincomb
        cols = (h_cols, {x: {y: g for y, g in mod.inverse_col(x).items() if g}
                         for x in reps})

    def failures(a_cols, b_cols):
        # (i, c) of each entry i of sum_y (-1)^l(y) a_{y,c} B[., y] that
        # is not (-1)^l(c) delta_{i,c}; both kernels drop zero entries
        for c, col in a_cols.items():
            sums = kernel([(-a if lengths[y] % 2 else a, b_cols[y])
                           for y, a in col.items()])
            if sums.pop(c, 0) != (-1) ** lengths[c]:
                yield c, c
            yield from ((i, c) for i in sums)

    failed = sorted([(x, z, 0) for x, z in failures(*cols)]
                    + [(x, z, 1) for z, x in failures(*reversed(cols))])
    names = ("inversion", "transposed inversion")
    res.add(2 * len(reps) ** 2, failed, lambda f: f"{where} {names[f[2]]} fails at "
            f"x={sys.word_str(f[0])}, z={sys.word_str(f[1])}")


def check_positivity(res: SuiteResult, mod: ParabolicModule, where: str) -> None:
    """Inverse parabolic KL polynomials have nonnegative coefficients."""
    sys = mod.system
    for x in mod.reps:
        row = mod.inverse_row(x)
        # the keys of a row do not ascend, and reps do
        failed = sorted(z for z, g in row.items() if not g.is_nonneg())
        res.add(len(mod.reps), failed, lambda z: f"{where} g[{sys.word_str(x)}, "
                f"{sys.word_str(z)}] = {row[z]} has a negative coefficient")


def check_parity(res: SuiteResult, mod: ParabolicModule, where: str) -> None:
    """g_{y,x} is supported on exponents of parity l(x) - l(y)."""
    sys = mod.system
    lengths = sys.lengths
    for y in mod.reps:
        row = mod.inverse_row(y)
        ly = lengths[y]
        failed = sorted({x for x, g in row.items() for e in g.support()
                         if (e - lengths[x] + ly) % 2})
        res.add(len(mod.reps), failed, lambda x: f"{where} parity fails for "
                f"g[{sys.word_str(y)}, {sys.word_str(x)}]")


def check_euler_hom(res: SuiteResult, mod: ParabolicModule, where: str) -> None:
    """euler_hom(f_shape(x), e_shape(y)) = delta_{x,y}."""
    sys = mod.system
    fs = {x: f_shape(mod, x) for x in mod.reps}
    # characters first: each mirror takes its bar-twisted character
    # from them, so every shape sum runs once
    chars = {x: shape_character(fs[x]) for x in mod.reps}
    es = {x: mirror_shape(fs[x]) for x in mod.reps}
    for x in mod.reps:
        res.add(1, [] if chars[x] == mod.delta(x) else [x], lambda x: f"{where} "
                f"shape character of {sys.word_str(x)} is not the standard basis element")
        vals = {y: euler_hom(fs[x], es[y]) for y in mod.reps}
        failed = [y for y, val in vals.items() if (val != ONE if x == y else val)]
        res.add(len(mod.reps), failed, lambda y: f"{where} euler_hom fails at "
                f"x={sys.word_str(x)}, y={sys.word_str(y)}")


def suite_q_monotonicity(algebra: HeckeAlgebra, **_) -> SuiteResult:
    """w >= v implies q(w) >= q(v) for the coset projection, every subset."""
    res = SuiteResult("q-monotonicity")
    sys = algebra.system
    # the comparable pairs v <= w do not depend on the subset, and each
    # projected pair is a pair of W, so its comparability is read off them
    n = sys.size
    pairs = [(v, w) for v in range(n) for w in range(n) if sys.bruhat_leq(v, w)]
    leq = bytearray(n * n)
    for v, w in pairs:
        leq[v * n + w] = 1
    for subset, where in _subsets(algebra):
        proj = [sys.project_q(w, subset) for w in range(n)]
        for q in proj:  # as bruhat_leq would, so no index of leq wraps
            sys._check_element(q)
        failed = [(v, w) for v, w in pairs if not leq[proj[v] * n + proj[w]]]
        res.add(len(pairs), failed, lambda f: f"{where} projection not "
                f"monotone at v={sys.word_str(f[0])}, w={sys.word_str(f[1])}")
    return res


def suite_pairing(algebra: HeckeAlgebra, **_) -> SuiteResult:
    """Orthonormality of the standard basis, on which `pairing` rests:
    the trace eps(H_{x^-1} H_y), multiplied out in the standard basis,
    and the pairing (H_x, H_y) both equal delta_{x,y}.

    H_{x^-1} H_y is built one generator past H_{x^-1} H_u, y = u s in
    the discovery tree of the system (`CoxeterSystem.tree`).  Let
    depth(y) be the most letters any descendant of y adds to it.  A step
    H_w H_s only reaches H_{ws} and H_w, so it changes the length of a
    term by at most 1: a term H_w of H_{x^-1} H_y with l(w) > depth(y)
    never reaches H_e in a descendant.  Such terms are dropped, and every
    trace stays exact.

    The walk from H_{x^-1} runs at most l(w0) steps down any branch, so
    where `_fits_steps(1, l(w0))` holds it steps packed term maps
    (`HeckeAlgebra._step`): H_{x^-1} H_y is packed at o = l(y), and its
    trace is 1 exactly when the entry at e is 2^(K l(y)), decoded only
    for a failure message.  Otherwise it steps `_gen_terms`."""
    res = SuiteResult("pairing")
    sys = algebra.system
    lengths, n, tree, right = sys.lengths, sys.size, sys.tree, sys._right
    # indices ascend with length, so each child follows its parent
    depth = [0] * n
    for y in range(n - 1, 0, -1):
        u = tree[y][0]
        depth[u] = max(depth[u], depth[y] + 1)
    K = PACK_BITS
    packed = _fits_steps(1, depth[0])
    if packed:
        step, row, one = algebra._step, _packed_row(_RIGHT_H, K), 1
        units = [1 << K * length for length in lengths]
    else:
        step, row, one = algebra._gen_terms, _RIGHT_H, ONE
        units = [ONE] * n
    stds = [algebra.std(y) for y in range(n)]
    for x in range(n):
        prods = [{sys._inv[x]: one}]
        for y in range(1, n):
            u, s = tree[y]
            terms = step(prods[u], s, right, row)
            prods.append({w: c for w, c in terms.items()
                          if c and lengths[w] <= depth[y]})
        traces = [p.get(0, 0) for p in prods]
        vals = [algebra.pairing(stds[x], hy) for hy in stds]
        failed = [y for y, (t, val) in enumerate(zip(traces, vals))
                  if ((t != units[y] or val != ONE) if x == y else (t or val))]
        res.add(n, failed, lambda y: (
            f"eps(a(H[{sys.word_str(x)}]) H[{sys.word_str(y)}]) = "
            f"{unpack(traces[y], K, lengths[y]) if packed else traces[y]}, "
            f"(H[{sys.word_str(x)}], H[{sys.word_str(y)}]) = {vals[y]}"))
    return res


def suite_bs_positivity(algebra: HeckeAlgebra, *, seed: int = DEFAULT_SEED,
                        bs_words: int = DEFAULT_BS_WORDS, **_) -> SuiteResult:
    """Bott-Samelson KL-decomposition coefficients lie in Z>=0[v, v^-1]."""
    res = SuiteResult("bs-positivity")
    sys = algebra.system
    # one random stream across the subsets, so this suite walks them itself
    rng = random.Random(seed)
    for subset, where in _subsets(algebra):
        mod = algebra.parabolic(subset)
        for _ in range(bs_words):
            word = [rng.randrange(sys.rank) for _ in range(rng.randrange(0, 9))]
            char = bott_samelson_char(mod, word)
            ok = all(c.is_nonneg() for c in char.coeffs.values())
            res.check(ok, lambda: f"{where} word="
                      f"{'.'.join(sys.gen_label(s) for s in word) or 'e'} has a "
                      "negative decomposition coefficient")
    return res


def check_degree_one(res: SuiteResult, mod: ParabolicModule, where: str) -> None:
    """coeff(g_{z,x}, v) = coeff(h_{z,x}, v) for z < x in W^I."""
    sys = mod.system
    for x in mod.reps:
        # a dict of the column: one lookup per z, not one bisection
        h = dict(mod.kl_basis(x).terms.items())
        for z, g in mod.inverse_col(x).items():
            if z != x:
                res.check(g.coeff(1) == h.get(z, ZERO).coeff(1),
                          lambda: f"{where} degree-one mismatch at "
                          f"z={sys.word_str(z)}, x={sys.word_str(x)}")


SUITES = {
    "bar-invariance": suite_bar_invariance,
    "inversion": _per_module("inversion", check_inversion),
    "positivity": _per_module("positivity", check_positivity),
    "parity": _per_module("parity", check_parity),
    "euler-hom": _per_module("euler-hom", check_euler_hom),
    "q-monotonicity": suite_q_monotonicity,
    "pairing": suite_pairing,
    "bs-positivity": suite_bs_positivity,
    "degree-one": _per_module("degree-one", check_degree_one),
}


def run_suites(algebra: HeckeAlgebra, names=None, *, seed: int = DEFAULT_SEED,
               bs_words: int = DEFAULT_BS_WORDS) -> list[SuiteResult]:
    if bs_words < 0:
        raise ValueError(f"bs_words must be non-negative, got {bs_words}")
    names = list(SUITES) if names is None else list(names)
    if not names:
        raise ValueError(f"no suite selected; available: {', '.join(SUITES)}")
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}; "
                         f"available: {', '.join(SUITES)}")
    return [SUITES[n](algebra, seed=seed, bs_words=bs_words) for n in names]
