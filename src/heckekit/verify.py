"""Invariant suites over a whole system: every character-level identity
the library is built on, re-checked exhaustively at desk scale.

Each suite walks all finitary subsets of the generator set (every subset,
since the system is finite), counts checks and reports the first
counterexample.  `run_suites` drives a selection by name.

Most suites check in units (a row, a column, a subset) with one fast test
that every check of the unit passes; a passing unit adds its check count
at once.  A failing unit replays its checks one by one through
`SuiteResult.check`, from the values already computed, so the counts,
their order and the failure messages are those of the check-by-check loop.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .hecke import HeckeAlgebra, _VINV_MINUS_V
from .laurent import LaurentPoly, ONE, ZERO, lincomb
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
        self.checks += 1
        if not ok:
            self.failures += 1
            if self.first_failure is None:
                self.first_failure = describe()


def _subsets(algebra: HeckeAlgebra):
    rank = algebra.system.rank
    for size in range(rank + 1):
        for combo in itertools.combinations(range(rank), size):
            yield frozenset(combo)


def _nonzero(values: dict) -> dict:
    return {k: v for k, v in values.items() if v}


def _subset_str(algebra, subset) -> str:
    labels = ", ".join(algebra.system.gen_label(s) for s in sorted(subset))
    return "{" + labels + "}"


def suite_bar_invariance(algebra: HeckeAlgebra, **_) -> SuiteResult:
    """bar(KL_x) = KL_x and h_{y,x} in vZ[v] for y < x."""
    res = SuiteResult("bar-invariance")
    sys = algebra.system
    for x in range(sys.size):
        kl = algebra.kl_basis(x)
        res.check(algebra.bar(kl) == kl,
                  lambda x=x: f"KL[{sys.word_str(x)}] is not bar-invariant")
        for y, p in kl.terms.items():
            if y == x:
                res.check(p == ONE, lambda x=x: f"leading coefficient of "
                          f"KL[{sys.word_str(x)}] is not 1")
            else:
                res.check(p.min_degree() >= 1,
                          lambda y=y, x=x: f"h[{sys.word_str(y)}, "
                          f"{sys.word_str(x)}] has a nonpositive exponent")
    return res


def _transpose(table: dict[int, dict[int, LaurentPoly]]
               ) -> dict[int, dict[int, LaurentPoly]]:
    out: dict[int, dict[int, LaurentPoly]] = {}
    for a, row in table.items():
        for b, p in row.items():
            out.setdefault(b, {})[a] = p
    return out


def suite_inversion(algebra: HeckeAlgebra, **_) -> SuiteResult:
    """The inversion identity and its transposed form, every subset.

    For each x the whole row sum_y (-1)^(l(y)-l(x)) g_{x,y} h_{y,z} and
    the whole column sum_y (-1)^(l(y)-l(x)) h_{z,y} g_{y,x} are built as
    sparse products over z, then checked against delta_{x,z} z by z.
    """
    res = SuiteResult("inversion")
    sys = algebra.system
    lengths = sys.lengths
    for subset in _subsets(algebra):
        mod = algebra.parabolic(subset)
        reps = mod.reps
        h_cols = {z: mod.kl_basis(z).terms for z in reps}  # z -> {y: h_{y,z}}
        # a corrupted cache may leave a row of h empty, which must count
        # as failures, not raise
        h_rows = _transpose(h_cols)
        for x in reps:
            lx = lengths[x]
            row = lincomb((-g if (lengths[y] - lx) % 2 else g, h_rows.get(y, {}))
                          for y, g in mod.inverse_row(x).items() if g)
            col = lincomb((-g if (lengths[y] - lx) % 2 else g, h_cols[y])
                          for y, g in mod.inverse_col(x).items() if g)
            # lincomb keeps no zero values and the keys lie in reps
            if row == col == {x: ONE}:
                res.checks += 2 * len(reps)
                continue
            for z in reps:
                expected = ONE if x == z else ZERO
                res.check(row.get(z, ZERO) == expected,
                          lambda x=x, z=z, subset=subset:
                          f"I={_subset_str(algebra, subset)} inversion fails at "
                          f"x={sys.word_str(x)}, z={sys.word_str(z)}")
                res.check(col.get(z, ZERO) == expected,
                          lambda x=x, z=z, subset=subset:
                          f"I={_subset_str(algebra, subset)} transposed inversion "
                          f"fails at x={sys.word_str(x)}, z={sys.word_str(z)}")
    return res


def suite_positivity(algebra: HeckeAlgebra, **_) -> SuiteResult:
    """Inverse parabolic KL polynomials have nonnegative coefficients."""
    res = SuiteResult("positivity")
    sys = algebra.system
    for subset in _subsets(algebra):
        mod = algebra.parabolic(subset)
        for x in mod.reps:
            row = mod.inverse_row(x)
            if all(g.is_nonneg() for g in row.values()):
                res.checks += len(mod.reps)
                continue
            for z in mod.reps:
                g = row.get(z, ZERO)
                res.check(g.is_nonneg(),
                          lambda x=x, z=z, subset=subset:
                          f"I={_subset_str(algebra, subset)} g[{sys.word_str(x)}, "
                          f"{sys.word_str(z)}] = {g} has a negative coefficient")
    return res


def suite_parity(algebra: HeckeAlgebra, **_) -> SuiteResult:
    """g_{y,x} is supported on exponents of parity l(x) - l(y)."""
    res = SuiteResult("parity")
    sys = algebra.system
    lengths = sys.lengths
    for subset in _subsets(algebra):
        mod = algebra.parabolic(subset)
        for y in mod.reps:
            row = mod.inverse_row(y)
            ly = lengths[y]
            if all((e - lengths[x] + ly) % 2 == 0
                   for x, g in row.items() for e in g.support()):
                res.checks += len(mod.reps)
                continue
            for x in mod.reps:
                g = row.get(x, ZERO)
                ok = all((e - sys.lengths[x] + sys.lengths[y]) % 2 == 0
                         for e, _ in g.items())
                res.check(ok, lambda y=y, x=x, subset=subset:
                          f"I={_subset_str(algebra, subset)} parity fails for "
                          f"g[{sys.word_str(y)}, {sys.word_str(x)}]")
    return res


def suite_euler_hom(algebra: HeckeAlgebra, **_) -> SuiteResult:
    """euler_hom(f_shape(x), e_shape(y)) = delta_{x,y}, every subset."""
    res = SuiteResult("euler-hom")
    sys = algebra.system
    for subset in _subsets(algebra):
        mod = algebra.parabolic(subset)
        fs = {x: f_shape(mod, x) for x in mod.reps}
        # characters first: each mirror takes its bar-twisted character
        # from them, so every shape sum runs once
        chars = {x: shape_character(fs[x]) for x in mod.reps}
        es = {x: mirror_shape(fs[x]) for x in mod.reps}
        for x in mod.reps:
            char_ok = chars[x] == mod.delta(x)
            vals = {y: euler_hom(fs[x], es[y]) for y in mod.reps}
            if char_ok and _nonzero(vals) == {x: ONE}:
                res.checks += 1 + len(vals)
                continue
            res.check(char_ok,
                      lambda x=x, subset=subset:
                      f"I={_subset_str(algebra, subset)} shape character of "
                      f"{sys.word_str(x)} is not the standard basis element")
            for y, val in vals.items():
                expected = ONE if x == y else ZERO
                res.check(val == expected,
                          lambda x=x, y=y, subset=subset:
                          f"I={_subset_str(algebra, subset)} euler_hom fails at "
                          f"x={sys.word_str(x)}, y={sys.word_str(y)}")
    return res


def suite_q_monotonicity(algebra: HeckeAlgebra, **_) -> SuiteResult:
    """w >= v implies q(w) >= q(v) for the coset projection, every subset."""
    res = SuiteResult("q-monotonicity")
    sys = algebra.system
    # the comparable pairs v <= w do not depend on the subset
    pairs = [(v, w) for v in range(sys.size) for w in range(sys.size)
             if sys.bruhat_leq(v, w)]
    for subset in _subsets(algebra):
        proj = {w: sys.project_q(w, subset) for w in range(sys.size)}
        oks = [sys.bruhat_leq(proj[v], proj[w]) for v, w in pairs]
        if all(oks):
            res.checks += len(oks)
            continue
        for (v, w), ok in zip(pairs, oks):
            res.check(ok,
                      lambda v=v, w=w, subset=subset:
                      f"I={_subset_str(algebra, subset)} projection not "
                      f"monotone at v={sys.word_str(v)}, w={sys.word_str(w)}")
    return res


def suite_pairing(algebra: HeckeAlgebra, **_) -> SuiteResult:
    """Orthonormality of the standard basis, on which `pairing` rests:
    the trace eps(H_{x^-1} H_y), multiplied out in the standard basis,
    and the pairing (H_x, H_y) both equal delta_{x,y}.

    H_{x^-1} H_y is built one generator past H_{x^-1} H_{ys}, ys the
    parent of y in the prefix tree of the canonical reduced words.  Let
    depth(y) be the most letters any descendant of y adds to it.  A step
    H_w H_s only reaches H_{ws} and H_w, so it changes the length of a
    term by at most 1: a term H_w of H_{x^-1} H_y with l(w) > depth(y)
    never reaches H_e in a descendant.  Such terms are dropped, and every
    trace stays exact."""
    res = SuiteResult("pairing")
    sys = algebra.system
    lengths, n = sys.lengths, sys.size
    # indices ascend with length, so each child follows its parent
    parent = [0] + [sys._right[y][sys.words[y][-1]] for y in range(1, n)]
    depth = [0] * n
    for y in range(n - 1, 0, -1):
        depth[parent[y]] = max(depth[parent[y]], depth[y] + 1)
    for x in range(n):
        hx = algebra.std(x)
        prods = [{sys._inv[x]: ONE}]
        for y in range(1, n):
            terms = algebra._gen_terms(prods[parent[y]], sys.words[y][-1],
                                       sys._right, _VINV_MINUS_V, ZERO)
            prods.append({w: c for w, c in terms.items()
                          if lengths[w] <= depth[y]})
        traces = {y: p.get(0, ZERO) for y, p in enumerate(prods)}
        vals = {y: algebra.pairing(hx, algebra.std(y)) for y in range(n)}
        if _nonzero(traces) == _nonzero(vals) == {x: ONE}:
            res.checks += n
            continue
        for y in range(n):
            trace, val = traces[y], vals[y]
            expected = ONE if x == y else ZERO
            res.check(trace == expected and val == expected,
                      lambda x=x, y=y, trace=trace, val=val:
                      f"eps(a(H[{sys.word_str(x)}]) H[{sys.word_str(y)}]) = "
                      f"{trace}, (H[{sys.word_str(x)}], H[{sys.word_str(y)}]) "
                      f"= {val}")
    return res


def suite_bs_positivity(algebra: HeckeAlgebra, *, seed: int = DEFAULT_SEED,
                        bs_words: int = DEFAULT_BS_WORDS, **_) -> SuiteResult:
    """Bott-Samelson KL-decomposition coefficients lie in Z>=0[v, v^-1]."""
    res = SuiteResult("bs-positivity")
    sys = algebra.system
    rng = random.Random(seed)
    for subset in _subsets(algebra):
        mod = algebra.parabolic(subset)
        for _ in range(bs_words):
            word = [rng.randrange(sys.rank) for _ in range(rng.randrange(0, 9))]
            char = bott_samelson_char(mod, word)
            ok = all(c.is_nonneg() for c in char.coeffs.values())
            res.check(ok, lambda word=word, subset=subset:
                      f"I={_subset_str(algebra, subset)} word="
                      f"{'.'.join(sys.gen_label(s) for s in word) or 'e'} has a "
                      "negative decomposition coefficient")
    return res


def suite_degree_one(algebra: HeckeAlgebra, **_) -> SuiteResult:
    """coeff(g_{z,x}, v) = coeff(h_{z,x}, v) for z < x in W^I."""
    res = SuiteResult("degree-one")
    sys = algebra.system
    for subset in _subsets(algebra):
        mod = algebra.parabolic(subset)
        for x in mod.reps:
            pkl = mod.kl_basis(x)
            for z, g in mod.inverse_col(x).items():
                if z == x:
                    continue
                res.check(
                    g.coeff(1) == pkl.coeff(z).coeff(1),
                    lambda z=z, x=x, subset=subset:
                    f"I={_subset_str(algebra, subset)} degree-one mismatch at "
                    f"z={sys.word_str(z)}, x={sys.word_str(x)}")
    return res


SUITES = {
    "bar-invariance": suite_bar_invariance,
    "inversion": suite_inversion,
    "positivity": suite_positivity,
    "parity": suite_parity,
    "euler-hom": suite_euler_hom,
    "q-monotonicity": suite_q_monotonicity,
    "pairing": suite_pairing,
    "bs-positivity": suite_bs_positivity,
    "degree-one": suite_degree_one,
}


def run_suites(algebra: HeckeAlgebra, names=None, *, seed: int = DEFAULT_SEED,
               bs_words: int = DEFAULT_BS_WORDS) -> list[SuiteResult]:
    if bs_words < 0:
        raise ValueError(f"bs_words must be non-negative, got {bs_words}")
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(
            f"unknown suite(s): {', '.join(unknown)}; "
            f"available: {', '.join(SUITES)}"
        )
    return [SUITES[n](algebra, seed=seed, bs_words=bs_words) for n in names]
