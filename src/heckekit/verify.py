"""Invariant suites over a whole system: every character-level identity
the library is built on, re-checked exhaustively at desk scale.

Each suite walks all finitary subsets of the generator set (every subset,
since the system is finite), counts checks and reports the first
counterexample.  `run_suites` drives a selection by name.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .hecke import HeckeAlgebra
from .laurent import ONE, ZERO
from .rouquier import e_shape, f_shape, shape_character, euler_hom
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


def suite_inversion(algebra: HeckeAlgebra, **_) -> SuiteResult:
    """The inversion identity and its transposed form, every subset."""
    res = SuiteResult("inversion")
    sys = algebra.system
    for subset in _subsets(algebra):
        mod = algebra.parabolic(subset)
        reps = mod.reps
        h = {z: mod.kl_basis(z).terms for z in reps}
        for x in reps:
            lx = sys.lengths[x]
            for z in reps:
                total = ZERO
                for y, hyz in h[z].items():
                    g = mod.inverse_kl(x, y)
                    if g:
                        sign = -1 if (sys.lengths[y] - lx) % 2 else 1
                        total = total + sign * (g * hyz)
                expected = ONE if x == z else ZERO
                res.check(total == expected,
                          lambda x=x, z=z, subset=subset:
                          f"I={_subset_str(algebra, subset)} inversion fails at "
                          f"x={sys.word_str(x)}, z={sys.word_str(z)}")
                # transposed form: sum over y of (-1)^(l(y)-l(x)) h_{z,y} g_{y,x}
                total_t = ZERO
                for y in reps:
                    hz = h[y].get(z)
                    if hz is None:
                        continue
                    g = mod.inverse_kl(y, x)
                    if g:
                        sign = -1 if (sys.lengths[y] - lx) % 2 else 1
                        total_t = total_t + sign * (hz * g)
                res.check(total_t == expected,
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
            for z in mod.reps:
                g = mod.inverse_kl(x, z)
                res.check(g.is_nonneg(),
                          lambda x=x, z=z, subset=subset:
                          f"I={_subset_str(algebra, subset)} g[{sys.word_str(x)}, "
                          f"{sys.word_str(z)}] = {g} has a negative coefficient")
    return res


def suite_parity(algebra: HeckeAlgebra, **_) -> SuiteResult:
    """g_{y,x} is supported on exponents of parity l(x) - l(y)."""
    res = SuiteResult("parity")
    sys = algebra.system
    for subset in _subsets(algebra):
        mod = algebra.parabolic(subset)
        for y in mod.reps:
            for x in mod.reps:
                g = mod.inverse_kl(y, x)
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
        es = {x: e_shape(mod, x) for x in mod.reps}
        for x in mod.reps:
            res.check(shape_character(fs[x]) == mod.delta(x),
                      lambda x=x, subset=subset:
                      f"I={_subset_str(algebra, subset)} shape character of "
                      f"{sys.word_str(x)} is not the standard basis element")
            for y in mod.reps:
                val = euler_hom(fs[x], es[y])
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
    for subset in _subsets(algebra):
        proj = {w: sys.project_q(w, subset) for w in range(sys.size)}
        for v in range(sys.size):
            for w in range(sys.size):
                if sys.bruhat_leq(v, w):
                    res.check(sys.bruhat_leq(proj[v], proj[w]),
                              lambda v=v, w=w, subset=subset:
                              f"I={_subset_str(algebra, subset)} projection not "
                              f"monotone at v={sys.word_str(v)}, w={sys.word_str(w)}")
    return res


def suite_pairing(algebra: HeckeAlgebra, **_) -> SuiteResult:
    """Orthonormality of the standard basis, on which `pairing` rests:
    the trace eps(H_{x^-1} H_y), multiplied out in the standard basis,
    and the pairing (H_x, H_y) both equal delta_{x,y}."""
    res = SuiteResult("pairing")
    sys = algebra.system
    for x in range(sys.size):
        hx = algebra.std(x)
        # H_{x^-1} H_y for every y, each one generator past H_{x^-1} H_{ys}
        prods = [{sys._inv[x]: ONE}]
        for y in range(1, sys.size):
            s = sys.words[y][-1]
            prods.append(algebra._gen_right_raw(prods[sys._right[y][s]], s))
        for y in range(sys.size):
            trace = prods[y].get(0, ZERO)
            val = algebra.pairing(hx, algebra.std(y))
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
            for z in mod.reps:
                if z == x or not sys.bruhat_leq(z, x):
                    continue
                res.check(
                    mod.inverse_kl(z, x).coeff(1) == pkl.coeff(z).coeff(1),
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
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(
            f"unknown suite(s): {', '.join(unknown)}; "
            f"available: {', '.join(SUITES)}"
        )
    return [SUITES[n](algebra, seed=seed, bs_words=bs_words) for n in names]
