"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with `pytest -s` or in
captured output).  All equalities are exact; the timed criteria assert
their stated wall-clock limits.
"""

import itertools
import random
import time

import pytest

from heckekit import (
    HeckeAlgebra,
    bott_samelson_char,
    delta_char,
    e_shape,
    euler_hom,
    f_shape,
    graded_hom_rank,
    is_perverse,
    shape_character,
)
from heckekit.laurent import ONE, V, V_INV, ZERO

from oracles import bar_solve_kl, trace_pairing

TYPE_LIST = ["A1", "A1xA1", "A2", "A3", "A4", "B2", "B3",
             "I2(2)", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)"]


def _report(number: int, label: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[acceptance] criterion {number:2d} {label}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {label}"


def _subsets(rank):
    return itertools.chain.from_iterable(
        itertools.combinations(range(rank), k) for k in range(rank + 1)
    )


def test_c01_a3_example(alg_of):
    t0 = time.perf_counter()
    H = alg_of("A3")
    W = H.system
    M = H.parabolic([0, 1])
    char = bott_samelson_char(M, (0, 1, 2))
    elapsed = time.perf_counter() - t0
    stu = W.element_from_word([0, 1, 2])
    u = W.element_from_word([2])
    ok = (char.coeffs == {stu: ONE, u: ONE, 0: V + V_INV}
          and not is_perverse(char)
          and elapsed < 1.0)
    _report(1, "A3 Bott-Samelson example", ok, f"{elapsed:.3f}s")


def test_c02_inversion_identity(alg_of):
    t0 = time.perf_counter()
    ok = True
    for name in TYPE_LIST:
        H = alg_of(name)
        W = H.system
        for subset in _subsets(W.rank):
            M = H.parabolic(subset)
            h = {z: M.kl_basis(z).terms for z in M.reps}
            for x in M.reps:
                lx = W.length(x)
                for z in M.reps:
                    total = ZERO
                    for y, hyz in h[z].items():
                        g = M.inverse_kl(x, y)
                        if g:
                            sign = -1 if (W.length(y) - lx) % 2 else 1
                            total = total + sign * (g * hyz)
                    if total != (ONE if x == z else ZERO):
                        ok = False
    elapsed = time.perf_counter() - t0
    _report(2, "inversion identity, all types, all subsets",
            ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_c03_parabolic_identity(alg_of):
    ok = True
    for name in TYPE_LIST:
        H = alg_of(name)
        W = H.system
        for subset in _subsets(W.rank):
            M = H.parabolic(subset)
            wI = M.w_long
            for x in M.reps:
                pkl = M.kl_basis(x)
                for y in M.reps:
                    if pkl.coeff(y) != H.kl_poly(W.mult(y, wI), W.mult(x, wI)):
                        ok = False
    _report(3, "parabolic KL equals full KL at y w_I, x w_I", ok)


def test_c04_kl_correctness(alg_of):
    ok = True
    for name in TYPE_LIST:
        H = alg_of(name)
        W = H.system
        for x in range(W.size):
            kl = H.kl_basis(x)
            if H.bar(kl) != kl or kl.coeff(x) != ONE:
                ok = False
            for y, p in kl.terms.items():
                if y != x and p.min_degree() < 1:
                    ok = False
    for name in ("A2", "A3", "I2(5)"):
        H = alg_of(name)
        for x in range(H.system.size):
            if H.kl_basis(x).terms != bar_solve_kl(H, x):
                ok = False
    _report(4, "KL bar-invariance, degree bound, bar-solve oracle", ok)


def test_c05_pairing_orthonormality(alg_of):
    ok = True
    for name in TYPE_LIST:
        H = alg_of(name)
        if H.system.size > 24:
            continue
        for x in range(H.system.size):
            for y in range(H.system.size):
                expected = ONE if x == y else ZERO
                hx, hy = H.std(x), H.std(y)
                if trace_pairing(H, hx, hy) != expected:
                    ok = False
                if H.pairing(hx, hy) != expected:
                    ok = False
    _report(5, "pairing orthonormality, groups of order <= 24", ok)


def test_c06_rouquier_shapes(alg_of):
    ok = True
    for name in ("A3", "B3"):
        H = alg_of(name)
        W = H.system
        for subset in _subsets(W.rank):
            M = H.parabolic(subset)
            for x in M.reps:
                shape = f_shape(M, x)
                if shape_character(shape) != M.delta(x):
                    ok = False
                for deg, entries in shape.terms.items():
                    for y, shift, mult in entries:
                        if shift != deg or mult <= 0:
                            ok = False
                        if (deg - W.length(x) + W.length(y)) % 2:
                            ok = False
                layer = {y: m for y, _, m in shape.terms.get(1, ())}
                expected = {}
                for z in M.reps:
                    if z != x:
                        c = M.kl_basis(x).coeff(z).coeff(1)
                        if c:
                            expected[z] = c
                if layer != expected:
                    ok = False
    _report(6, "Rouquier shape linearity, parity, degree-one layer", ok)


def test_c07_euler_hom_delta(alg_of):
    ok = True
    for name in ("A3", "B3"):
        H = alg_of(name)
        for subset in _subsets(H.system.rank):
            M = H.parabolic(subset)
            fs = {x: f_shape(M, x) for x in M.reps}
            es = {x: e_shape(M, x) for x in M.reps}
            for x in M.reps:
                for y in M.reps:
                    expected = ONE if x == y else ZERO
                    if euler_hom(fs[x], es[y]) != expected:
                        ok = False
    _report(7, "Euler Hom of positive against negative lifts is delta", ok)


def test_c08_hom_vanishing(alg_of):
    ok = True
    for name in TYPE_LIST:
        H = alg_of(name)
        for subset in _subsets(H.system.rank):
            M = H.parabolic(subset)
            chars = {x: delta_char(M, x) for x in M.reps}
            for x in M.reps:
                for y in M.reps:
                    r = graded_hom_rank(chars[x], chars[y])
                    md = r.min_degree()
                    if md is not None and md < 0:
                        ok = False
                    if r.coeff(0) != (1 if x == y else 0):
                        ok = False
    _report(8, "Hom ranks vanish below degree zero with delta constant term", ok)


def test_c09_positivity(alg_of):
    ok = True
    for name in TYPE_LIST:
        H = alg_of(name)
        for subset in _subsets(H.system.rank):
            M = H.parabolic(subset)
            for x in M.reps:
                for z in M.reps:
                    if not M.inverse_kl(x, z).is_nonneg():
                        ok = False
    rng = random.Random(2024)
    words_checked = 0
    for name in ("A3", "B3"):
        H = alg_of(name)
        subsets = list(_subsets(H.system.rank))
        for _ in range(110):
            word = [rng.randrange(H.system.rank) for _ in range(rng.randrange(0, 9))]
            M = H.parabolic(rng.choice(subsets))
            char = bott_samelson_char(M, word)
            words_checked += 1
            if not all(c.is_nonneg() for c in char.coeffs.values()):
                ok = False
    _report(9, "inverse-KL and Bott-Samelson positivity",
            ok and words_checked >= 200, f"{words_checked} words")


def test_c10_projection_monotonicity(alg_of):
    ok = True
    for name in ("A3", "B3"):
        H = alg_of(name)
        W = H.system
        for subset in _subsets(W.rank):
            proj = {w: W.project_q(w, subset) for w in range(W.size)}
            for v in range(W.size):
                for w in range(W.size):
                    if W.bruhat_leq(v, w) and not W.bruhat_leq(proj[v], proj[w]):
                        ok = False
    _report(10, "coset projection is Bruhat monotone", ok)


def test_c11_performance(sys_of):
    W = sys_of("A4")
    fresh = HeckeAlgebra(W)
    t0 = time.perf_counter()
    for x in range(W.size):
        fresh.kl_basis(x)
    kl_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    for subset in _subsets(W.rank):
        M = fresh.parabolic(subset)
        for x in M.reps:
            M.kl_basis(x)
        for x in M.reps:
            for z in M.reps:
                M.inverse_kl(x, z)
    table_time = time.perf_counter() - t0

    ok = kl_time < 10.0 and table_time < 60.0
    _report(11, "A4 KL table and parabolic/inverse tables within budget",
            ok, f"KL {kl_time:.2f}s, tables {table_time:.2f}s")
