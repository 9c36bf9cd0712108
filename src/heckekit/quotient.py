"""W^I without W: the cosets of a parabolic subgroup as the orbit of one
functional.

In a Cartan system of finite type (`realizable`), lambda_I, the functional
that is 0 on I and 1 elsewhere, has stabiliser W_I.  So x in W^I is keyed
by lambda_I o x^-1, key(s x) = step(s, key(x)) under the packed step of
`coxeter._chamber_action`, and the orbit of lambda_I runs through the
breadth-first loop `coxeter._orbit` that enumerates W.  The step fixes a
key exactly when s x = x t with t in I (Deodhar, J. Algebra 111 (1987)),
l(x) is the breadth-first depth, and the canonical word of x is its
smallest left descent s followed by that of s x.  `build` returns a
`CosetSystem`, the system a parabolic module of I reads in place of W.

The CLI's module subcommands load this module on their first call, so a
command that needs W alone never loads it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import coxeter
from .coxeter import (DEFAULT_CAP, CoxeterMatrix, CoxeterSystem, GroupTooLarge,
                      UnsupportedBond, _BIAS, _KEY_BITS, _MASK, _cartan_matrix,
                      _chamber_action, _not_a_rep, _orbit, _too_large)


def realizable(matrix: CoxeterMatrix) -> bool:
    """Whether `build` applies: rank >= 3, every label in {2, 3, 4, 6},
    and a Cartan matrix of finite type.  With no positive off-diagonal
    entry, positive leading principal minors make all principal minors
    positive (an M-matrix), which is finite type (Kac, Infinite-dimensional
    Lie algebras, ch. 4); Bareiss elimination leaves them as its pivots."""
    if matrix.rank < 3:
        return False
    try:
        a, others = _cartan_matrix(matrix)
    except UnsupportedBond:
        return False
    if others:
        return False
    last = 1
    for k, pivot_row in enumerate(a):
        pivot = pivot_row[k]
        if pivot <= 0:
            return False
        for row in a[k + 1:]:
            c = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * pivot - c * pivot_row[j]) // last
        last = pivot
    return True


def _coordinate(key: int, j: int) -> int:
    """Coordinate j of a packed Cartan chamber key."""
    return (key >> _KEY_BITS * j & _MASK) - _BIAS


def _walk(key: int, step, rank: int, sign: int) -> list[int]:
    """The letters of stepping a Cartan key by the smallest generator whose
    coordinate has the sign of `sign` until none has: from the key of u,
    the canonical word of u^-1 (sign -1) or a reduced word of u^-1 w0
    (sign 1)."""
    letters, s = [], 0
    while s < rank:
        if _coordinate(key, s) * sign > 0:
            letters.append(s)
            key, s = step(s, key), 0
        else:
            s += 1
    return letters


class CosetSystem(CoxeterSystem):
    """W^I alone for one subset I (`build`), in W's index order: the
    system a parabolic module of I reads.  `first[x]` is the smallest
    left descent, `_left[x][s]` is s x, or x where s x = x t with t in I.
    `subset` accepts I alone; W's own tables (`tree`, right action,
    inverses) are None, so products and W_I are not available."""

    def __init__(self, matrix, subset: frozenset[int], lengths, first, left,
                 opposites: dict[int, int], shift: int, realization):
        super().__init__(matrix, lengths, None, first, None, left, None)
        self.quotient = subset
        self._opposites = opposites
        self._shift = shift
        # (key of e, step) keying w in W by rho o w
        self._rho, self._step = realization

    def subset(self, gens: Iterable[int]) -> frozenset[int]:
        out = super().subset(gens)
        if out != self.quotient:
            labels = ", ".join(map(self.gen_label, sorted(self.quotient)))
            raise ValueError(f"this system holds W^I for I = {{{labels}}} only")
        return out

    def reduced_word(self, w: int) -> tuple[int, ...]:
        """The lexicographically smallest reduced word, first letters first."""
        self._check_element(w)
        left, first, word = self._left, self.first, []
        while w:
            s = first[w]
            word.append(s)
            w = left[w][s]
        return tuple(word)

    def element_from_word(self, word: Iterable[int]) -> int:
        """The product w of a word, reduced or not, read on W: rho stepped
        along it keys w, and a negative coordinate is a right descent.  If
        one is in I, the ValueError spells w off the key of w^-1, smallest
        left descent first; else w is found by the left table."""
        word = list(word)
        for s in word:
            if not 0 <= s < self.rank:
                raise ValueError(f"generator index {s} out of range")
        step, key = self._step, self._rho
        for s in word:
            key = step(s, key)
        if any(_coordinate(key, s) < 0 for s in self.quotient):
            key = self._rho
            for s in reversed(word):
                key = step(s, key)
            raise _not_a_rep(".".join(map(self.gen_label, _walk(key, step, self.rank, -1))))
        x, left = 0, self._left
        for s in reversed(word):
            x = left[x][s]
        return x

    def _coset_reps(self, subset: Iterable[int]) -> range:
        self.subset(subset)
        return range(self.size)

    def subgroup(self, subset: Iterable[int]) -> tuple[int, ...]:
        raise ValueError("the elements of W_I are not in W^I")

    def longest_length_in(self, subset: Iterable[int]) -> int:
        self.subset(subset)
        return self._shift

    def opposites(self, subset: Iterable[int]) -> dict[int, int]:
        self.subset(subset)
        return dict(self._opposites)

    def coset_action(self, subset: Iterable[int]) -> Sequence[Sequence[int]]:
        self.subset(subset)
        return self._left

    def _extend(self, p: tuple[int, ...]) -> tuple[int, ...]:
        """phi(x) = p(s) phi(s x), s = first[x], as s x comes first."""
        left, first, phi = self._left, self.first, [0]
        for x in range(1, self.size):
            s = first[x]
            phi.append(left[phi[left[x][s]]][p[s]])
        return tuple(phi)

    def check_group(self, cap: int) -> None:
        """Raise the GroupTooLarge of `coxeter.build(matrix, cap)` if
        |W| = |W^I| |W_I| > cap, enumerating W_I up to cap // |W^I|."""
        bound = cap // self.size
        if bound:
            gens = sorted(self.quotient)
            try:
                coxeter.build(CoxeterMatrix([[self.matrix.bond(i, j) for j in gens]
                                             for i in gens]), bound)
                return
            except GroupTooLarge:
                pass
        raise _too_large(cap)


def build(matrix: CoxeterMatrix, subset: Iterable[int],
          cap: int = DEFAULT_CAP) -> CosetSystem:
    """W^I for a non-empty I without W, for a `realizable` matrix; the
    index order is W's.  Stepping rho while a coordinate is positive
    spells a reduced word of w0, whose action is r -> w0 r w_I.  Raises
    GroupTooLarge past `cap` cosets."""
    if cap < 1:
        raise ValueError("cap must be positive")
    if not realizable(matrix):
        raise ValueError("W^I is enumerated without W only for a Cartan "
                         "matrix of finite type and rank >= 3")
    gens = range(matrix.rank)
    subset = frozenset(subset)
    if not subset or not subset <= set(gens):
        raise ValueError(f"subset must be a non-empty set of generator "
                         f"indices below {matrix.rank}")
    rho, step = _chamber_action(matrix)
    identity = sum((int(j not in subset) + _BIAS) << _KEY_BITS * j for j in gens)
    lengths, _, rows = _orbit(identity, step, matrix.rank, cap)

    # canonical order: the word of y is its smallest left descent s, then
    # that of s y, so each length is placed by s, then by s y
    new, first, level = {0: 0}, [None], [0]
    while level:
        above = []
        for s in gens:
            for x in level:
                y = rows[x][s]
                if y not in new:
                    new[y] = len(first)
                    first.append(s)
                    above.append(y)
        level = above
    left = tuple(tuple(new[y] for y in rows[x]) for x in new)

    w0 = _walk(rho, step, matrix.rank, 1)
    opposites = {}
    for x in range(len(left)):
        r = x
        for s in w0:
            r = left[r][s]
        opposites[x] = r
    return CosetSystem(matrix, subset, tuple(lengths[x] for x in new), tuple(first),
                       left, opposites, len(w0) - lengths[-1], (rho, step))
