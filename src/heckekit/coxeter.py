"""Finite Coxeter systems from a Coxeter matrix.

A system is fully enumerated at construction time.  Elements are opaque
integer indices into a canonical enumeration: length ascending, ties
broken by the lexicographically smallest reduced word, identity at
position 0.  All group structure (multiplication by generators on both
sides, inverses, Bruhat order, coset machinery) is answered from tables
built once, so queries are pure functions of (system, arguments).

Two exact realizations back the enumeration:

* bond labels in {2, 3, 4, 6} admit an integer root system; elements are
  the permutations they induce on the (finite) set of roots;
* rank-2 systems with an arbitrary label m >= 2 use the dihedral normal
  form sigma^eps rho^k directly.

Either way the realization is faithful, so distinct elements get
distinct keys.  Non-crystallographic bonds in rank >= 3 (H3, H4, ...)
are rejected.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Sequence

from .laurent import LaurentPoly, vpow

DEFAULT_CAP = 50_000

# products a_st * a_ts of the integer Cartan pairing realizing each bond
_CRYSTAL_PAIRS = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3)}


class UnsupportedBond(ValueError):
    """A bond label without an integer root-system realization (rank >= 3)."""


class GroupTooLarge(RuntimeError):
    """Enumeration exceeded the cap: the group is infinite or over-cap."""


class CoxeterMatrix:
    """Symmetric matrix of bond labels m_st with m_ss = 1, m_st >= 2."""

    __slots__ = ("rank", "m")

    def __init__(self, entries: Sequence[Sequence[int]]):
        rank = len(entries)
        if rank < 1:
            raise ValueError("rank must be positive")
        m = tuple(tuple(int(x) for x in row) for row in entries)
        if any(len(row) != rank for row in m):
            raise ValueError("Coxeter matrix must be square")
        for i in range(rank):
            if m[i][i] != 1:
                raise ValueError("diagonal entries must be 1")
            for j in range(i + 1, rank):
                if m[i][j] != m[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")
                if m[i][j] < 2:
                    raise ValueError("off-diagonal entries must be >= 2")
        self.rank = rank
        self.m = m

    def bond(self, i: int, j: int) -> int:
        return self.m[i][j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CoxeterMatrix) and self.m == other.m

    def __hash__(self) -> int:
        return hash(self.m)

    def __repr__(self) -> str:
        return f"CoxeterMatrix({[list(r) for r in self.m]})"

    @classmethod
    def from_name(cls, name: str) -> "CoxeterMatrix":
        """Expand a named type like "A3", "B3", "I2(7)" or "A1xA1".

        Factors are joined with "x" and laid out block-diagonally;
        generators are labeled s1..sn in Dynkin order across the blocks.
        """
        factors = [f.strip() for f in name.split("x") if f.strip()]
        if not factors:
            raise ValueError(f"empty type name: {name!r}")
        blocks = [_named_factor_bonds(f) for f in factors]
        rank = sum(n for n, _ in blocks)
        m = [[2] * rank for _ in range(rank)]
        for i in range(rank):
            m[i][i] = 1
        offset = 0
        for n, bonds in blocks:
            for (i, j), label in bonds.items():
                m[offset + i][offset + j] = label
                m[offset + j][offset + i] = label
            offset += n
        return cls(m)

    @classmethod
    def from_text(cls, text: str) -> "CoxeterMatrix":
        """Parse "rank  m12 m13 ... m23 ..." (upper triangle, row-major)."""
        values = [int(tok) for tok in text.split()]
        if not values:
            raise ValueError("empty Coxeter matrix description")
        rank = values[0]
        entries = values[1:]
        expected = rank * (rank - 1) // 2
        if rank < 1 or len(entries) != expected:
            raise ValueError(
                f"expected rank followed by {expected} upper-triangular entries"
            )
        m = [[2] * rank for _ in range(rank)]
        k = 0
        for i in range(rank):
            m[i][i] = 1
            for j in range(i + 1, rank):
                m[i][j] = m[j][i] = entries[k]
                k += 1
        return cls(m)

    @classmethod
    def from_file(cls, path: str) -> "CoxeterMatrix":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())


_FACTOR_RE = re.compile(r"^([A-H])(\d+)$")
_I2_RE = re.compile(r"^I2\((\d+)\)$")


def _chain(n: int, last: int = 3) -> dict[tuple[int, int], int]:
    bonds = {(i, i + 1): 3 for i in range(n - 1)}
    if n >= 2:
        bonds[(n - 2, n - 1)] = last
    return bonds


def _named_factor_bonds(factor: str) -> tuple[int, dict[tuple[int, int], int]]:
    m = _I2_RE.match(factor)
    if m:
        label = int(m.group(1))
        if label < 2:
            raise ValueError(f"I2(m) needs m >= 2, got {factor!r}")
        return 2, {(0, 1): label}
    m = _FACTOR_RE.match(factor)
    if not m:
        raise ValueError(f"unknown type name: {factor!r}")
    letter, n = m.group(1), int(m.group(2))
    if letter == "A" and n >= 1:
        return n, _chain(n)
    if letter in ("B", "C") and n >= 2:
        return n, _chain(n, last=4)
    if letter == "D" and n >= 3:
        bonds = {(i, i + 1): 3 for i in range(n - 2)}
        bonds[(n - 3, n - 1)] = 3
        return n, bonds
    if letter == "E" and n in (6, 7, 8):
        bonds = {(0, 2): 3, (1, 3): 3}
        bonds.update({(i, i + 1): 3 for i in range(2, n - 1)})
        return n, bonds
    if letter == "F" and n == 4:
        return 4, {(0, 1): 3, (1, 2): 4, (2, 3): 3}
    if letter == "G" and n == 2:
        return 2, {(0, 1): 6}
    if letter == "H" and n in (3, 4):
        bonds = {(0, 1): 5}
        bonds.update({(i, i + 1): 3 for i in range(1, n - 1)})
        return n, bonds
    raise ValueError(f"unknown type name: {factor!r}")


# ---------------------------------------------------------------------------
# element realizations


def _root_permutation_gens(matrix: CoxeterMatrix, cap: int):
    """Generators as permutations of the full root set of an integer
    realization of the matrix (bond labels restricted to {2,3,4,6})."""
    n = matrix.rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for i in range(n):
        for j in range(i + 1, n):
            label = matrix.bond(i, j)
            if label not in _CRYSTAL_PAIRS:
                raise UnsupportedBond(
                    f"bond m(s{i + 1},s{j + 1}) = {label} has no integer "
                    "root-system realization; only labels 2, 3, 4, 6 are "
                    "supported in rank >= 3"
                )
            a[i][j], a[j][i] = _CRYSTAL_PAIRS[label]

    def reflect(i: int, root: tuple[int, ...]) -> tuple[int, ...]:
        # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i
        pair = sum(b * a[i][j] for j, b in enumerate(root))
        out = list(root)
        out[i] -= pair
        return tuple(out)

    roots: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    for i in range(n):
        root = tuple(1 if j == i else 0 for j in range(n))
        index[root] = len(roots)
        roots.append(root)
    frontier = list(roots)
    while frontier:
        new = []
        for root in frontier:
            for i in range(n):
                img = reflect(i, root)
                if img not in index:
                    index[img] = len(roots)
                    roots.append(img)
                    new.append(img)
                    if len(roots) > 2 * cap:
                        raise GroupTooLarge(
                            f"root system exceeds {2 * cap} roots; "
                            "the group is infinite or the cap is too small"
                        )
        frontier = new

    gens = [
        tuple(index[reflect(i, r)] for r in roots) for i in range(n)
    ]
    identity = tuple(range(len(roots)))

    def mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(p[i] for i in q)

    return identity, gens, mul


def _dihedral_gens(matrix: CoxeterMatrix):
    """Rank-2 normal forms sigma^eps rho^k for any bond label m >= 2."""
    m = matrix.bond(0, 1)

    def mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        e1, k1 = x
        e2, k2 = y
        k = k1 + k2 if e2 == 0 else k2 - k1
        return (e1 ^ e2, k % m)

    return (0, 0), [(1, 0), (1, 1)], mul


# ---------------------------------------------------------------------------


class CoxeterSystem:
    """A fully enumerated finite Coxeter system.  Build with `build`.

    Immutable after construction except the lazily filled Bruhat and
    coset memo tables and the word-string table `_word_strs` (the
    dotted word of each element, filled on first use by `word_str`),
    whose entries are deterministic values.
    """

    def __init__(self, matrix: CoxeterMatrix, lengths, words, right, left, inv):
        self.matrix = matrix
        self.rank = matrix.rank
        self.size = len(lengths)
        self.lengths: tuple[int, ...] = lengths
        self.words: tuple[tuple[int, ...], ...] = words
        self._right = right
        self._left = left
        self._inv = inv
        if self.size > 1 and lengths[-1] == lengths[-2]:
            raise RuntimeError("no unique longest element; enumeration is broken")
        self.longest = self.size - 1
        self._bruhat: dict[tuple[int, int], bool] = {}
        self._subgroup: dict[frozenset[int], tuple[int, ...]] = {}
        self._min_reps: dict[frozenset[int], tuple[int, ...]] = {}
        self._word_strs: dict[int, str] = {}

    # -- generators and words ---------------------------------------------

    def gens(self) -> range:
        return range(self.rank)

    def gen_label(self, s: int) -> str:
        return f"s{s + 1}"

    def gen_index(self, label: str) -> int:
        if label.startswith("s"):
            try:
                s = int(label[1:]) - 1
            except ValueError:
                s = -1
            if 0 <= s < self.rank:
                return s
        raise ValueError(f"unknown generator label {label!r}")

    def word_str(self, w: int) -> str:
        text = self._word_strs.get(w)
        if text is None:
            word = self.words[w]
            text = ".".join(self.gen_label(s) for s in word) if word else "e"
            self._word_strs[w] = text
        return text

    def parse_element(self, text: str) -> int:
        """Read an element from a dotted word like "s1.s2" ("e" = identity)."""
        text = text.strip()
        if text in ("e", ""):
            return 0
        word = [self.gen_index(tok) for tok in text.split(".")]
        return self.element_from_word(word)

    def element_from_word(self, word: Iterable[int]) -> int:
        w = 0
        for s in word:
            if not 0 <= s < self.rank:
                raise ValueError(f"generator index {s} out of range")
            w = self._right[w][s]
        return w

    # -- basic queries ------------------------------------------------------

    def length(self, w: int) -> int:
        return self.lengths[w]

    def reduced_word(self, w: int) -> tuple[int, ...]:
        """The lexicographically smallest reduced word for w."""
        return self.words[w]

    def mult_gen(self, w: int, s: int, side: str = "right") -> int:
        return self._table(side)[w][s]

    def mult(self, w: int, u: int) -> int:
        """The product w * u (replays u's canonical word)."""
        right = self._right
        for s in self.words[u]:
            w = right[w][s]
        return w

    def inverse(self, w: int) -> int:
        return self._inv[w]

    def descents(self, w: int, side: str = "right") -> frozenset[int]:
        table = self._table(side)
        lw = self.lengths[w]
        return frozenset(s for s in range(self.rank) if self.lengths[table[w][s]] < lw)

    def _table(self, side: str):
        if side == "right":
            return self._right
        if side == "left":
            return self._left
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    # -- Bruhat order --------------------------------------------------------

    def bruhat_leq(self, x: int, y: int) -> bool:
        """Bruhat order via the descent recursion, memoized."""
        if x == y or x == 0:
            return True
        lx, ly = self.lengths[x], self.lengths[y]
        if lx >= ly:
            return False
        key = (x, y)
        cached = self._bruhat.get(key)
        if cached is not None:
            return cached
        s = self.words[y][0]  # smallest left descent of y
        sy = self._left[y][s]
        sx = self._left[x][s]
        if self.lengths[sx] < lx:
            result = self.bruhat_leq(sx, sy)
        else:
            result = self.bruhat_leq(x, sy)
        self._bruhat[key] = result
        return result

    # -- parabolic subgroups and cosets ---------------------------------------

    def subset(self, gens: Iterable[int]) -> frozenset[int]:
        out = frozenset(gens)
        for s in out:
            if not 0 <= s < self.rank:
                raise ValueError(f"generator index {s} out of range")
        return out

    def subgroup(self, subset: Iterable[int]) -> tuple[int, ...]:
        """Elements of W_I in enumeration order (canonical word uses only I)."""
        key = self.subset(subset)
        cached = self._subgroup.get(key)
        if cached is None:
            cached = tuple(
                w for w in range(self.size) if set(self.words[w]) <= key
            )
            self._subgroup[key] = cached
        return cached

    def longest_in(self, subset: Iterable[int]) -> int:
        return self.subgroup(subset)[-1]

    def poincare(self, subset: Iterable[int]) -> LaurentPoly:
        """Poincare polynomial of W_I: sum of v^(2 l(w)) over W_I."""
        return LaurentPoly((2 * self.lengths[w], 1) for w in self.subgroup(subset))

    def is_min_coset_rep(self, w: int, subset: Iterable[int]) -> bool:
        """True iff ws > w for every s in I (w is minimal in w W_I)."""
        lw = self.lengths[w]
        return all(self.lengths[self._right[w][s]] > lw for s in self.subset(subset))

    def min_reps(self, subset: Iterable[int]) -> tuple[int, ...]:
        key = self.subset(subset)
        cached = self._min_reps.get(key)
        if cached is None:
            cached = tuple(
                w for w in range(self.size) if self.is_min_coset_rep(w, key)
            )
            self._min_reps[key] = cached
        return cached

    def coset_decompose(self, w: int, subset: Iterable[int]) -> tuple[int, int]:
        """Split w = y * u with y minimal in w W_I, u in W_I, lengths adding."""
        key = self.subset(subset)
        stripped: list[int] = []
        cur = w
        while True:
            lcur = self.lengths[cur]
            for s in sorted(key):
                if self.lengths[self._right[cur][s]] < lcur:
                    stripped.append(s)
                    cur = self._right[cur][s]
                    break
            else:
                break
        u = 0
        for s in reversed(stripped):
            u = self._right[u][s]
        return cur, u

    def project_q(self, w: int, subset: Iterable[int]) -> int:
        """The projection W -> W/W_I composed with the minimal-rep section."""
        return self.coset_decompose(w, subset)[0]


def build(matrix: CoxeterMatrix, cap: int = DEFAULT_CAP) -> CoxeterSystem:
    """Enumerate the Coxeter system of `matrix`.

    Raises UnsupportedBond for non-crystallographic bonds in rank >= 3 and
    GroupTooLarge when the enumeration exceeds `cap` elements.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    if matrix.rank == 2:
        identity, gen_keys, mul = _dihedral_gens(matrix)
    else:
        identity, gen_keys, mul = _root_permutation_gens(matrix, cap)

    length: dict = {identity: 0}
    frontier = [identity]
    while frontier:
        new = []
        for k in frontier:
            lk = length[k]
            for g in gen_keys:
                k2 = mul(k, g)
                if k2 not in length:
                    length[k2] = lk + 1
                    new.append(k2)
                    if len(length) > cap:
                        raise GroupTooLarge(
                            f"more than {cap} elements; the group is "
                            "infinite or the cap is too small"
                        )
        frontier = new

    n = matrix.rank
    word: dict = {identity: ()}
    for key in sorted(length, key=lambda k: (length[k], k)):
        if key == identity:
            continue
        lk = length[key]
        for s in range(n):
            k2 = mul(gen_keys[s], key)
            if length[k2] < lk:
                word[key] = (s,) + word[k2]
                break

    ordered = sorted(length, key=lambda k: (length[k], word[k]))
    index = {k: i for i, k in enumerate(ordered)}

    lengths = tuple(length[k] for k in ordered)
    words = tuple(word[k] for k in ordered)
    right = tuple(
        tuple(index[mul(k, gen_keys[s])] for s in range(n)) for k in ordered
    )
    left = tuple(
        tuple(index[mul(gen_keys[s], k)] for s in range(n)) for k in ordered
    )
    inv = []
    for i, w in enumerate(words):
        u = 0
        for s in reversed(w):
            u = right[u][s]
        inv.append(u)
    return CoxeterSystem(matrix, lengths, words, right, left, tuple(inv))


def build_named(name: str, cap: int = DEFAULT_CAP) -> CoxeterSystem:
    return build(CoxeterMatrix.from_name(name), cap)
