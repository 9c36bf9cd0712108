"""Finite Coxeter systems from a Coxeter matrix.

A system is fully enumerated at construction time.  Elements are opaque
integer indices into a canonical enumeration: length ascending, ties
broken by the lexicographically smallest reduced word, identity at
position 0.  Multiplication by generators on both sides, inverses and
Bruhat order are answered from tables built once; the coset machinery of
a subset I (W_I, W^I, w = y u) reads one table, the minimal coset
representative of every element, built on first use.  Queries are pure
functions of (system, arguments).

No word is stored: a canonical word is spelled on demand along the
discovery tree of the enumeration (`CoxeterSystem.tree`), so a system
takes memory linear in |W| for every type.

Elements are enumerated as the orbit of one chamber: w is keyed by w^-1
applied to a base chamber, so key(w s) = act(s, key(w)).  There are two
exact realizations, and a product of Coxeter groups takes one per factor:

* a dihedral group with an arbitrary label m >= 2 acts on the 2m chambers
  Z/2m, s1 by i -> -1 - i and s2 by i -> 1 - i; keys are single integers
  for every m;
* bond labels in {2, 3, 4, 6} admit an integer Cartan matrix; keys are the
  images of rho = (1, ..., 1), a functional given by its values on the
  simple roots, packed into one integer with one biased 32-bit digit per
  coordinate, so a step is one digit extraction and one product with a
  packed Cartan row.

A system of rank 2 is dihedral, and one of rank >= 3 with every label in
{2, 3, 4, 6} is Cartan.  In any other system each label outside that set
must join the two generators of an irreducible factor of rank 2 (as in
I2(5)xA1); each such factor gets a Z/2m digit of its own above the Cartan
digits of the other generators.  Either way distinct elements get
distinct keys.  Non-crystallographic bonds in irreducible factors of rank
>= 3 (H3, H4, ...) are rejected.

In a Cartan system of finite type, W^I alone is the orbit of one
functional under the same step (quotient.py); both orbits run through
`_orbit`.
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Iterable, Mapping, Sequence

from .laurent import LaurentPoly

DEFAULT_CAP = 50_000

# bits per coordinate of a packed chamber key, its bias and digit mask
# (see `_chamber_action`)
_KEY_BITS = 32
_BIAS = 1 << _KEY_BITS - 1
_MASK = (1 << _KEY_BITS) - 1

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
        try:
            m = tuple(tuple(operator.index(x) for x in row) for row in entries)
        except TypeError:
            raise ValueError("Coxeter matrix entries must be integers") from None
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

    def gen_index(self, label: str) -> int:
        """The index of "s1".."sn": ASCII digits, no sign, space or leading 0."""
        m = _GEN_RE.fullmatch(label)
        if m and int(m.group(1)) <= self.rank:
            return int(m.group(1)) - 1
        raise ValueError(f"unknown generator label {label!r}")

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
        if not name.strip(" "):
            raise ValueError(f"empty type name: {name!r}")
        factors = [f.strip(" ") for f in name.split("x")]
        if "" in factors:
            raise ValueError(f"unknown type name: {name!r} has an empty factor")
        bonds, offset = {}, 0
        for n, block in map(_named_factor_bonds, factors):
            bonds.update({(offset + i, offset + j): label
                          for (i, j), label in block.items()})
            offset += n
        return cls._from_bonds(offset, bonds)

    @classmethod
    def from_text(cls, text: str) -> "CoxeterMatrix":
        """Parse "rank  m12 m13 ... m23 ..." (upper triangle, row-major)."""
        tokens = text.split()
        bad = [tok for tok in tokens if not _NUMERAL_RE.fullmatch(tok)]
        if bad:
            raise ValueError(f"Coxeter matrix entries are positive integers, got {bad[0]!r}")
        values = [int(tok) for tok in tokens]
        if not values:
            raise ValueError("empty Coxeter matrix description")
        rank = values[0]
        entries = values[1:]
        expected = rank * (rank - 1) // 2
        if rank < 1 or len(entries) != expected:
            raise ValueError(
                f"expected rank followed by {expected} upper-triangular entries"
            )
        return cls._from_bonds(rank, dict(zip(itertools.combinations(range(rank), 2),
                                              entries)))

    @classmethod
    def from_file(cls, path: str) -> "CoxeterMatrix":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    @classmethod
    def _from_bonds(cls, rank: int, bonds: dict[tuple[int, int], int]) -> "CoxeterMatrix":
        """1 on the diagonal, bonds[i, j] at (i, j) and (j, i), 2 elsewhere."""
        m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
        for (i, j), label in bonds.items():
            m[i][j] = m[j][i] = label
        return cls(m)


# an ASCII numeral without sign or leading zero; every pattern is fullmatched
_NUMERAL = r"[1-9][0-9]*"
_NUMERAL_RE = re.compile(_NUMERAL)
_FACTOR_RE = re.compile(rf"([A-H])({_NUMERAL})")
_I2_RE = re.compile(rf"I2\(({_NUMERAL})\)")
_GEN_RE = re.compile(rf"s({_NUMERAL})")


def _chain(n: int, last: int = 3) -> dict[tuple[int, int], int]:
    bonds = {(i, i + 1): 3 for i in range(n - 1)}
    if n >= 2:
        bonds[(n - 2, n - 1)] = last
    return bonds


def _named_factor_bonds(factor: str) -> tuple[int, dict[tuple[int, int], int]]:
    m = _I2_RE.fullmatch(factor)
    if m:
        label = int(m.group(1))
        if label < 2:
            raise ValueError(f"I2(m) needs m >= 2, got {factor!r}")
        return 2, {(0, 1): label}
    m = _FACTOR_RE.fullmatch(factor)
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


def _cartan_matrix(matrix: CoxeterMatrix) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """(a, others): the integer Cartan matrix over the labels in {2, 3, 4,
    6}, 0 elsewhere, and the pairs i < j of the other labels, each the two
    generators of a dihedral factor (else UnsupportedBond)."""
    n = matrix.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    others = []
    for i in range(n):
        for j in range(i + 1, n):
            label = matrix.bond(i, j)
            if label in _CRYSTAL_PAIRS:
                a[i][j], a[j][i] = _CRYSTAL_PAIRS[label]
            elif _is_dihedral_factor(matrix, i, j):
                others.append((i, j))
            else:
                raise UnsupportedBond(
                    f"bond m(s{i + 1},s{j + 1}) = {label} has no integer "
                    "root-system realization; only labels 2, 3, 4, 6 are "
                    "supported in rank >= 3"
                )
    return a, others


def _chamber_action(matrix: CoxeterMatrix):
    """(identity key, step) with key(w s) = step(s, key(w)), keys distinct.

    The dihedral action on Z/2m is simply transitive.  rho lies inside
    the fundamental chamber, whose images under W are disjoint (Tits;
    Vinberg for non-symmetric Cartan pairs), and s_i moves a functional
    f by f o s_i: f_j -> f_j - a[i][j] f_i.

    In the Cartan realization a key is the integer sum of
    (f_j + B) << D j with D = _KEY_BITS and bias B = 2^(D-1): each
    coordinate sits in its own D-bit digit.  The map is linear over Z,
    so with row_i = sum of a[i][j] << D j the step is
    key - f_i row_i, where f_i is read off digit i; as a[i][i] = 2,
    digit i becomes -f_i + B.  The product is exact only while every
    image coordinate lies in (-B, B), so a step raises GroupTooLarge
    when |f_i| >= L = 2^(D-3).  `_orbit` steps a key by every generator
    before the next key, skipping each s whose neighbour k' is known: its
    digit s is -f_s of k', checked when k' stepped.  So every coordinate
    of an expanded key has |f_j| < L, and GroupTooLarge is raised at the
    same step as with no step skipped.  The off-diagonal entries have |a[i][j]| <= 3,
    so |f_j - a[i][j] f_i| < L + 3L = B and every digit of the image is
    exact.  Finite types stay far inside: no coordinate exceeds the
    height of the highest root, 29 in E8.
    """
    n = matrix.rank
    if n == 2:
        m2 = 2 * matrix.bond(0, 1)
        return 0, lambda s, i: (2 * s - 1 - i) % m2
    # a[i][j] = <alpha_j, alpha_i^vee>, so s_i(alpha_j) = alpha_j - a[i][j] alpha_i
    a, others = _cartan_matrix(matrix)
    # generator -> (digit shift, 2m, side 0 or 1) in a dihedral factor
    dihedral: dict[int, tuple[int, int, int]] = {}
    top = _KEY_BITS * n
    for i, j in others:
        label = matrix.bond(i, j)
        dihedral[i], dihedral[j] = (top, 2 * label, 0), (top, 2 * label, 1)
        top += (2 * label).bit_length()

    bias, mask = _BIAS, _MASK
    limit = bias >> 2
    shifts = [_KEY_BITS * i for i in range(n)]
    rows = [sum(aij << shift for aij, shift in zip(row, shifts)) for row in a]

    def step(i: int, key: int) -> int:
        fi = (key >> shifts[i] & mask) - bias
        if not -limit < fi < limit:
            raise GroupTooLarge(
                f"chamber key coordinate {fi} is past the packed bound "
                f"|c| < 2^{_KEY_BITS - 3}; the group is infinite"
            )
        return key - fi * rows[i]

    identity = sum((1 + bias) << shifts[i] for i in range(n) if i not in dihedral)
    if not dihedral:
        return identity, step

    def mixed_step(i: int, key: int) -> int:
        if i not in dihedral:
            return step(i, key)
        # d -> 2 side - 1 - d on the factor's digit, as in rank 2
        shift, m2, side = dihedral[i]
        d = key >> shift & (1 << m2.bit_length()) - 1
        return key + (((2 * side - 1 - d) % m2 - d) << shift)

    return identity, mixed_step


def _is_dihedral_factor(matrix: CoxeterMatrix, i: int, j: int) -> bool:
    """Whether s_i and s_j commute with every other generator, so that
    they generate an irreducible factor of rank 2."""
    return all(matrix.bond(k, i) == matrix.bond(k, j) == 2
               for k in range(matrix.rank) if k not in (i, j))


def _graph_automorphisms(m, subset: frozenset[int]) -> list[tuple[int, ...]]:
    """For each i < j, one permutation p with m[p[a]][p[b]] = m[a][b] and
    p(I) = I that fixes 0 .. i-1 and sends i to j, where there is one,
    found by backtracking in index order."""
    n = len(m)
    # such a p keeps membership in I and the multiset of labels at a vertex
    shape = [(a in subset, sorted(row)) for a, row in enumerate(m)]

    def extend(p: list[int], i: int, j: int) -> bool:
        k = len(p)
        if k == n:
            return True
        for t in ([j] if k == i else range(n)):
            if (shape[t] == shape[k] and t not in p
                    and all(m[p[a]][t] == m[a][k] for a in range(k))):
                p.append(t)
                if extend(p, i, j):
                    return True
                p.pop()
        return False

    out = []
    for i in range(n):
        for j in range(i + 1, n):
            p = list(range(i))
            if extend(p, i, j):
                out.append(tuple(p))
    return out


# ---------------------------------------------------------------------------


class CoxeterSystem:
    """A fully enumerated finite Coxeter system.  Build with `build`.

    `tree[w]` = (u, s) says that w = u s was first reached from u, so
    w's canonical word is u's followed by s; `first[w]` is its first
    letter.  Both are None at e.

    Immutable after construction except the lazily filled coset table
    and graph automorphism maps per subset, whose entries are
    deterministic values.
    """

    def __init__(self, matrix: CoxeterMatrix, lengths, tree, first, right, left, inv):
        self.matrix = matrix
        self.rank = matrix.rank
        self.size = len(lengths)
        self.lengths: tuple[int, ...] = lengths
        self.tree: tuple[tuple[int, int] | None, ...] = tree
        self.first: tuple[int | None, ...] = first
        self._right = right
        self._left = left
        self._inv = inv
        if self.size > 1 and lengths[-1] == lengths[-2]:
            raise RuntimeError("no unique longest element; enumeration is broken")
        self.longest = self.size - 1
        self._reps: dict[frozenset[int], list[int]] = {}
        self._automorphisms: dict[frozenset[int], tuple[tuple[int, ...], ...]] = {}

    # -- generators and words ---------------------------------------------

    def gens(self) -> range:
        return range(self.rank)

    def gen_label(self, s: int) -> str:
        return f"s{s + 1}"

    def gen_index(self, label: str) -> int:
        return self.matrix.gen_index(label)

    def word_str(self, w: int) -> str:
        word = self.reduced_word(w)
        return ".".join(self.gen_label(s) for s in word) if word else "e"

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

    def _check_element(self, w: int) -> None:
        if not 0 <= w < self.size:
            raise ValueError(f"element index {w} out of range")

    def length(self, w: int) -> int:
        self._check_element(w)
        return self.lengths[w]

    def reduced_word(self, w: int) -> tuple[int, ...]:
        """The lexicographically smallest reduced word for w, spelled
        backwards along the discovery tree."""
        self._check_element(w)
        tree, word = self.tree, []
        while w:
            w, s = tree[w]
            word.append(s)
        return tuple(reversed(word))

    def mult_gen(self, w: int, s: int, side: str = "right") -> int:
        table = self._table(side)
        self._check_element(w)
        if not 0 <= s < self.rank:
            raise ValueError(f"generator index {s} out of range")
        return table[w][s]

    def mult(self, w: int, u: int) -> int:
        """The product w * u: walking w's tree path multiplies u on the
        left by the letters of w's canonical word, last letter first."""
        self._check_element(w)
        self._check_element(u)
        tree, left = self.tree, self._left
        while w:
            w, s = tree[w]
            u = left[u][s]
        return u

    def inverse(self, w: int) -> int:
        self._check_element(w)
        return self._inv[w]

    def descents(self, w: int, side: str = "right") -> frozenset[int]:
        table = self._table(side)
        self._check_element(w)
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
        """Bruhat order by the descent recursion, a single chain of at most
        l(y) steps: for s the smallest left descent of y, x <= y iff
        sx <= sy when sx < x, and x <= sy otherwise."""
        if not (0 <= x < self.size and 0 <= y < self.size):
            for w in (x, y):
                self._check_element(w)
        lengths, left, first = self.lengths, self._left, self.first
        while x != y and x != 0:
            lx = lengths[x]
            if lx >= lengths[y]:
                return False
            s = first[y]
            y = left[y][s]
            sx = left[x][s]
            if lengths[sx] < lx:
                x = sx
        return True

    # -- graph automorphisms -------------------------------------------------

    def graph_automorphisms(self, subset: Iterable[int] = ()) -> tuple[tuple[int, ...], ...]:
        """Index maps of a generating set of the automorphisms p of the
        Coxeter graph with p(I) = I: p is a label-preserving permutation
        of the generators, extended to W by phi(u s) = phi(u) p(s) along
        the discovery tree.

        For each i < j the set holds one such p that fixes s1 .. s_i and
        sends s_{i+1} to s_{j+1}, where there is one: generators of each
        stabiliser of the chain, so at most rank (rank - 1) / 2 maps and
        never the whole group (A1 x ... x A1 has rank! automorphisms).
        Computed on first use per subset and cached.
        """
        key = self.subset(subset)
        maps = self._automorphisms.get(key)
        if maps is None:
            maps = self._automorphisms[key] = tuple(
                map(self._extend, _graph_automorphisms(self.matrix.m, key)))
        return maps

    def _extend(self, p: tuple[int, ...]) -> tuple[int, ...]:
        """The index map of phi(u s) = phi(u) p(s), along the discovery
        tree, where each u comes before its w = u s."""
        right, phi = self._right, [0]
        for u, s in self.tree[1:]:
            phi.append(right[phi[u]][p[s]])
        return tuple(phi)

    # -- parabolic subgroups and cosets ---------------------------------------

    def subset(self, gens: Iterable[int]) -> frozenset[int]:
        out = frozenset(gens)
        for s in out:
            if not 0 <= s < self.rank:
                raise ValueError(f"generator index {s} out of range")
        return out

    def _coset_reps(self, subset: Iterable[int]) -> list[int]:
        """rep[w], the minimal representative of w W_I, for every w: one
        pass in enumeration order, rep[w] = rep[ws] for the first s in I
        with ws < w (ws comes earlier), and rep[w] = w if there is none."""
        key = self.subset(subset)
        rep = self._reps.get(key)
        if rep is None:
            gens, lengths = sorted(key), self.lengths
            rep = self._reps[key] = []
            for w, row in enumerate(self._right):
                ws = next((row[s] for s in gens if lengths[row[s]] < lengths[w]), w)
                rep.append(w if ws == w else rep[ws])
        return rep

    def subgroup(self, subset: Iterable[int]) -> tuple[int, ...]:
        """Elements of W_I in enumeration order: the coset of e."""
        return tuple(w for w, r in enumerate(self._coset_reps(subset)) if r == 0)

    def longest_in(self, subset: Iterable[int]) -> int:
        return self.subgroup(subset)[-1]

    def longest_length_in(self, subset: Iterable[int]) -> int:
        """l(w_I), the length of the longest element of W_I."""
        return self.lengths[self.longest_in(subset)]

    def opposites(self, subset: Iterable[int]) -> dict[int, int]:
        """r -> w0 r w_I = rep[w0 r] over W^I, an order-reversing
        involution of W^I, in a fresh dict."""
        rep = self._coset_reps(subset)
        return {r: rep[self.mult(self.longest, r)] for r in self.min_reps(subset)}

    def coset_action(self, subset: Iterable[int]) -> Mapping[int, Sequence[int]]:
        """r -> (rep[s r] for each generator s) over W^I: s r, or r itself
        where s r = r t with t in I (Deodhar 1987)."""
        rep = self._coset_reps(subset)
        return {r: tuple(rep[sr] for sr in self._left[r]) for r in self.min_reps(subset)}

    def poincare(self, subset: Iterable[int]) -> LaurentPoly:
        """Poincare polynomial of W_I: sum of v^(2 l(w)) over W_I."""
        return LaurentPoly((2 * self.lengths[w], 1) for w in self.subgroup(subset))

    def is_min_coset_rep(self, w: int, subset: Iterable[int]) -> bool:
        """True iff ws > w for every s in I (w is minimal in w W_I)."""
        self._check_element(w)
        return self._coset_reps(subset)[w] == w

    def min_reps(self, subset: Iterable[int]) -> tuple[int, ...]:
        """W^I in enumeration order."""
        return tuple(w for w, r in enumerate(self._coset_reps(subset)) if r == w)

    def check_group(self, cap: int) -> None:
        """Raise the GroupTooLarge of `build(matrix, cap)` if |W| > cap."""
        if self.size > cap:
            raise _too_large(cap)

    def parse_min_rep(self, text: str, subset: Iterable[int]) -> int:
        """The element of a dotted word (`parse_element`), which must lie
        in W^I; the word need not be reduced."""
        w = self.parse_element(text)
        if not self.is_min_coset_rep(w, subset):
            raise _not_a_rep(self.word_str(w))
        return w

    def coset_decompose(self, w: int, subset: Iterable[int]) -> tuple[int, int]:
        """Split w = y * u with y minimal in w W_I, u in W_I, lengths adding."""
        self._check_element(w)
        y = self._coset_reps(subset)[w]
        return y, self.mult(self._inv[y], w)

    def project_q(self, w: int, subset: Iterable[int]) -> int:
        """The projection W -> W/W_I composed with the minimal-rep section."""
        self._check_element(w)
        return self._coset_reps(subset)[w]


def _not_a_rep(word: str) -> ValueError:
    return ValueError(f"{word} is not a minimal coset representative "
                      f"for the chosen subset")


def _too_large(cap: int) -> GroupTooLarge:
    return GroupTooLarge(f"more than {cap} elements; the group is "
                         "infinite or the cap is too small")


def _orbit(identity, step, rank: int, cap: int):
    """(lengths, tree, rows) of the breadth-first orbit of `identity`:
    rows[u][s] indexes step(s, key u), tree[w] = (u, s) first reached w.
    Stepping u to w records u as w's s-neighbour, which is not stepped
    again (`_chamber_action`).  GroupTooLarge past `cap` keys."""
    keys = [identity]
    index = {identity: 0}
    lengths = [0]
    tree = [None]
    rows = [[None] * rank]
    gens = range(rank)
    for u, key in enumerate(keys):
        row = rows[u]
        for s in gens:
            if row[s] is not None:
                continue
            k2 = step(s, key)
            w = index.get(k2)
            if w is None:
                w = index[k2] = len(keys)
                if w >= cap:
                    raise _too_large(cap)
                keys.append(k2)
                lengths.append(lengths[u] + 1)
                tree.append((u, s))
                rows.append([None] * rank)
            row[s] = w
            rows[w][s] = u
    return lengths, tree, rows


def build(matrix: CoxeterMatrix, cap: int = DEFAULT_CAP) -> CoxeterSystem:
    """Enumerate the Coxeter system of `matrix` as the orbit of the base
    chamber under right multiplication by generators (see the module
    docstring).

    Raises UnsupportedBond for non-crystallographic bonds in rank >= 3 and
    GroupTooLarge when the enumeration exceeds `cap` elements or, which
    only an infinite group does, a key leaves the packed range.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    identity, step = _chamber_action(matrix)

    # Elements are extended on the right in index order, generators in
    # order, so each w is first reached from the (u, s) that minimises
    # (word(u), s), word(u) the canonical word of u.  word(u) + (s,) is
    # then w's lexicographically smallest reduced word, and discovery
    # order is the canonical order; `tree` keeps each (u, s).
    lengths, tree, rows = _orbit(identity, step, matrix.rank, cap)
    right = tuple(map(tuple, rows))

    # w = u s is filled from u, which comes earlier: w begins with the
    # first letter of u (with s if u = e), t w = (t u) s, and
    # w^-1 = s u^-1, where u^-1 is as long as u and so comes before w
    first = [None]
    left = [right[0]]
    inv = [0]
    for u, s in tree[1:]:
        first.append(first[u] if u else s)
        left.append(tuple([right[tu][s] for tu in left[u]]))
        inv.append(left[inv[u]][s])
    return CoxeterSystem(matrix, tuple(lengths), tuple(tree), tuple(first),
                         right, tuple(left), tuple(inv))


def build_named(name: str, cap: int = DEFAULT_CAP) -> CoxeterSystem:
    return build(CoxeterMatrix.from_name(name), cap)
