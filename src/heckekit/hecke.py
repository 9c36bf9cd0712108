"""The Hecke algebra of a finite Coxeter system over Z[v, v^-1].

Standard basis {H_w} with the quadratic relation H_s^2 = -(v - v^-1) H_s + 1
and braid relations; bar involution fixing each H_s^-1 = H_s + (v - v^-1);
Kazhdan-Lusztig basis {KL_w}, the unique bar-invariant basis with
KL_x = H_x + sum_{y < x} h_{y,x} H_y and h_{y,x} in vZ[v].

One kernel applies a generator s to a term map over W^I (W^I = W in H):
P_w goes to P_t + a P_w, t = table[w][s], with a = `lower` if t < w and
`higher` if t > w, and to `fixed` P_w where t = w (only in the parabolic
modules, parabolic.py).  Length additivity and the quadratic relation
make three rules of it, with H_s^-1 = H_s + (v - v^-1) and KL_s = H_s + v;
each is a row (lower, higher, fixed):

    action       table    lower        higher      fixed
    H_w H_s      right    v^-1 - v     0
    H_s^-1 H_w   left     0            v - v^-1
    KL_s P_w     left     v^-1         v           v + v^-1 (M only)

`HeckeAlgebra._step` applies a row times v to a packed term map {w: n},
n = (v^o c_w)(2^K) with K = `PACK_BITS` (Kronecker substitution, below):
the partner t gains n << K and w gains n times v a at v = 2^K, one of
1 - v^2, v^2 - 1, 1, v^2 and 1 + v^2.  So every row is a polynomial in v,
a step raises o by one, and it costs one shift and one small-int product
per term.  A step gives each index its own coefficient times a row of
1-norm at most 2 plus one partner's coefficient, so k steps from
coefficients of size at most B stay at most B 3^k, and the ints are exact
while B 3^k < 2^(K-1) (`_fits_steps`).  Callers that chain steps pack
once and decode once: `mult` along each reduced word, `_bar_of_basis`
along its chain of first letters, `soergel.bott_samelson_char` over its
word and the `pairing` suite's walk (verify.py).  Each checks the bound
once per chain, from its largest input coefficient and its length; a
longer chain steps `_gen_terms`, the same rows on `LaurentPoly` terms,
as do the single steps `mult_gen_right` and `kl_gen_mult`.  Every chain
of an irreducible crystallographic type under the default cap passes
(the longest, B6, has 36 letters); long dihedral chains do not, and wider
digits would make each of their steps cost O(k) words instead.

The bar involution is the ring homomorphism with bar(v) = v^-1 and
bar(H_s) = H_s^-1, so bar(H_w) = H_{s1}^-1 ... H_{sk}^-1 for a reduced
word w = s1 ... sk.

The KL recursion uses the descent identity (Kazhdan-Lusztig, Invent.
Math. 53 (1979), §2: P_{y,w} = P_{sy,w} when sw < w): if s is a left
descent of x, then h_{w,x} = v h_{sw,x} for every w with sw > w.  So a
`KLTable` computes only the coefficients at the s-descents w and reads
the rest off by a shift of v.  One table holds the KL basis of H; each
parabolic module with I != {} holds two more over W^I (parabolic.py),
and H is the case W^I = W.

A map g of W that commutes with bar and keeps the degree bound maps each
KL_x to KL_{g(x)}, so h_{g(y),g(x)} = h_{y,x} (ibid.).  Each automorphism
of the Coxeter graph is one; so is the anti-involution a: H_w -> H_{w^-1}
of H, and in the modules every automorphism with p(I) = I, which keeps
W^I and Deodhar's three cases.  A table finds its maps on first use,
runs the recursion only at the minimum of each orbit of the group they
generate, and reads every other KL_x off a neighbour in the orbit: F4
runs it for 344 of 1,152 elements, D5 for 653 of 1,920, A6 for 1,387.

A table stores each KL_x as two tuples: the keys y ascending and the
interned values h_{y,x} in that order, 16 bytes per entry where a dict
took 39 (F4 and B5, `sys.getsizeof`).  The recursion and the packed
column sums read the two side by side; `kl_basis(x).terms` is a
`Column`, a read-only mapping over them whose lookups bisect the keys.

Off the diagonal every h there lies in vZ[v], so the recursion holds each
coefficient as the one int n = p(2^K), K = `PACK_BITS` (Kronecker
substitution, `laurent.pack`): the shift by v is n << K, by v^-1 it is
n >> K, and the mu step is one integer product.  Two guards keep this
exact, each raising ValueError.  A shift by v^-1 needs the constant digit
n & (2^K - 1) to be 0, so a constant term raises instead of being
truncated.  And before the results of x are decoded, b * (2 + sum |mu|)
must lie below 2^(K-1), b the largest coefficient size packed so far,
which bounds every coefficient of KL_s KL_{sx} - sum mu KL_z.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from collections.abc import Mapping
from operator import itemgetter
from typing import Iterator

from .coxeter import CoxeterSystem
from .laurent import (PACK_BITS, LaurentPoly, ONE, V, V_INV, ZERO, _as_poly, dot,
                      lincomb, pack, pack_shifted, unpack, vpow)


# rows (lower, higher, fixed) of the generator table (module docstring)
_RIGHT_H = (V_INV - V, ZERO, ZERO)      # H_w H_s
_LEFT_H_INV = (ZERO, V - V_INV, ZERO)   # H_s^-1 H_w
_KL_H = (V_INV, V, ZERO)                # KL_s H_w


@functools.cache
def _packed_row(row: tuple, bits: int) -> tuple[int, int, int]:
    """v lower, v higher and v fixed of `row`, each at v = 2^bits."""
    return tuple(pack_shifted(p, 1, bits=bits) for p in row)


def _fits_steps(bound: int, steps: int) -> bool:
    """Whether `steps` packed generator steps from coefficients of size at
    most `bound` stay exact: sizes stay at most bound * 3^steps (module
    docstring), which balanced digits hold below 2^(K-1)."""
    return bound * 3 ** steps < 1 << (PACK_BITS - 1)


def _acc(terms: dict[int, LaurentPoly], w: int, p: LaurentPoly) -> None:
    q = terms.get(w)
    q = p if q is None else q + p
    if q:
        terms[w] = q
    elif w in terms:
        del terms[w]


def _own(owner, h: "TermElt") -> Mapping[int, LaurentPoly]:
    """The terms of h, which must live in `owner`."""
    if h.owner is not owner:
        raise ValueError("element lives in a different algebra or module")
    return h.terms


class TermElt:
    """A sparse element over a basis indexed by group elements.

    `terms` maps indices to nonzero Laurent polynomials, a `Column` of a
    KL table for a KL element, and `owner` is the algebra or module the
    element lives in.  Instances are arithmetic
    values: +, -, and scaling by a LaurentPoly / int.  Elements of
    different kinds or owners are never equal and do not add.
    """

    __slots__ = ("owner", "terms")
    _label = "H"

    def __init__(self, owner, terms: Mapping[int, LaurentPoly]):
        self.owner = owner
        self.terms = terms

    def coeff(self, w: int) -> LaurentPoly:
        return self.terms.get(w, ZERO)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.owner is other.owner and self.terms == other.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if other.owner is not self.owner:
            raise ValueError("elements live over different algebras or modules")
        terms = dict(self.terms)
        for w, p in other.terms.items():
            _acc(terms, w, p)
        return type(self)(self.owner, terms)

    def __neg__(self):
        return type(self)(self.owner, {w: -p for w, p in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        c = _as_poly(other)
        if not c:
            return type(self)(self.owner, {})
        return type(self)(self.owner, {w: p * c for w, p in self.terms.items()})

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        sys = self.owner.system
        return " + ".join(
            f"({self.terms[w]}) * {self._label}[{sys.word_str(w)}]"
            for w in sorted(self.terms)
        )

    __repr__ = __str__

    def to_json_obj(self) -> list[dict]:
        sys = self.owner.system
        return [
            {"word": sys.word_str(w), "poly": self.terms[w].to_pairs()}
            for w in sorted(self.terms)
        ]

    def items(self) -> Iterator[tuple[int, LaurentPoly]]:
        return iter(sorted(self.terms.items()))


class HeckeElt(TermElt):
    """An element of the Hecke algebra in the standard basis; `*` of two
    HeckeElts is the algebra product."""

    __slots__ = ()

    def __mul__(self, other) -> "HeckeElt":
        if isinstance(other, HeckeElt):
            return self.owner.mult(self, other)
        return super().__mul__(other)


class Column(Mapping):
    """A read-only view {ys[i]: hs[i]} of one column (ys, hs) of a
    `KLTable`: the keys ascending and the values in that order.  `keys()`
    and `values()` are the two tuples, `items()` pairs them up, and a
    lookup bisects `ys`."""

    __slots__ = ("ys", "hs")

    def __init__(self, ys: tuple[int, ...], hs: tuple[LaurentPoly, ...]):
        self.ys = ys
        self.hs = hs

    def get(self, y: int, default=None):
        ys = self.ys
        i = bisect_left(ys, y)
        return self.hs[i] if i < len(ys) and ys[i] == y else default

    def __getitem__(self, y: int) -> LaurentPoly:
        p = self.get(y)
        if p is None:
            raise KeyError(y)
        return p

    def __iter__(self) -> Iterator[int]:
        return iter(self.ys)

    def __len__(self) -> int:
        return len(self.ys)

    def keys(self) -> tuple[int, ...]:
        return self.ys

    def values(self) -> tuple[LaurentPoly, ...]:
        return self.hs

    def items(self) -> Iterator[tuple[int, LaurentPoly]]:
        return zip(self.ys, self.hs)


class Packing:
    """The KL coefficients of one algebra, shared by the KL tables of H and
    of its modules.  `polys` maps the packed value p(2^K) of each
    coefficient to the one shared object standing for every equal entry,
    `packed` maps the id of each interned object back to its packed value,
    `pairs` maps a packed value n to the interned pair (n, n << K) that a
    KL element writes at w and at its partner sw, and `bound` is the
    largest coefficient size packed so far.  Outside the KL recursion the
    one reader of `packed` and `bound` is `column_sum`, behind
    `ParabolicModule.from_kl`, and it changes nothing here."""

    def __init__(self):
        self.polys: dict[int, LaurentPoly] = {}
        self.packed: dict[int, int] = {}
        self.pairs: dict[int, tuple[LaurentPoly, LaurentPoly]] = {}
        self.bound = 0

    def poly(self, n: int) -> LaurentPoly:
        """The interned object of packed value n, decoded on first use."""
        p = self.polys.get(n)
        if p is None:
            p = self.polys[n] = unpack(n, PACK_BITS)
            self.packed[id(p)] = n
            self.bound = max(self.bound, *map(abs, p._c.values()), 0)
        return p

    def pack(self, p: LaurentPoly) -> int:
        """Pack a coefficient that is not interned, widening `bound`."""
        n = pack(p, PACK_BITS)
        self.bound = max(self.bound, *map(abs, p._c.values()), 0)
        return n

    def fits(self, total: int) -> bool:
        """Whether sums of `total` multiples of packed coefficients are exact."""
        return self.bound * total < 1 << (PACK_BITS - 1)

    def column_sum(self, pairs: list[tuple[LaurentPoly, tuple[tuple, tuple]]]
                   ) -> dict[int, LaurentPoly]:
        """`lincomb` of (c_i, col_i) pairs, each col_i a column (ys, hs) of
        a KL table already read, over packed ints: n_i = c_i(2^K), c_i moved
        up by v^-lo (lo the least exponent, or 0), times the packed value of
        each distinct entry of col_i.  A coefficient of the sum adds sum_i ||c_i||_1
        multiples of packed ones at most; where that fails `fits`, or an
        entry is not interned (a corrupted table), `lincomb` sums the pairs."""
        def exact():
            return lincomb([(c, Column(*col)) for c, col in pairs])

        K = PACK_BITS
        lo = min([0, *(e for c, _ in pairs for e in c._c)])
        if not self.fits(sum(abs(k) for c, _ in pairs for k in c._c.values())):
            return exact()
        packed = self.packed
        sums: dict[int, int] = {}
        for c, (ys, hs) in pairs:
            n = sum(k << K * (e - lo) for e, k in c._c.items())
            prods: dict[int, int] = {}
            for w, p in zip(ys, hs):
                i = id(p)
                m = prods.get(i)
                if m is None:
                    try:
                        m = prods[i] = n * packed[i]
                    except KeyError:
                        return exact()
                sums[w] = sums.get(w, 0) + m
        if not lo:
            return {w: unpack(n, K) for w, n in sums.items() if n}
        move = vpow(lo)
        return {w: unpack(n, K) * move for w, n in sums.items() if n}


class KLTable(dict):
    """The memoized KL table of H or of a parabolic module over W^I: maps
    x to the column (ys, hs) of its KL element, its keys ascending in one
    tuple and its values in that order in another, computed on the first
    lookup of x by the inductive algorithm on the first letter s of x:

        KL_x = KL_s KL_{sx} - sum_z mu(z, sx) KL_z

    over z < sx with sz < z, or sz = z in the spherical module.
    `left[w][s]` is sw, or w where sw is not in W^I, and there
    KL_s P_w = (v + v^-1) P_w in M (`spherical`) and 0 in N (never in H).
    The table reads W only through `first`, `word_str` and `maps`,
    index maps g with h_{g(y),g(x)} = h_{y,x} (module docstring) found
    from `subset` on first use, and it reads l(sw) < l(w) as sw < w:
    indices follow lengths, as W and W^I are enumerated breadth-first.
    On the first miss in an orbit of the group they generate, a
    breadth-first search from its minimum m gives every other y a source
    (u, g) with g(u) = y, u nearer to m.  Only m runs the recursion; each
    y is read off as {g(w): h_{w,u}}, the same interned values under
    mapped keys, sorted: one route per x, by index.

    By the descent identity h_{w,u} = v h_{sw,u} for sw > w (Kazhdan-Lusztig
    1979, P_{y,w} = P_{sy,w}), only the coefficients at w with sw <= w
    are computed, each as a packed int n = h(2^K) (module docstring):
    v^-1 p_w + p_{sw} is (n_w >> K) + n_{sw}, (v + v^-1) p_w is
    (n_w << K) + (n_w >> K), and mu h_{w,z} is subtracted as mu * n.
    An n whose w has a partner sw != w is looked up in `pairs`, so one
    lookup gives the entries of both, n at w and n << K at sw; the rest
    are looked up in `polys`.  A value is decoded only on a miss.  A
    coefficient that is not interned is packed on the fly.  Every position
    reached is kept, so the keys are [e, x] in W^I, with zero values in N
    only.  The recursion reads each column it needs by iterating its two
    tuples side by side, the column of sx once, and builds the new column
    in a transient dict whose keys it then sorts.  A lookup that raises
    ValueError stores nothing at x.
    """

    def __init__(self, system: CoxeterSystem, left, spherical: bool,
                 packing: Packing, subset: frozenset[int] | None = None):
        super().__init__()
        self.system = system
        self.left = left
        self.spherical = spherical
        self.packing = packing
        self.subset = subset
        # per walked orbit: None at its minimum, (u, g) with g[u] = y elsewhere
        self._sources: dict[int, tuple | None] = {}

    @functools.cached_property
    def maps(self) -> tuple[tuple[int, ...], ...]:
        sys, subset = self.system, self.subset
        if subset is None:
            return ()
        return (sys._inv,) * (not subset) + sys.graph_automorphisms(subset)

    def __missing__(self, x: int) -> tuple[tuple[int, ...], tuple[LaurentPoly, ...]]:
        stack = [self._fill(x)]
        while stack:
            need = next(stack[-1], None)
            if need is None:
                stack.pop()
            else:
                stack.append(self._fill(need))
        return self[x]

    def _fill(self, x: int) -> Iterator[int]:
        """Store the KL element of x, first yielding each element it reads
        that is not stored yet: `__missing__` fills that off its stack and
        resumes, so a lookup does not recurse l(x) deep.  Every x but e
        has at least two keys, e and x, so `itemgetter` of its keys gives
        a tuple."""
        pk = self.packing
        if x == 0:
            self[0] = (0,), (pk.poly(1),)
            return
        if self.maps:
            if x not in self._sources:
                self._walk_orbit(x)
            source = self._sources[x]
            if source is not None:
                # h_{g(w),g(u)} = h_{w,u}
                u, g = source
                if u not in self:
                    yield u
                ys, hs = self[u]
                terms = dict(zip(itemgetter(*ys)(g), hs))
                ys = tuple(sorted(terms))
                self[x] = ys, itemgetter(*ys)(terms)
                return
        K = PACK_BITS
        mask = (1 << K) - 1
        packed = pk.packed
        sys = self.system
        left = self.left
        spherical = self.spherical
        s = sys.first[x]
        y = left[x][s]
        if y not in self:
            yield y
        upper: dict[int, int] = {}
        # (z, mu(z, y)) over z < y with sz < z, or sz = z in M; y itself
        # has sy = x > y
        mus: list[tuple[int, int]] = []
        for w, p in zip(*self[y]):
            try:
                n = packed[id(p)]
            except KeyError:
                n = pk.pack(p)
            sw = left[w][s]
            if sw < w:  # l(sw) < l(w): indices follow lengths
                if n & mask:
                    raise self._constant_term(w, y, p)
                upper[w] = upper.get(w, 0) + (n >> K)
            elif sw != w:
                upper[sw] = upper.get(sw, 0) + n
                continue
            elif spherical:
                # w is its own partner: nothing else lands here
                if n & mask:
                    raise self._constant_term(w, y, p)
                upper[w] = (n << K) + (n >> K)
            else:
                upper[w] = 0
                continue
            m = p._c.get(1)
            if m:
                mus.append((w, m))
        # the keys of upper are the w in [e, y] with sw <= w, and x
        total = 2
        for z, m in mus:
            total += abs(m)
            if z not in self:
                yield z
            for w, p in zip(*self[z]):
                if w in upper:
                    try:
                        n = packed[id(p)]
                    except KeyError:
                        n = pk.pack(p)
                    upper[w] -= m * n
        if not pk.fits(total):
            raise ValueError(
                f"KL element of {sys.word_str(x)}: coefficients up to "
                f"{pk.bound} times {total} may not fit in {K}-bit packing")
        polys = pk.polys
        pairs = pk.pairs
        terms: dict[int, LaurentPoly] = {}
        for w, n in upper.items():
            sw = left[w][s]
            if sw != w:
                try:
                    terms[w], terms[sw] = pairs[n]
                except KeyError:
                    terms[w], terms[sw] = pairs[n] = (pk.poly(n), pk.poly(n << K))
            else:
                try:
                    terms[w] = polys[n]
                except KeyError:
                    terms[w] = pk.poly(n)
        ys = tuple(sorted(terms))
        self[x] = ys, itemgetter(*ys)(terms)

    def _walk_orbit(self, x: int) -> None:
        """Record the sources of the orbit of x: a breadth-first search
        from x finds its minimum m, and one from m reads every other y off
        an element nearer to m."""
        def search(root: int) -> dict[int, tuple | None]:
            tree, queue = {root: None}, [root]
            for u in queue:
                for g in self.maps:
                    if g[u] not in tree:
                        tree[g[u]] = (u, g)
                        queue.append(g[u])
            return tree

        self._sources.update(search(min(search(x))))

    def _constant_term(self, w: int, y: int, p: LaurentPoly) -> ValueError:
        word = self.system.word_str
        return ValueError(f"off-diagonal KL coefficient at ({word(w)}, {word(y)}) "
                          f"has a constant term: {p}")


class HeckeAlgebra:
    """Hecke algebra attached to a CoxeterSystem.

    Keeps per-system memo tables: bar of standard basis elements, its
    few distinct values interned in `_bar_polys` with `_bar_bound` their
    largest coefficient size and, per length l, the packed v^l p of each
    value p of bar(H_w) with l(w) = l both ways (`_bar_packed` by id(p),
    `_bar_unpacked`), the KL table `_kl`, the parabolic modules, and the
    `Packing` that the KL tables of H and of its modules share.  Queries
    are pure in (system, arguments).
    """

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._bar_basis: dict[int, dict[int, LaurentPoly]] = {0: {0: ONE}}
        self._bar_polys: dict[LaurentPoly, LaurentPoly] = {ONE: ONE}
        self._bar_bound = 1
        self._bar_packed: dict[int, dict[int, int]] = {}
        self._bar_unpacked: dict[int, dict[int, LaurentPoly]] = {}
        self._packing = Packing()
        self._kl = KLTable(system, system._left, False, self._packing, frozenset())
        self._parabolic: dict[frozenset[int], object] = {}

    # -- constructors -------------------------------------------------------

    def elt(self, terms: Mapping[int, LaurentPoly | int]) -> HeckeElt:
        out: dict[int, LaurentPoly] = {}
        for w, c in terms.items():
            self.system._check_element(w)
            p = _as_poly(c)
            if p:
                out[w] = p
        return HeckeElt(self, out)

    def zero(self) -> HeckeElt:
        return HeckeElt(self, {})

    def unit(self) -> HeckeElt:
        return HeckeElt(self, {0: ONE})

    def std(self, w: int) -> HeckeElt:
        """The standard basis element H_w."""
        self.system._check_element(w)
        return HeckeElt(self, {w: ONE})

    # -- multiplication -------------------------------------------------------

    def _gen_terms(self, terms: Mapping[int, LaurentPoly], s: int, table,
                   row: tuple) -> dict[int, LaurentPoly]:
        """The generator s on a term map, by a row (lower, higher, fixed)."""
        if not 0 <= s < self.system.rank:
            raise ValueError(f"generator index {s} out of range")
        lengths = self.system.lengths
        lower, higher, fixed = row
        # zero coefficients tested once here, not once per term
        lower, higher = lower or None, higher or None
        out: dict[int, LaurentPoly] = {}
        for w, c in terms.items():
            t = table[w][s]
            if t == w:
                _acc(out, w, c * fixed)
                continue
            _acc(out, t, c)
            a = lower if lengths[t] < lengths[w] else higher
            if a is not None:
                _acc(out, w, c * a)
        return out

    def _step(self, terms: Mapping[int, int], s: int, table,
              row: tuple[int, int, int]) -> dict[int, int]:
        """The generator s on a packed term map {w: (v^o c_w)(2^K)}, by a
        `_packed_row`: the result is packed at o + 1 and may hold zeros."""
        if not 0 <= s < self.system.rank:
            raise ValueError(f"generator index {s} out of range")
        K = PACK_BITS
        lower, higher, fixed = row
        lengths = self.system.lengths
        out: dict[int, int] = {}
        get = out.get
        for w, n in terms.items():
            t = table[w][s]
            if t == w:
                out[w] = get(w, 0) + n * fixed
                continue
            out[t] = get(t, 0) + (n << K)
            a = lower if lengths[t] < lengths[w] else higher
            if a:
                out[w] = get(w, 0) + n * a
        return out

    def _steps(self, terms: Mapping[int, LaurentPoly], word, table,
               row: tuple) -> dict[int, LaurentPoly]:
        """The generators of `word` on a term map, first letter first: packed
        once and decoded once where `_fits_steps` holds for the largest
        input coefficient, else by `_gen_terms` letter by letter."""
        word = tuple(word)
        coeffs = [c._c for c in terms.values()]
        if not _fits_steps(max([0, *(abs(k) for c in coeffs for k in c.values())]),
                           len(word)):
            for s in word:
                terms = self._gen_terms(terms, s, table, row)
            return dict(terms)
        K = PACK_BITS
        lo = min([0, *(e for c in coeffs for e in c)])
        packed = {w: pack_shifted(c, -lo, bits=K) for w, c in terms.items()}
        prow = _packed_row(row, K)
        for s in word:
            packed = self._step(packed, s, table, prow)
        shift = len(word) - lo
        return {w: unpack(n, K, shift) for w, n in packed.items() if n}

    def mult_gen_right(self, h: HeckeElt, s: int) -> HeckeElt:
        """h * H_s."""
        return HeckeElt(self, self._gen_terms(_own(self, h), s, self.system._right,
                                              _RIGHT_H))

    def mult(self, h1: HeckeElt, h2: HeckeElt) -> HeckeElt:
        """The algebra product, expanding h2 along canonical reduced words."""
        if h1.owner is not self or h2.owner is not self:
            raise ValueError("operands live in different Hecke algebras")
        sys = self.system
        out: dict[int, LaurentPoly] = {}
        for y, d in h2.terms.items():
            cur = self._steps({w: c * d for w, c in h1.terms.items()},
                              sys.reduced_word(y), sys._right, _RIGHT_H)
            for w, c in cur.items():
                _acc(out, w, c)
        return HeckeElt(self, out)

    def kl_gen_mult(self, s: int, h: HeckeElt) -> HeckeElt:
        """Left multiplication by KL_s = H_s + v."""
        return HeckeElt(self, self._gen_terms(_own(self, h), s, self.system._left,
                                              _KL_H))

    # -- bar involution ---------------------------------------------------------

    def _bar_of_basis(self, w: int) -> dict[int, LaurentPoly]:
        # bar(H_u) = H_s^-1 * bar(H_{su}), s the first letter of u: walk down
        # from w to a stored element, then fill upwards, not by recursion
        basis, sys = self._bar_basis, self.system
        chain, u = [], w
        while u not in basis:
            chain.append(u)
            u = sys._left[u][sys.first[u]]
        if not chain:
            return basis[w]
        left, first, intern = sys._left, sys.first, self._intern_bar
        if not _fits_steps(self._bar_bound, len(chain)):
            for u in reversed(chain):
                s = first[u]
                basis[u] = {t: intern(p) for t, p in self._gen_terms(
                    basis[left[u][s]], s, left, _LEFT_H_INV).items()}
            return basis[w]
        # v^l(u) bar(H_u) lies in Z[v], so it is packed at o = l(u); each
        # distinct value of each length is packed and decoded once
        K = PACK_BITS
        row = _packed_row(_LEFT_H_INV, K)
        o = sys.lengths[u]
        packed = self._bar_packed.setdefault(o, {})
        cur = {}
        for t, p in basis[u].items():
            n = packed.get(id(p))
            if n is None:
                n = packed[id(p)] = pack_shifted(p, o, bits=K)
            cur[t] = n
        for u in reversed(chain):
            cur = self._step(cur, first[u], left, row)
            o += 1
            unpacked = self._bar_unpacked.setdefault(o, {})
            packed = self._bar_packed.setdefault(o, {})
            terms = basis[u] = {}
            for t, n in cur.items():
                p = unpacked.get(n)
                if p is None:
                    if not n:
                        continue
                    p = unpacked[n] = intern(unpack(n, K, o))
                    packed[id(p)] = n
                terms[t] = p
        return basis[w]

    def _intern_bar(self, p: LaurentPoly) -> LaurentPoly:
        """The one object of value p among the values of the bar basis
        (few distinct values over many entries), widening `_bar_bound`."""
        q = self._bar_polys.get(p)
        if q is None:
            q = self._bar_polys[p] = p
            self._bar_bound = max(self._bar_bound, *map(abs, p._c.values()))
        return q

    def bar(self, h: HeckeElt) -> HeckeElt:
        """The bar involution: coefficients v -> v^-1, H_w -> (H_{w^-1})^-1."""
        return HeckeElt(self, lincomb((c.bar(), self._bar_of_basis(w))
                                      for w, c in _own(self, h).items()))

    # -- Kazhdan-Lusztig basis -----------------------------------------------------

    def kl_basis(self, x: int) -> HeckeElt:
        """KL_x, the x entry of the KL table over all of W."""
        self.system._check_element(x)
        return HeckeElt(self, Column(*self._kl[x]))

    def kl_poly(self, y: int, x: int) -> LaurentPoly:
        """h_{y,x}: the H_y coefficient of KL_x (0 unless y <= x)."""
        self.system._check_element(y)
        return self.kl_basis(x).coeff(y)

    def mu(self, y: int, x: int) -> int:
        """The coefficient of v in h_{y,x}."""
        return self.kl_poly(y, x).coeff(1)

    # -- trace and pairing ---------------------------------------------------------

    def eps(self, h: HeckeElt) -> LaurentPoly:
        """The trace: the coefficient of H_id."""
        return _own(self, h).get(0, ZERO)

    def pairing(self, h1: HeckeElt, h2: HeckeElt) -> LaurentPoly:
        """(h1, h2) = eps(a(h1) * h2) = sum_w h1_w * h2_w.

        The standard basis is orthonormal, eps(H_{x^-1} H_y) = delta_{x,y}
        (the `pairing` verify suite multiplies every such product out), so
        the pairing is the coefficient dot product.
        """
        return dot(_own(self, h1), _own(self, h2))

    # -- parabolic modules ------------------------------------------------------

    def parabolic(self, subset):
        """The parabolic module H * KL_{w_I}, cached per subset."""
        from .parabolic import ParabolicModule

        key = self.system.subset(subset)
        mod = self._parabolic.get(key)
        if mod is None:
            mod = ParabolicModule(self, key)
            self._parabolic[key] = mod
        return mod
