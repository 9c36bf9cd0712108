import hashlib
import itertools
import random
import tracemalloc

import pytest

from heckekit import (CoxeterMatrix, GroupTooLarge, HeckeAlgebra, UnsupportedBond, build,
                      build_named, coxeter)
from heckekit.laurent import LaurentPoly, ONE, vpow

from oracles import bruhat_lower_set, embed_via_subgroup, tuple_chamber_action


def test_matrix_validation(sys_of):
    with pytest.raises(ValueError):
        CoxeterMatrix([[1, 3], [2, 1]])  # not symmetric
    with pytest.raises(ValueError):
        CoxeterMatrix([[2]])  # bad diagonal
    with pytest.raises(ValueError):
        CoxeterMatrix([[1, 1], [1, 1]])  # off-diagonal < 2
    for make, message in [
        (lambda: CoxeterMatrix([]), "rank must be positive"),
        (lambda: CoxeterMatrix([[1, 2], [2]]), "Coxeter matrix must be square"),
        (lambda: CoxeterMatrix.from_text(""), "empty Coxeter matrix description"),
        (lambda: build(CoxeterMatrix.from_name("A2"), cap=0), "cap must be positive"),
        (lambda: sys_of("A2").element_from_word([0, 5]),
         "generator index 5 out of range"),
    ]:
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message


def test_matrix_rejects_non_integral_entries():
    # int() once truncated 3.9 to the bond 3 and built A2
    for bad in (3.9, 3.0, "3"):
        with pytest.raises(ValueError, match="entries must be integers"):
            CoxeterMatrix([[1, bad], [bad, 1]])


def test_named_types(sys_of):
    for name, order, longest_len in [
        ("A1", 2, 1), ("A2", 6, 3), ("A3", 24, 6), ("A4", 120, 10),
        ("B2", 8, 4), ("B3", 48, 9), ("I2(7)", 14, 7), ("A1xA1", 4, 2),
        ("G2", 12, 6), ("D4", 192, 12),
    ]:
        W = sys_of(name)
        assert W.size == order
        assert W.length(W.longest) == longest_len


def test_named_type_errors():
    with pytest.raises(ValueError):
        CoxeterMatrix.from_name("Q7")
    with pytest.raises(ValueError):
        CoxeterMatrix.from_name("I2(1)")
    for name in ("", "   "):
        with pytest.raises(ValueError, match="empty type name"):
            CoxeterMatrix.from_name(name)


@pytest.mark.parametrize("name, bonds", [
    ("E6", [(1, 3), (2, 4), (3, 4), (4, 5), (5, 6)]),
    ("E7", [(1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7)]),
    ("E8", [(1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]),
])
def test_e_types_follow_bourbaki_numbering(name, bonds):
    # the bonds labelled 3, Bourbaki's generators 1..n; no group is built
    n = int(name[1])
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j in bonds:
        m[i - 1][j - 1] = m[j - 1][i - 1] = 3
    assert CoxeterMatrix.from_name(name) == CoxeterMatrix(m)


@pytest.mark.parametrize("name", ["E5", "E9"])
def test_e_types_outside_6_to_8_rejected(name):
    with pytest.raises(ValueError, match="unknown type name"):
        CoxeterMatrix.from_name(name)


@pytest.mark.parametrize("name", [
    "A\uff13", "A03", "A3\n", "A3 \n", "\tA3", "A+3", "A-3", "A 3", "I2(\uff107)",
    "I2(07)", "I2(+7)", "I2( 7)", "I2(7)\n", "A1xA03", "A0", "A1xxA2", "xA1", "A1x",
])
def test_named_type_rejects_lax_numerals(name):
    with pytest.raises(ValueError, match="unknown type name"):
        CoxeterMatrix.from_name(name)


@pytest.mark.parametrize("text", [
    "3 +3 \uff12 3", "3 03 2 3", "3 3 2 -3", "+3 3 2 3", "03 3 2 3", "3 3 2 3.0",
    "3 3 2 0x3",
])
def test_matrix_text_rejects_lax_numerals(text):
    with pytest.raises(ValueError, match="positive integers"):
        CoxeterMatrix.from_text(text)


def test_named_type_reads_canonical_numerals():
    assert CoxeterMatrix.from_name("A1 x A2") == CoxeterMatrix.from_name("A1xA2")
    assert CoxeterMatrix.from_name("I2(10)").bond(0, 1) == 10
    assert CoxeterMatrix.from_text("3\n3 2\n3\n") == CoxeterMatrix.from_name("A3")


def test_matrix_from_text_matches_named():
    m = CoxeterMatrix.from_text("3  3 2 3")
    assert m == CoxeterMatrix.from_name("A3")
    with pytest.raises(ValueError):
        CoxeterMatrix.from_text("3 3 2")  # missing an entry


def test_a1_build(sys_of):
    W = sys_of("A1")
    assert W.size == 2
    assert W.longest == 1
    assert W.length(1) == 1


def test_rank2_any_label(sys_of):
    W = sys_of("I2(7)")
    assert W.size == 14
    assert W.length(W.longest) == 7
    # a large label: rank-2 keys have constant size, so this stays cheap
    W = build(CoxeterMatrix.from_name("I2(1000)"))
    assert W.size == 2000
    assert W.reduced_word(W.longest) == (0, 1) * 500
    assert W.mult(W.longest, W.longest) == 0


def test_six_bond_in_rank_three(sys_of):
    # exercises the integer realization of a 6-bond (rank 2 takes the
    # dihedral path instead) and checks it against the rank-2 build
    W = sys_of("G2xA1")
    assert W.size == 24
    W2 = sys_of("G2")
    block = W.subgroup([0, 1])
    assert len(block) == 12
    for w in block:
        w2 = W2.element_from_word(W.reduced_word(w))
        assert W2.reduced_word(w2) == W.reduced_word(w)
        assert W2.length(w2) == W.length(w)


def test_unsupported_bond_rank3():
    with pytest.raises(UnsupportedBond) as err:
        build(CoxeterMatrix.from_name("H3"))
    assert str(err.value) == (
        "bond m(s1,s2) = 5 has no integer root-system realization; "
        "only labels 2, 3, 4, 6 are supported in rank >= 3"
    )


@pytest.mark.parametrize("name, factors, columns", [
    ("I2(5)xA1", ("I2(5)", "A1"), None),
    ("A1xI2(7)", ("A1", "I2(7)"), None),
    ("I2(300)xA1", ("I2(300)", "A1"), 8),
], ids=["I2(5)xA1", "A1xI2(7)", "I2(300)xA1"])
def test_products_with_a_dihedral_factor_of_any_label(name, factors, columns):
    # each factor of rank 2 keys its own Z/2m digit, whatever its label;
    # the letters of different factors commute, so the canonical word of
    # (a, b) is a's followed by b's, and KL elements multiply:
    # h_{(a,b),(c,d)} = h_{a,c} h_{b,d}
    W = build_named(name)
    F, G = map(build_named, factors)
    assert W.size == F.size * G.size
    n = F.rank
    pair = {}
    for w in range(W.size):
        word = W.reduced_word(w)
        a = tuple(s for s in word if s < n)
        b = tuple(s - n for s in word if s >= n)
        assert word == a + tuple(s + n for s in b)
        x, y = F.element_from_word(a), G.element_from_word(b)
        assert (F.reduced_word(x), G.reduced_word(y)) == (a, b)
        assert W.lengths[w] == F.lengths[x] + G.lengths[y]
        pair[w] = (x, y)
    assert len(set(pair.values())) == W.size
    H, HF, HG = HeckeAlgebra(W), HeckeAlgebra(F), HeckeAlgebra(G)
    xs = range(W.size)
    if columns:
        xs = [W.longest] + random.Random(5).sample(range(W.size), columns - 1)
    for x in xs:
        c, d = pair[x]
        kf, kg = HF.kl_basis(c).terms, HG.kl_basis(d).terms
        assert H.kl_basis(x).terms == {w: kf[pair[w][0]] * kg[pair[w][1]]
                                       for w in range(W.size)
                                       if pair[w][0] in kf and pair[w][1] in kg}


def test_group_too_large():
    affine = CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    with pytest.raises(GroupTooLarge) as err:
        build(affine, cap=1000)
    assert str(err.value) == (
        "more than 1000 elements; the group is infinite or the cap is too small"
    )
    hyperbolic = CoxeterMatrix([[1, 6, 6], [6, 1, 6], [6, 6, 1]])
    with pytest.raises(GroupTooLarge) as err:
        build(hyperbolic, cap=1000)
    assert str(err.value) == (
        "more than 1000 elements; the group is infinite or the cap is too small"
    )
    with pytest.raises(GroupTooLarge):
        build(CoxeterMatrix.from_name("A3"), cap=10)
    a4 = CoxeterMatrix.from_name("A4")
    assert build(a4, cap=120).size == 120
    with pytest.raises(GroupTooLarge) as err:
        build(a4, cap=119)
    assert str(err.value) == (
        "more than 119 elements; the group is infinite or the cap is too small"
    )
    # fails at the default cap after 50,000 constant-size steps
    with pytest.raises(GroupTooLarge) as err:
        build(CoxeterMatrix.from_name("I2(1000000)"))
    assert str(err.value) == (
        "more than 50000 elements; the group is infinite or the cap is too small"
    )
    # a chamber coordinate reaches 937,402 here, far inside the packed bound
    with pytest.raises(GroupTooLarge) as err:
        build(hyperbolic)
    assert str(err.value) == (
        "more than 50000 elements; the group is infinite or the cap is too small"
    )


# sha256 of repr((lengths, words, _right, _left, _inv)), words the tuple
# of every canonical word, recorded before build became a single
# canonical-order pass; any change in the order of the elements, in a
# word or in a table shows here.
ENUMERATION_DIGESTS = {
    "A1": "153ddade4db409e91620aced911f58193529d1ffd98e51eaa02ebde086e1f323",
    "A1xA1": "0021e8c03baabfc800a231bd04cf557458822e619ecccd92c9fcf27e4e5250a1",
    "I2(2)": "0021e8c03baabfc800a231bd04cf557458822e619ecccd92c9fcf27e4e5250a1",
    "B2": "55c4bf6bc414289f6221a4424b2c4a3540ded54ce4203a825dc847d4caafe5ce",
    "G2": "f4c63b194664b4e8d05e8f740e60f2d3457845c46e4bc5ed50dac4cce2fce880",
    "I2(5)": "895786c1a3262b744d6316ff4ee273957929a0a161a1fd34970dd031e86c9fca",
    "I2(7)": "013cdc32cd7844b06ced315d0e24afe89b2d7587bfcf4c1f992f3fddd15d8f85",
    "I2(8)": "0937cb391adcd894440db9ca99e851204fa2c48a77f69e794ce906e5bbbdd341",
    "A3": "be922838b284773f105181f29e5d3758878732570257eeb6038c8e63001b6b65",
    "B3": "d8d9d6f4077d6b8c88759dd8beddacc69a7f5cd1b580c327014435eb0e4994bc",
    "A1xA2": "72555f7d2f17979b26204e41d521017f49dce2196f4bdcbb358059f03429e727",
    "G2xA1": "a70d8d4201b85d7b7e0c47a13f8c2cb5b30525ba1775ab4ab3a6527a85266fff",
    "A4": "27c8784169c01f839362b158f026a6a2befd201c10e4e041444550479070346b",
    "D4": "c024c96eb2cfdf3474576e93e44b7a59ce484e8f015775fff06ab0759a14812e",
    "F4": "7c25f04d2d331ee2226909fa431da30c653c9fdfb43c0753fb663704ee6b3187",
    "A5": "73b2e69defdf0022390652562268c8cedb1a1faa9b818320bed6c05100e8873c",
    "D5": "da3a14d27d285026db5156f21d69afdbe7b8d63219e8ce4f63ed17252870963e",
    "B5": "8bb1f4d12210f26dc14062f74f4da9dc6eca3f5e5fa5916a19a4ea2f26ecb3b2",
}


@pytest.mark.parametrize("name", ENUMERATION_DIGESTS)
def test_enumeration_digest(sys_of, name):
    W = sys_of(name)
    words = tuple(map(W.reduced_word, range(W.size)))
    tables = (W.lengths, words, W._right, W._left, W._inv)
    digest = hashlib.sha256(repr(tables).encode()).hexdigest()
    assert digest == ENUMERATION_DIGESTS[name]


@pytest.mark.parametrize("name", ENUMERATION_DIGESTS)
def test_packed_keys_enumerate_as_tuple_keys(monkeypatch, sys_of, name):
    W = sys_of(name)
    monkeypatch.setattr(coxeter, "_chamber_action", tuple_chamber_action)
    T = build(CoxeterMatrix.from_name(name))
    for table in ("lengths", "tree", "_right", "_left", "_inv"):
        assert getattr(T, table) == getattr(W, table), table


TRIANGLE_GROUPS = {
    "affine A2": [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
    "(4,4,4)": [[1, 4, 4], [4, 1, 4], [4, 4, 1]],
    "(6,6,6)": [[1, 6, 6], [6, 1, 6], [6, 6, 1]],
}


@pytest.mark.parametrize("name", TRIANGLE_GROUPS)
def test_packed_and_tuple_keys_reach_the_same_cap(monkeypatch, name):
    matrix = CoxeterMatrix(TRIANGLE_GROUPS[name])
    messages = []
    for action in (coxeter._chamber_action, tuple_chamber_action):
        monkeypatch.setattr(coxeter, "_chamber_action", action)
        with pytest.raises(GroupTooLarge) as err:
            build(matrix, cap=2000)
        messages.append(str(err.value))
    assert messages == [
        "more than 2000 elements; the group is infinite or the cap is too small"] * 2


def test_packed_step_is_exact_inside_its_bound_and_raises_at_it():
    # in (6,6,6) a[2][0] = a[2][1] = -3, the largest off-diagonal entries,
    # so stepping by s3 moves the other two coordinates furthest
    matrix = CoxeterMatrix(TRIANGLE_GROUPS["(6,6,6)"])
    identity, step = coxeter._chamber_action(matrix)
    _, act = tuple_chamber_action(matrix)
    bits = coxeter._KEY_BITS
    bound = 1 << bits - 3

    def pack(coords):
        return sum((c + (1 << bits - 1)) << bits * j for j, c in enumerate(coords))

    assert identity == pack((1, 1, 1))
    for c in (bound - 1, 1 - bound):
        for coords in ((c, c, c), (-c, -c, c), (0, 0, c)):
            assert step(2, pack(coords)) == pack(act(2, coords))
        assert act(2, (c, c, c)) == (4 * c, 4 * c, -c)
    for s in range(3):
        for c in (bound, -bound):
            coords = [0, 0, 0]
            coords[s] = c
            with pytest.raises(GroupTooLarge) as err:
                step(s, pack(coords))
            assert str(err.value) == (
                f"chamber key coordinate {c} is past the packed bound "
                "|c| < 2^29; the group is infinite"
            )


def test_enumeration_order(sys_of):
    W = sys_of("A3")
    assert W.lengths[0] == 0 and W.reduced_word(0) == ()
    pairs = [(W.lengths[w], W.reduced_word(w)) for w in range(W.size)]
    assert pairs == sorted(pairs)
    assert len(set(pairs)) == W.size


def test_words_replay_and_inverse(sys_of):
    for name in ("A3", "B3", "I2(5)"):
        W = sys_of(name)
        for w in range(W.size):
            word = W.reduced_word(w)
            assert len(word) == W.length(w)
            assert W.first[w] == (word[0] if word else None)
            u = 0
            for s in word:
                u = W.mult_gen(u, s, "right")
            assert u == w
            assert W.inverse(W.inverse(w)) == w
            assert W.length(W.inverse(w)) == W.length(w)


@pytest.mark.parametrize("name", ["A3", "B3", "I2(5)", "A1xA2"])
def test_mult_matches_concatenated_words(sys_of, name):
    # mult walks the tree path of w, multiplying u on the left
    W = sys_of(name)
    for w in range(W.size):
        for u in range(W.size):
            assert W.mult(w, u) == W.element_from_word(W.reduced_word(w)
                                                       + W.reduced_word(u))


def test_rank2_build_memory_is_linear():
    # with a stored tuple per canonical word this build peaked at 71 MB;
    # the discovery tree takes memory linear in |W|
    tracemalloc.start()
    try:
        W = build(CoxeterMatrix.from_name("I2(3000)"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.size == 6000 and len(W.reduced_word(W.longest)) == 3000
    assert peak < 8 << 20, f"{peak / (1 << 20):.1f} MB"


def test_mult_changes_length_by_one(sys_of):
    W = sys_of("B3")
    for w in range(W.size):
        for s in range(W.rank):
            for side in ("left", "right"):
                assert abs(W.length(W.mult_gen(w, s, side)) - W.length(w)) == 1


def test_descents(sys_of):
    W = sys_of("A3")
    assert W.descents(0) == frozenset()
    w0 = W.longest
    assert W.descents(w0, "right") == frozenset(range(W.rank))
    s = W.element_from_word([1])
    assert W.descents(s, "right") == frozenset([1])
    assert W.descents(s, "left") == frozenset([1])


def test_bruhat_basics(sys_of):
    W = sys_of("A3")
    for w in range(W.size):
        assert W.bruhat_leq(0, w)
        assert W.bruhat_leq(w, w)
        assert W.bruhat_leq(w, W.longest)


def test_bruhat_partial_order_and_lengths(sys_of):
    W = sys_of("B2")
    for x in range(W.size):
        for y in range(W.size):
            if W.bruhat_leq(x, y):
                assert W.length(x) <= W.length(y)
                if W.length(x) == W.length(y):
                    assert x == y
            if W.bruhat_leq(x, y) and W.bruhat_leq(y, x):
                assert x == y
            for z in range(W.size):
                if W.bruhat_leq(x, y) and W.bruhat_leq(y, z):
                    assert W.bruhat_leq(x, z)


@pytest.mark.parametrize("name", ["A3", "B3", "I2(6)", "A4", "D4"])
def test_bruhat_against_subword_oracle(sys_of, name):
    W = sys_of(name)
    for y in range(W.size):
        lower = bruhat_lower_set(W, y)
        for x in range(W.size):
            assert W.bruhat_leq(x, y) == (x in lower), (x, y)


def test_poincare(sys_of):
    W = sys_of("A3")
    assert W.poincare([]) == ONE
    assert W.poincare([0]) == ONE + vpow(2)
    assert W.poincare([0, 1]) == LaurentPoly({0: 1, 2: 2, 4: 2, 6: 1})


def test_longest_in(sys_of):
    W = sys_of("A3")
    w = W.longest_in([0, 1])
    assert W.reduced_word(w) == (0, 1, 0)
    assert W.length(w) == 3
    assert W.longest_in([]) == 0


def test_min_reps_counts(sys_of):
    W = sys_of("A3")
    for subset in itertools.chain.from_iterable(
        itertools.combinations(range(3), k) for k in range(4)
    ):
        reps = W.min_reps(subset)
        assert len(reps) == W.size // len(W.subgroup(subset))
        assert reps[0] == 0


def test_coset_decompose(sys_of):
    W = sys_of("A3")
    for subset in ([0], [0, 1], [1, 2], [0, 2], [0, 1, 2], []):
        I = W.subset(subset)
        wi_set = set(W.subgroup(I))
        for w in range(W.size):
            y, u = W.coset_decompose(w, I)
            assert W.is_min_coset_rep(y, I)
            assert u in wi_set
            assert W.mult(y, u) == w
            assert W.length(y) + W.length(u) == W.length(w)
            assert W.project_q(w, I) == y
    top_y, top_u = W.coset_decompose(W.longest, [0, 1])
    assert top_u == W.longest_in([0, 1])


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "F4", "I2(7)", "A1xA2"])
def test_cosets_match_their_definitions(alg_of, name):
    # W_I: canonical word only in I; W^I: no right descent in I; and each
    # module's coset quantities, read off the coset table, by products in W
    H = alg_of(name)
    W = H.system
    for subset in itertools.chain.from_iterable(
        itertools.combinations(range(W.rank), k) for k in range(W.rank + 1)
    ):
        I = set(subset)
        wi = tuple(w for w in range(W.size) if set(W.reduced_word(w)) <= I)
        reps = tuple(w for w in range(W.size) if not W.descents(w) & I)
        assert W.subgroup(subset) == wi
        assert W.min_reps(subset) == reps
        M = H.parabolic(subset)
        assert M.w_long == wi[-1]
        for r in reps:
            assert M._opposite[r] == W.mult(W.mult(W.longest, r), M.w_long)
            for s in range(W.rank):
                sw = W.mult_gen(r, s, "left")
                assert M._left[r][s] == (sw if sw in reps else r)
        p = M.elt({r: vpow(i % 3) + i for i, r in enumerate(reps)})
        assert M.embed(p) == embed_via_subgroup(M, p)


def _closure(perms, rank):
    group = {tuple(range(rank))}
    todo = list(group)
    for q in todo:
        for p in perms:
            qp = tuple(q[p[s]] for s in range(rank))
            if qp not in group:
                group.add(qp)
                todo.append(qp)
    return group


@pytest.mark.parametrize("name", ["A1", "A3", "B3", "D4", "F4", "I2(5)", "G2xA2",
                                  "A2xA2", "A1xA1xA1", "A1xA2xA1", "3 3 3 2"])
def test_graph_automorphisms_generate_the_stabiliser(sys_of, name):
    # against every label-preserving permutation with p(I) = I, and each
    # index map against the permuted canonical words
    W = build(CoxeterMatrix.from_text(name)) if name[0].isdigit() else sys_of(name)
    m, n, gens = W.matrix.m, W.rank, W._right[0]
    every = {p for p in itertools.permutations(range(n))
             if all(m[p[a]][p[b]] == m[a][b] for a in range(n) for b in range(n))}
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            maps = W.graph_automorphisms(subset)
            assert W.graph_automorphisms(subset) is maps
            assert len(maps) <= n * (n - 1) // 2
            perms = [tuple(gens.index(phi[gens[s]]) for s in range(n)) for phi in maps]
            assert _closure(perms, n) == {p for p in every
                                          if {p[s] for s in subset} == set(subset)}
            for p, phi in zip(perms, maps):
                assert phi == tuple(W.element_from_word(p[s] for s in W.reduced_word(w))
                                    for w in range(W.size))


def test_projection_monotone(sys_of):
    # w >= v implies q(w) >= q(v)
    W = sys_of("B2")
    for subset in ([], [0], [1], [0, 1]):
        for v in range(W.size):
            for w in range(W.size):
                if W.bruhat_leq(v, w):
                    assert W.bruhat_leq(
                        W.project_q(v, subset), W.project_q(w, subset)
                    )


def test_subset_validation(sys_of):
    W = sys_of("A3")
    assert W.subset([0, 1, 2]) == frozenset({0, 1, 2})
    with pytest.raises(ValueError):
        W.subset([5])
    with pytest.raises(ValueError):
        W.mult_gen(0, 0, side="sideways")
    for w, s in ((0, -1), (0, 3), (-1, 0), (W.size, 0)):
        with pytest.raises(ValueError, match="index .* out of range"):
            W.mult_gen(w, s)


ELEMENT_QUERIES = {
    "length": lambda W, w: W.length(w),
    "word_str": lambda W, w: W.word_str(w),
    "inverse": lambda W, w: W.inverse(w),
    "descents": lambda W, w: W.descents(w),
    "descents-left": lambda W, w: W.descents(w, "left"),
    "project_q": lambda W, w: W.project_q(w, [0]),
    "coset_decompose": lambda W, w: W.coset_decompose(w, [0]),
    "is_min_coset_rep": lambda W, w: W.is_min_coset_rep(w, [0]),
    "reduced_word": lambda W, w: W.reduced_word(w),
    "mult": lambda W, w: W.mult(w, 0),
    "mult-right": lambda W, w: W.mult(0, w),
    "bruhat_leq": lambda W, w: W.bruhat_leq(w, W.longest),
    "bruhat_leq-right": lambda W, w: W.bruhat_leq(0, w),
}


@pytest.mark.parametrize("query", sorted(ELEMENT_QUERIES))
def test_element_queries_reject_out_of_range(sys_of, query):
    # a negative index must not wrap around to an element from the end
    W = sys_of("A2")
    ask = ELEMENT_QUERIES[query]
    for w in (-1, -W.size, W.size, W.size + 5):
        with pytest.raises(ValueError, match=f"^element index {w} out of range$"):
            ask(W, w)
    for w in range(W.size):
        ask(W, w)


def test_word_parsing(sys_of):
    W = sys_of("A3")
    assert W.parse_element("e") == 0
    w = W.parse_element("s1.s2.s3")
    assert W.word_str(w) == "s1.s2.s3"
    assert W.parse_element("s2.s2") == 0  # non-reduced input is fine
    with pytest.raises(ValueError):
        W.parse_element("s9")
    with pytest.raises(ValueError):
        W.parse_element("x1")


@pytest.mark.parametrize("label", [
    "s01", "s+1", "s 1", "s1 ", " s1", "s\uff11", "s-1", "s0", "s4", "s1\n",
    "S1", "s", "s1.0",
])
def test_gen_index_rejects_lax_labels(sys_of, label):
    W = sys_of("A3")
    with pytest.raises(ValueError):
        W.gen_index(label)
    with pytest.raises(ValueError):
        W.parse_element(f"s2.{label}.s2")


def test_gen_index_reads_canonical_labels(sys_of):
    W = sys_of("A3")
    assert [W.gen_index(W.gen_label(s)) for s in W.gens()] == [0, 1, 2]
    assert build(CoxeterMatrix.from_name("A1x" * 11 + "A1")).gen_index("s12") == 11
