import itertools

import pytest

from heckekit import CoxeterMatrix, GroupTooLarge, UnsupportedBond, build
from heckekit.laurent import LaurentPoly, ONE, vpow

from oracles import bruhat_lower_set


def test_matrix_validation():
    with pytest.raises(ValueError):
        CoxeterMatrix([[1, 3], [2, 1]])  # not symmetric
    with pytest.raises(ValueError):
        CoxeterMatrix([[2]])  # bad diagonal
    with pytest.raises(ValueError):
        CoxeterMatrix([[1, 1], [1, 1]])  # off-diagonal < 2


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
    with pytest.raises(ValueError):
        CoxeterMatrix.from_name("")


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


def test_six_bond_in_rank_three(sys_of):
    # exercises the integer realization of a 6-bond (rank 2 takes the
    # dihedral path instead) and checks it against the rank-2 build
    W = sys_of("G2xA1")
    assert W.size == 24
    W2 = sys_of("G2")
    block = W.subgroup([0, 1])
    assert len(block) == 12
    for w in block:
        w2 = W2.element_from_word(W.words[w])
        assert W2.words[w2] == W.words[w]
        assert W2.length(w2) == W.length(w)


def test_unsupported_bond_rank3():
    with pytest.raises(UnsupportedBond):
        build(CoxeterMatrix.from_name("H3"))


def test_group_too_large():
    affine = CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    with pytest.raises(GroupTooLarge):
        build(affine, cap=1000)
    with pytest.raises(GroupTooLarge):
        build(CoxeterMatrix.from_name("A3"), cap=10)


def test_enumeration_order(sys_of):
    W = sys_of("A3")
    assert W.lengths[0] == 0 and W.words[0] == ()
    pairs = [(W.lengths[w], W.words[w]) for w in range(W.size)]
    assert pairs == sorted(pairs)
    assert len(set(pairs)) == W.size


def test_words_replay_and_inverse(sys_of):
    for name in ("A3", "B3", "I2(5)"):
        W = sys_of(name)
        for w in range(W.size):
            word = W.reduced_word(w)
            assert len(word) == W.length(w)
            u = 0
            for s in word:
                u = W.mult_gen(u, s, "right")
            assert u == w
            assert W.inverse(W.inverse(w)) == w
            assert W.length(W.inverse(w)) == W.length(w)


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
