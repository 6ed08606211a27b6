import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator

import pytest

from qtransfer import weylcomb
from qtransfer.algebra.partitions import compositions, partitions, subsets
from qtransfer.weylcomb import (
    ENUM_LIMIT,
    EnumerationBudgetError,
    Perm,
    YoungSubgroup,
    all_perms,
    block_composition,
    composition_class_counts,
    cycle_type,
    f_g_table,
    min_double_coset_reps,
    one_adic_ep,
    orbital_sum,
    perm_inv,
    perm_mul,
    proper_levi_vanishing,
    restriction_support,
    support_by_enumeration,
    young_subgroup,
)


def inversions(w: Perm) -> int:
    """Coxeter length of w in type A."""
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
               if w[i] > w[j])


def test_perm_basics():
    w = (2, 3, 1)
    assert perm_mul(w, perm_inv(w)) == (1, 2, 3)
    assert cycle_type(w) == (3,)
    assert cycle_type((2, 1, 3)) == (2, 1)
    assert inversions((3, 2, 1)) == 3


def test_block_composition():
    assert block_composition(frozenset(), 4) == (1, 1, 1, 1)
    assert block_composition(frozenset({1, 2, 3}), 4) == (4,)
    assert block_composition(frozenset({1}), 3) == (2, 1)
    assert block_composition(frozenset({2}), 3) == (1, 2)


def test_block_composition_names_the_set_passed_in():
    # M and I both reach block_composition; the message names the set given
    with pytest.raises(ValueError, match=r"^\[5\] is not a subset of 1\.\.2$"):
        proper_levi_vanishing(3, {5})
    with pytest.raises(ValueError, match=r"^\[5\] is not a subset of 1\.\.2$"):
        young_subgroup({5}, 3)
    with pytest.raises(ValueError, match=r"^\[0, 2\] is not a subset of 1\.\.3$"):
        block_composition({0, 2}, 4)


def test_young_subgroup_structure():
    W = young_subgroup(frozenset({1}), 3)
    assert W.composition == (2, 1)
    assert W.order == 2
    assert set(W.elements()) == {(1, 2, 3), (2, 1, 3)}
    full = young_subgroup(frozenset({1, 2}), 3)
    assert full.order == 6
    trivial = young_subgroup(frozenset(), 3)
    assert trivial.composition == (1, 1, 1) and trivial.order == 1


def test_young_subgroup_is_built_once_per_set():
    W = young_subgroup(frozenset({1, 3}), 5)
    for same in ([3, 1], {1, 3}, frozenset({3, 1}), (i for i in (1, 3))):
        assert young_subgroup(same, 5) is W
    assert young_subgroup({1, 3}, 6) is not W
    assert W.order == 4 and W.order is W.__dict__["order"]
    # a bad set raises each time, naming the set, and is never cached
    cached = weylcomb._young_subgroup.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^\[1, 5\] is not a subset of 1\.\.4$"):
            young_subgroup(iter([5, 1]), 5)
    assert weylcomb._young_subgroup.cache_info().currsize == cached


def test_class_counts():
    # whole group: ordinary class sizes
    from qtransfer.algebra import partitions, sn_class_size
    for d in (3, 4):
        counts = composition_class_counts((d,))
        for rho in partitions(d):
            assert counts.get(rho, 0) == sn_class_size(rho)
    # trivial subgroup
    assert composition_class_counts((1, 1, 1)) == {(1, 1, 1): 1}
    assert composition_class_counts(block_composition(frozenset({1}), 3)) == \
        {(1, 1, 1): 1, (2, 1): 1}


def test_composition_class_counts_total():
    counts = composition_class_counts((2, 2))
    assert sum(counts.values()) == 4
    assert counts[(2, 2)] == 1 and counts[(1, 1, 1, 1)] == 1 and counts[(2, 1, 1)] == 2


def test_composition_class_counts_against_enumeration():
    for d in range(7):
        for comp in compositions(d):
            elements = YoungSubgroup(d, comp).elements()
            assert composition_class_counts(comp) == Counter(map(cycle_type, elements))


def test_f_g_hand_values():
    f2, f3 = f_g_table(2), f_g_table(3)
    assert f2((2,)) == 1 and f2((1, 1)) == 0
    assert f3((3,)) == 1
    assert f3((2, 1)) == 0
    assert f3((1, 1, 1)) == 0


def test_f_g_indicator_to_12():
    from qtransfer.algebra import partitions
    for d in range(1, 13):
        table = f_g_table(d)
        for rho in partitions(d):
            assert table(rho) == (1 if rho == (d,) else 0)


def f_g_table_by_subsets(d):
    """Oracle for ``f_g_table``: one term per subset I of {1, .., d-1},
    summed per sorted composition of I, then spread over the cycle-type
    counts of its Young subgroup."""
    weights = Counter()
    for I in subsets(d - 1):
        W = young_subgroup(I, d)
        lam = tuple(sorted(W.composition, reverse=True))
        weights[lam] += Fraction((-1) ** (d - 1 - len(I)), d - len(I)) / W.order
    totals = Counter()
    for lam, weight in weights.items():
        for rho, count in composition_class_counts(lam).items():
            totals[rho] += weight * count
    return {rho: d * totals[rho] for rho in partitions(d)}


def test_f_g_table_refuses_a_partition_of_another_size():
    # the table answers with the ValueError of as_partition_of, not a missing key
    table = f_g_table(3)
    for rho in ((4,), (2, 2), (1,)):
        message = re.escape(f"{rho} is not a partition of 3")
        with pytest.raises(ValueError, match=message):
            table(rho)


def test_f_g_table_against_the_subset_sum_to_14():
    for d in range(1, 15):
        assert f_g_table(d).values == f_g_table_by_subsets(d), d


def test_f_g_table_reach_past_the_subset_count():
    # 2^16 and 2^17 subsets, but fewer than ENUM_LIMIT (partition, cycle
    # type) terms; d = 19 is refused in test_enumeration_bound
    for d in (17, 18):
        table = f_g_table(d)
        assert all(table(rho) == (1 if rho == (d,) else 0) for rho in partitions(d))


def test_one_adic_ep_values_d2():
    f = one_adic_ep(2)
    assert f[(1, 2)] == 0
    assert f[(2, 1)] == Fraction(1, 2)
    assert orbital_sum(f, (1, 2)) == 0
    assert orbital_sum(f, (2, 1)) == 1


def test_one_adic_ep_is_not_a_class_function_for_d3():
    # supported on Young subgroups: simple and non-simple transpositions
    # get different values, so element-level storage is required
    f = one_adic_ep(3)
    assert f[(2, 1, 3)] == Fraction(-1, 12)
    assert f[(3, 2, 1)] == Fraction(1, 6)


def one_adic_ep_by_fractions(d: int) -> dict[Perm, Fraction]:
    """The oracle for ``one_adic_ep``: one Fraction addition per element of
    each W_I."""
    values = {w: Fraction(0) for w in all_perms(d)}
    for I in subsets(d - 1):
        W = young_subgroup(I, d)
        coeff = Fraction((-1) ** (d - 1 - len(I)), d - len(I)) / W.order
        for w in W.elements():
            values[w] += coeff
    return values


def test_one_adic_ep_matches_the_fraction_loop_to_d6():
    for d in range(1, 7):
        f, expected = one_adic_ep(d), one_adic_ep_by_fractions(d)
        assert f == expected, d
        assert all(type(value) is Fraction for value in f.values())
        assert [w for w, value in f.items() if not value] == \
            [w for w, value in expected.items() if not value]


def test_orbital_sum_identity():
    # d * O_g(f) == |C_{S_d}(g)| * f_g, both sides computed independently
    from qtransfer.algebra import z_order
    for d in range(2, 6):
        f, f_g = one_adic_ep(d), f_g_table(d)
        seen = set()
        for g in all_perms(d):
            rho = cycle_type(g)
            if rho in seen:
                continue
            seen.add(rho)
            assert d * orbital_sum(f, g) == z_order(rho) * f_g(rho)


def test_orbital_sum_against_the_literal_conjugation():
    # the sum over v of f(v^-1 g v), with both products taken by perm_mul
    for d in range(1, 5):
        f = one_adic_ep(d)
        for g in all_perms(d):
            literal = sum(f[perm_mul(perm_inv(v), perm_mul(g, v))] for v in all_perms(d))
            assert orbital_sum(f, g) == literal, g


def test_min_double_coset_reps_structure():
    # M or I full, the other empty: reps biject with one-sided cosets
    d = 4
    full = frozenset(range(1, d))
    assert len(min_double_coset_reps(full, frozenset(), d)) == 1
    assert len(min_double_coset_reps(frozenset(), frozenset(), d)) == factorial(d)
    I = frozenset({1})
    reps = min_double_coset_reps(frozenset(), I, d)
    assert len(reps) == factorial(d) // 2
    # S_2 \ S_3 / S_2 with the two Young S_2's on different blocks
    assert len(min_double_coset_reps(frozenset({1}), frozenset({2}), 3)) == 2


def test_min_double_coset_reps_against_bruteforce():
    # the cosets of the reps tile S_d, each rep its coset's unique length minimum
    for d in range(1, 6):
        for M in subsets(d - 1):
            W_M = list(young_subgroup(M, d).elements())
            for I in subsets(d - 1):
                W_I = list(young_subgroup(I, d).elements())
                covered = set()
                for w in min_double_coset_reps(M, I, d):
                    coset = {perm_mul(perm_mul(m, w), i) for m in W_M for i in W_I}
                    assert not covered & coset
                    covered |= coset
                    length = inversions(w)
                    assert [u for u in coset if inversions(u) <= length] == [w]
                assert covered == set(all_perms(d))


def _bits(S) -> int:
    return sum(1 << i for i in S)


@lru_cache(maxsize=None)
def _descent_table(d: int) -> list[tuple[tuple[int, ...], int, int]]:
    """S_d sorted by (length, one-line form), each w with the bit sets of
    its right descents and of those of w^-1."""
    def descents(w):
        return _bits(i for i in range(1, d) if w[i - 1] > w[i])
    return [(w, descents(w), descents(perm_inv(w)))
            for w in sorted(all_perms(d), key=lambda w: (inversions(w), w))]


def descent_rule_reps(M, I, d: int) -> tuple[tuple[int, ...], ...]:
    """The oracle for ``min_double_coset_reps``: scan S_d with the descent
    rule.  w is minimal in W_M w W_I exactly when it increases at every
    position of I and w^-1 increases at every position of M."""
    m, i = _bits(M), _bits(I)
    return tuple(w for w, right, left in _descent_table(d)
                 if not right & i and not left & m)


def _assert_descent_rule(pairs, d: int) -> None:
    """``descent_rule_reps`` for each (M, I), with the scan of S_d by the
    M side made once per M."""
    by_M = {}
    for M, I in pairs:
        by_M.setdefault(M, []).append(I)
    for M, Is in by_M.items():
        m = _bits(M)
        left_minimal = [(w, right) for w, right, left in _descent_table(d) if not left & m]
        for I in Is:
            i = _bits(I)
            assert tuple(min_double_coset_reps(M, I, d)) == \
                tuple(w for w, right in left_minimal if not right & i), (d, M, I)


def test_min_double_coset_reps_match_the_descent_rule_to_d7_without_the_count():
    # every (M, I) from a cold cache
    weylcomb._min_double_coset_reps_cached.cache_clear()
    for d in range(1, 8):
        _assert_descent_rule([(M, I) for M in subsets(d - 1) for I in subsets(d - 1)], d)


@pytest.mark.parametrize("d", [7, 8])
def test_min_double_coset_reps_match_the_descent_rule_d7_d8(d):
    # every M against I empty, I = M and I its complement, then a seeded
    # sample of pairs
    simple = frozenset(range(1, d))
    every = list(subsets(d - 1))
    pairs = [(M, I) for M in every for I in (frozenset(), M, simple - M)]
    rng = random.Random(d)
    pairs += [(rng.choice(every), rng.choice(every)) for _ in range(24)]
    _assert_descent_rule(pairs, d)


def test_min_double_coset_reps_independent_of_table_eviction():
    # every (M, I) to d = 6 from empty caches, in a seeded order that
    # interleaves the M, so the one-alpha shuffle list is evicted and rebuilt
    # between pairs of one M
    weylcomb._min_double_coset_reps_cached.cache_clear()
    weylcomb._shuffles.cache_clear()
    weylcomb._young_subgroup.cache_clear()
    pairs = [(M, I, d) for d in range(1, 7) for M in subsets(d - 1) for I in subsets(d - 1)]
    random.Random(18).shuffle(pairs)
    assert len({(M, d) for M, _, d in pairs[:20]}) > 10
    for M, I, d in pairs:
        assert tuple(min_double_coset_reps(M, I, d)) == \
            descent_rule_reps(M, I, d), (d, M, I)
        assert weylcomb._shuffles.cache_info().currsize == 1


def shuffles_by_scan(alpha: tuple[int, ...]) -> list:
    """The oracle for ``_shuffles``: scan S_d for the w whose inverse
    increases on each block of alpha, each with its inversion count, its
    right-descent bits and its pairs (1 << i, 1 << w(i)) for the i where
    w(i) and w(i + 1) share a block."""
    d = sum(alpha)
    block = [k for k, part in enumerate(alpha) for _ in range(part)]  # of each value
    words = []
    for w in all_perms(d):
        w_inv = perm_inv(w)
        if any(w_inv[v - 1] > w_inv[v] for v in range(1, d) if block[v - 1] == block[v]):
            continue
        descents = _bits(i for i in range(1, d) if w[i - 1] > w[i])
        pairs = tuple((1 << i, 1 << w[i - 1]) for i in range(1, d)
                      if block[w[i - 1] - 1] == block[w[i] - 1])
        words.append((inversions(w), w, descents, pairs))
    return sorted(words)


def test_shuffles_match_the_scan_of_S_d_to_d7():
    for d in range(1, 8):
        for alpha in compositions(d):
            assert weylcomb._shuffles(alpha) == shuffles_by_scan(alpha), alpha


def test_representatives_are_shared_across_pairs():
    # one tuple per permutation, whichever (M, I) or shuffle list holds it,
    # the inverse route at d = 9 included
    weylcomb._min_double_coset_reps_cached.cache_clear()
    seen, total = {}, 0
    for M in subsets(3):
        for I in subsets(3):
            reps = min_double_coset_reps(M, I, 4)
            total += len(reps)
            assert all(seen.setdefault(w, w) is w for w in reps)
        assert all(seen[w] is w for _, w, _, _ in weylcomb._shuffles(young_subgroup(M, 4).composition))
    assert len(seen) == factorial(4) < total
    I = frozenset({1, 2, 4, 5, 7, 8})
    first = {w: w for w in min_double_coset_reps(frozenset(), I, 9)}
    assert all(first[w] is w for w in min_double_coset_reps({1}, I, 9))


def test_min_double_coset_reps_checks_the_cardinality_invariant(monkeypatch):
    # one extra value bit in the pairs of w = (1, 2, 3), so its support
    # reads {1, 2} in place of {1}; the words go to a fresh shuffle cache
    # that the undo drops
    shuffles = weylcomb._shuffles.__wrapped__

    def planted(alpha):
        return [(length, w, descents,
                 tuple((p, v | v << 1) for p, v in pairs) if w == (1, 2, 3) else pairs)
                for length, w, descents, pairs in shuffles(alpha)]

    monkeypatch.setattr(weylcomb, "_shuffles", lru_cache(maxsize=1)(planted))
    weylcomb._min_double_coset_reps_cached.cache_clear()
    with pytest.raises(AssertionError, match="total size"):
        min_double_coset_reps(frozenset({1}), frozenset({1}), 3)


def test_unique_factorization_count():
    # |W_M w W_I| == |W_M cap D_{empty, J}| * |W_I| with J the support set
    d = 4
    for M in subsets(d - 1):
        for I in subsets(d - 1):
            W_M = list(young_subgroup(M, d).elements())
            W_I = list(young_subgroup(I, d).elements())
            for w in min_double_coset_reps(M, I, d):
                J = restriction_support(M, I, w)
                coset = {perm_mul(perm_mul(m, w), i) for m in W_M for i in W_I}
                # minimal representatives in W_M of the cosets v W_J: no
                # descent at a position of J
                reps_in_M = [v for v in W_M if all(v[j - 1] < v[j] for j in J)]
                assert len(coset) == len(reps_in_M) * len(W_I)


def test_restriction_support_rejects_nonminimal():
    # a descent of w at a position of I, then one of w^-1 at a position of M
    with pytest.raises(ValueError):
        restriction_support(frozenset(), frozenset({1}), (2, 1, 3))
    with pytest.raises(ValueError):
        restriction_support(frozenset({1}), frozenset(), (2, 1, 3))


def two_pass_restriction_support(M, I, w: Perm) -> frozenset:
    """The oracle for ``restriction_support``: build w^-1, check the
    descent rule on both sides, then take J = (simple set of M) cap w(I)."""
    M, I = frozenset(M), frozenset(I)
    w_inv = perm_inv(w)
    if any(w[i - 1] > w[i] for i in I) or any(w_inv[m - 1] > w_inv[m] for m in M):
        raise ValueError("w is not the minimal double-coset representative")
    return frozenset(w[i - 1] for i in I if w[i] == w[i - 1] + 1 and w[i - 1] in M)


def test_restriction_support_matches_the_two_pass_oracle_on_all_of_S_d():
    # every w, minimal or not, against every (M, I): the same J or both refuse
    for d in range(1, 6):
        for M in subsets(d - 1):
            for I in subsets(d - 1):
                for w in all_perms(d):
                    try:
                        expected = two_pass_restriction_support(M, I, w)
                    except ValueError:
                        with pytest.raises(ValueError):
                            restriction_support(M, I, w)
                    else:
                        assert restriction_support(M, I, w) == expected, (M, I, w)


def test_proper_levi_vanishing_against_the_sum_per_pair():
    # one Fraction multiply-add per (I, J), keyed by every J inside M
    for d in (3, 4, 5):
        for M in subsets(d - 1):
            if M == frozenset(range(1, d)):
                continue
            expected = {J: Fraction(0) for J in subsets(d - 1) if J <= M}
            for I in subsets(d - 1):
                coeff = Fraction((-1) ** (d - 1 - len(I)), d - len(I))
                for w in min_double_coset_reps(M, I, d):
                    expected[restriction_support(M, I, w)] += coeff
            assert proper_levi_vanishing(d, M) == expected, (d, M)


def test_proper_levi_vanishing_rejects_full():
    with pytest.raises(ValueError):
        proper_levi_vanishing(3, frozenset({1, 2}))


def _two_block_levis(d: int) -> list[frozenset]:
    return [frozenset(range(1, d)) - {k} for k in range(1, d)]


@pytest.mark.parametrize("d", [9, 10])
def test_proper_levi_vanishing_two_block_levis_beyond_d8(d):
    for M in _two_block_levis(d):
        sums = proper_levi_vanishing(d, M)
        assert len(sums) == 2 ** len(M)
        assert all(v == 0 for v in sums.values()), (d, M)


def _sampled_beyond_d8(d: int) -> Iterator[tuple[frozenset, frozenset, Perm]]:
    # three seeded (M, I, w) with M a two-block Levi small enough to scan
    rng = random.Random(d)
    levis = [M for M in _two_block_levis(d) if young_subgroup(M, d).order <= ENUM_LIMIT]
    for _ in range(3):
        M = rng.choice(levis)
        I = frozenset(i for i in range(1, d) if rng.random() < 0.5)
        yield M, I, rng.choice(min_double_coset_reps(M, I, d))


@pytest.mark.parametrize("d", [9, 10])
def test_restriction_support_sampled_beyond_d8(d):
    for M, I, w in _sampled_beyond_d8(d):
        W_J = young_subgroup(restriction_support(M, I, w), d)
        assert support_by_enumeration(M, I, w) == set(W_J.elements()), (M, I, w)


def _assert_supports_tally_the_reps(M, I, d: int) -> None:
    reps = min_double_coset_reps(M, I, d)
    assert reps is min_double_coset_reps(M, I, d)  # the cached tuple, no copy
    assert isinstance(reps, tuple)
    assert len({J for J, _ in reps.supports}) == len(reps.supports)
    assert dict(reps.supports) == Counter(restriction_support(M, I, w) for w in reps), \
        (d, M, I)


def test_supports_tally_restriction_support_to_d6():
    for d in range(1, 7):
        for M in subsets(d - 1):
            for I in subsets(d - 1):
                _assert_supports_tally_the_reps(M, I, d)


@pytest.mark.parametrize("d", [9, 10])
def test_supports_tally_restriction_support_beyond_d8(d):
    for M, I, _ in _sampled_beyond_d8(d):
        _assert_supports_tally_the_reps(M, I, d)


def test_supports_are_shared_across_pairs():
    # one (J, count) pair per value, whichever (M, I) tallied it
    seen = {}
    for M in subsets(3):
        for I in subsets(3):
            for pair in min_double_coset_reps(M, I, 4).supports:
                assert seen.setdefault(pair, pair) is pair
    assert len(seen) < sum(len(min_double_coset_reps(M, I, 4).supports)
                           for M in subsets(3) for I in subsets(3))


def test_proper_levi_vanishing_computes_each_support_once(monkeypatch):
    # from a cold cache each build reads its supports off its words, so
    # no per-permutation support is computed at all
    def refuse(M, I, w):
        raise AssertionError(f"support of {w} computed per permutation")

    monkeypatch.setattr(weylcomb, "restriction_support", refuse)
    monkeypatch.setattr(weylcomb, "support_by_enumeration", refuse)
    d = 5
    weylcomb._min_double_coset_reps_cached.cache_clear()
    for M in subsets(d - 1):
        if M != frozenset(range(1, d)):
            assert not any(proper_levi_vanishing(d, M).values()), M
    assert weylcomb._min_double_coset_reps_cached.cache_info().misses == 15 * 16


def test_min_double_coset_reps_beyond_d8():
    # blocks (4, 4, 1) against the trivial group: the cosets W_M w
    M = frozenset({1, 2, 3, 5, 6, 7})
    reps = min_double_coset_reps(M, frozenset(), 9)
    assert len(reps) == factorial(9) // factorial(4) ** 2 == 630
    assert len(set(reps)) == len(reps)
    assert list(reps) == sorted(reps, key=lambda w: (inversions(w), w))
    for w in reps:
        assert restriction_support(M, frozenset(), w) == frozenset()
    # blocks (5, 4) and (3, 6): 2x2 matrices, one per a[0][0] in 0..3
    assert len(min_double_coset_reps({1, 2, 3, 4, 6, 7, 8}, {1, 2, 4, 5, 6, 7, 8}, 9)) == 4
    # |S_9| / |W_{1}| = 181440 double cosets: refused on that bound
    with pytest.raises(EnumerationBudgetError,
                       match=r"S_9 / W_\[1\] \(181440 elements\) exceeds .* 40320"):
        min_double_coset_reps(frozenset(), frozenset({1}), 9)
    # and at d = 16 on 16!
    with pytest.raises(EnumerationBudgetError,
                       match=r"S_16 / W_\[\] \(20922789888000 elements\)"):
        min_double_coset_reps(frozenset(), frozenset(), 16)


def test_min_double_coset_reps_refusal_boundary_at_d9():
    # |W_M| = 1 puts the list of M past ENUM_LIMIT, so blocks (4, 5) and
    # (3, 3, 3) of I give the build through the inverses of D_{I,M}, which
    # for (3, 3, 3) come out of order
    for I, count in ((frozenset(range(1, 9)) - {4}, 126), (frozenset({1, 2, 4, 5, 7, 8}), 1680)):
        reps = min_double_coset_reps(frozenset(), I, 9)
        assert len(reps) == count
        assert list(reps) == sorted(map(perm_inv, min_double_coset_reps(I, frozenset(), 9)),
                                    key=lambda w: (inversions(w), w))
        _assert_supports_tally_the_reps(frozenset(), I, 9)
    # both lists past ENUM_LIMIT: refused on 9!/6, though only 12840 of
    # those double cosets exist
    with pytest.raises(EnumerationBudgetError, match=r"\(60480 elements\) exceeds"):
        min_double_coset_reps({1, 2}, {1, 2}, 9)


def test_refused_builds_leave_no_shuffle_list():
    # a refused build leaves no shuffle list behind, and the next build works
    M = frozenset({1, 2, 3, 5, 6, 7})
    for refused in ((frozenset(), frozenset(), 16), (frozenset(), frozenset({1}), 9)):
        weylcomb._min_double_coset_reps_cached.cache_clear()
        weylcomb._shuffles.cache_clear()
        with pytest.raises(EnumerationBudgetError, match="exceeds the enumeration limit"):
            min_double_coset_reps(*refused)
        assert weylcomb._shuffles.cache_info().currsize == 0
        assert len(min_double_coset_reps(M, frozenset(), 9)) == 630


def test_refusal_messages_are_built_only_on_refusal():
    def unnamed():
        raise AssertionError("a refusal message built for an allowed size")

    weylcomb._refuse_beyond_limit(unnamed, ENUM_LIMIT)
    with pytest.raises(EnumerationBudgetError,
                       match=r"^enumerating S_9 \(40321 elements\) exceeds the enumeration limit 40320$"):
        weylcomb._refuse_beyond_limit(lambda: "S_9", ENUM_LIMIT + 1)


def test_enumeration_bound():
    # each enumeration refuses on its own size, before it starts
    with pytest.raises(EnumerationBudgetError, match=r"S_9 \(362880 elements\).* 40320"):
        one_adic_ep(9)
    with pytest.raises(EnumerationBudgetError, match="S_9"):
        orbital_sum({}, tuple(range(1, 10)))
    with pytest.raises(EnumerationBudgetError, match="S_9"):
        min_double_coset_reps(frozenset(), frozenset(), 9)
    with pytest.raises(EnumerationBudgetError, match=r"W_\(9,\) \(362880 elements\)"):
        YoungSubgroup(9, (9,)).elements()
    # f_g_table counts its (partition, cycle type) terms as it sums them
    with pytest.raises(EnumerationBudgetError,
                       match=r"f_g_table\(19\) summed so far \(\d+ elements\) .* 40320"):
        f_g_table(19)
    # closed forms are not refused on a proxy: no S_11 scan happens here
    assert f_g_table(11)((11,)) == 1
    assert len(support_by_enumeration({1}, {1}, tuple(range(1, 10)))) == 2
