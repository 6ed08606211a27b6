import itertools
from math import factorial

import pytest

from qtransfer.algebra import (
    as_composition,
    as_composition_of,
    as_partition,
    as_partition_of,
    composition_count,
    compositions,
    conjugate,
    dominant,
    orbit,
    parse_partition,
    partitions,
    render_partition,
    sn_class_size,
    subsets,
    z_order,
)
from qtransfer.algebra.partitions import block_composition

PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}


def test_partition_counts():
    for n, count in PARTITION_COUNTS.items():
        assert len(list(partitions(n))) == count


def test_partition_bounds():
    assert list(partitions(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions(4, max_length=2)) == [(4,), (3, 1), (2, 2)]


def test_compositions_count_and_collapse():
    for n in range(1, 9):
        comps = list(compositions(n))
        assert len(comps) == 2 ** (n - 1)
        # one per set of cut points, in the order of subsets: the cut rule
        # applied to the complement of each set
        full = frozenset(range(1, n))
        assert comps == [block_composition(full - S, n) for S in subsets(n - 1)]
        for lam in partitions(n):
            matching = [c for c in comps if tuple(sorted(c, reverse=True)) == lam]
            assert len(matching) == composition_count(lam)


def test_conjugate_involution():
    for n in range(1, 8):
        for lam in partitions(n):
            assert conjugate(conjugate(lam)) == lam


def test_validators():
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_composition((2, 0))
    assert as_partition((3, 1)) == (3, 1)
    assert as_partition_of([3, 1], 4) == (3, 1)
    assert as_composition_of([1, 3], 4) == (1, 3)
    with pytest.raises(ValueError, match=r"^\(4,\) is not a partition of 3$"):
        as_partition_of([4], 3)
    with pytest.raises(ValueError, match=r"^\(1, 3\) is not a composition of 3$"):
        as_composition_of([1, 3], 3)
    with pytest.raises(ValueError, match=r"^not a partition: \(1, 2\)$"):
        as_partition_of((1, 2), 3)
    with pytest.raises(ValueError, match=r"^not a composition: \(2, 0\)$"):
        as_composition_of((2, 0), 2)


def test_class_sizes_sum_to_group_order():
    for d in range(1, 8):
        assert sum(sn_class_size(rho) for rho in partitions(d)) == factorial(d)
        for rho in partitions(d):
            assert sn_class_size(rho) * z_order(rho) == factorial(d)


def test_orbit_sizes():
    assert len(orbit((1, 0, 0))) == 3
    assert len(orbit((2, 1, 0))) == 6
    assert len(orbit((1, 1, 0, 0))) == 6
    assert dominant((0, 2, -1)) == (2, 0, -1)


def test_orbit_matches_permutation_set():
    # the next-permutation walk against the set of all n! permutations, on
    # each partition, padded with zeros to n entries and shifted below zero
    for n in range(1, 9):
        for lam in partitions(n):
            padded = lam + (0,) * (n - len(lam))
            for key in (lam, padded, tuple(p - 1 for p in padded)):
                perms = orbit(key)
                assert len(perms) == len(set(perms))
                assert set(perms) == set(itertools.permutations(key))
                assert composition_count(key) == len(perms)


def test_render_parse_roundtrip():
    assert render_partition((2, 1)) == "2,1"
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("") == ()
