import math
from fractions import Fraction

import numpy as np
import pytest

from cobosons import (
    Partition,
    build_block,
    build_c_sr,
    build_partition_state,
    build_q_sr,
    inner_product,
    pair_basis,
    translate,
)
from cobosons.fock import project_to_pair_sector
from oracles import build_c_sr_loop, partition_configs_loop


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))  # not decreasing
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert str(Partition((3, 1, 1))) == "3+1+1"
    assert Partition((3, 1, 1)).total == 5


def test_c_sr_is_normalized_and_uniform():
    psi = build_c_sr(5, 0, 0, 1)
    assert abs(psi.norm - 1.0) < 1e-12
    nonzero = np.abs(psi.amplitudes[np.abs(psi.amplitudes) > 1e-14])
    assert np.allclose(nonzero, 1 / math.sqrt(5))


def test_c_sr_basis_is_orthonormal():
    d = 4
    states = [build_c_sr(d, s, r, 1) for s in range(d) for r in range(d)]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            want = 1.0 if i == j else 0.0
            assert abs(abs(inner_product(a, b)) - want) < 1e-12


def test_c_sr_matches_loop_oracle():
    """Every (s, r, N) for d <= 8, and N <= 4 for d = 9, 10: the same
    nonzero positions and amplitudes within 2e-15 after fix_phase."""
    for d in range(1, 11):
        for n in range(1, (d if d <= 8 else 4) + 1):
            for s in range(d):
                for r in range(d):
                    got = build_c_sr(d, s, r, n).amplitudes
                    want = build_c_sr_loop(d, s, r, n).amplitudes
                    assert np.array_equal(got != 0, want != 0), (d, s, r, n)
                    assert np.abs(got - want).max() <= 2e-15, (d, s, r, n)


def test_c_sr_label_validation():
    with pytest.raises(ValueError):
        build_c_sr(4, 4, 0)
    with pytest.raises(ValueError):
        build_c_sr(4, 0, 0, power=0)


def test_c_squared_equals_two_singleton_partition():
    d = 8
    c2 = project_to_pair_sector(build_c_sr(d, 0, 0, 2), pair_basis(d, 2))
    part, norm_sq = build_partition_state(d, [1, 1])
    assert np.abs(c2.amplitudes - part.amplitudes).max() < 1e-12
    # N^2 = d^2 / C(d,2) = 2 / chi_2
    assert norm_sq == Fraction(d**2, math.comb(d, 2))


def test_q_sr_orthonormal_below_half():
    d = 8
    states = [build_q_sr(d, s, r) for s in range(1, d // 2) for r in range(d)]
    gram = np.array(
        [[inner_product(a, b) for b in states] for a in states]
    )
    assert np.abs(gram - np.eye(len(states))).max() < 1e-12


def test_q_sr_validation():
    with pytest.raises(ValueError):
        build_q_sr(7, 1, 0)  # odd d
    with pytest.raises(ValueError):
        build_q_sr(8, 0, 0)  # Pauli annihilation
    with pytest.raises(ValueError):
        build_q_sr(8, 5, 0)


def test_q_sr_half_separation_renormalized():
    psi = build_q_sr(6, 3, 0)
    assert abs(psi.norm - 1.0) < 1e-12
    support = np.flatnonzero(np.abs(psi.amplitudes) > 1e-14)
    assert support.size == 3  # d/2 antipodal configurations


def test_block_state_equals_q_10_for_two_pairs():
    d = 10
    assert np.abs(build_block(d, 2).amplitudes - build_q_sr(d, 1, 0).amplitudes).max() < 1e-14


def test_block_state_support_and_symmetry():
    d, m = 7, 3
    psi = build_block(d, m)
    support = np.flatnonzero(np.abs(psi.amplitudes) > 1e-14)
    assert support.size == d
    shifted = translate(psi, 1)
    assert np.abs(shifted.amplitudes - psi.amplitudes).max() < 1e-12


def test_partition_state_norm_factors():
    # |3+1> on d = 10: N^2 = d^2 / (d^2 - 4d) = 5/3
    _, nsq = build_partition_state(10, [3, 1])
    assert nsq == Fraction(5, 3)
    # all-singleton partition: uniform over C(d, N) configurations
    psi, nsq = build_partition_state(6, [1, 1, 1])
    assert nsq == Fraction(6**3, math.comb(6, 3))
    nonzero = np.abs(psi.amplitudes)
    assert np.allclose(nonzero, 1 / math.sqrt(math.comb(6, 3)))


def _partitions(n, largest=None):
    """Non-increasing tuples of positive parts summing to n."""
    if n == 0:
        yield ()
        return
    for m in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - m, m):
            yield (m,) + rest


def test_partition_states_match_the_placement_loop():
    # every partition of every N <= d <= 9: the support is the set of block
    # placements, the amplitude uniform, N^2 = d^k / #configurations
    for d in range(1, 10):
        for n in range(1, d + 1):
            for parts in _partitions(n):
                configs = partition_configs_loop(d, parts)
                if not configs:
                    with pytest.raises(ValueError, match="annihilates"):
                        build_partition_state(d, parts)
                    continue
                psi, nsq = build_partition_state(d, parts)
                assert psi.amplitudes.dtype == np.float64, (d, parts)
                support = np.flatnonzero(psi.amplitudes)
                assert psi.basis.states[support].tolist() == sorted(configs), (d, parts)
                assert np.all(psi.amplitudes[support] == psi.amplitudes[support[0]]), (d, parts)
                assert nsq == Fraction(d ** len(parts), len(configs)), (d, parts)


def test_partition_state_translation_invariant():
    psi, _ = build_partition_state(9, [2, 2])
    shifted = translate(psi, 4)
    assert np.abs(np.abs(shifted.amplitudes) - np.abs(psi.amplitudes)).max() < 1e-12


def test_partition_state_errors():
    with pytest.raises(ValueError):
        build_partition_state(4, [3, 2])  # exceeds d
    with pytest.raises(ValueError):
        build_partition_state(4, [4, 4])


def test_full_block_is_unique_configuration():
    psi = build_block(4, 4)
    assert np.count_nonzero(np.abs(psi.amplitudes) > 1e-14) == 1
