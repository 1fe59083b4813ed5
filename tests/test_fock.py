import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobosons import (
    BasisMismatchError,
    CapacityError,
    StateVector,
    full_basis,
    inner_product,
    pair_basis,
    translate,
)
from cobosons import fock
from cobosons.fock import (
    create_string,
    embed_pair_state,
    fermion_a_annihilate,
    fermion_a_create,
    fermion_b_create,
    popcount,
    project_to_pair_sector,
)
from oracles import embed_pair_state_loop, project_to_pair_sector_loop, translate_loop


def test_pair_basis_enumeration():
    basis = pair_basis(4, 2)
    assert basis.size == math.comb(4, 2)
    assert basis.states.dtype == np.int64
    assert basis.states.tolist() == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    assert basis.rank(basis.states).tolist() == list(range(basis.size))
    with pytest.raises(ValueError):
        basis.states[0] = 0  # read-only


def test_full_basis_enumeration():
    basis = full_basis(3, 1, 2)
    assert basis.size == 3 * 3
    assert basis.masks_a.tolist() == [0b001, 0b010, 0b100]
    assert basis.masks_b.tolist() == [0b011, 0b101, 0b110]
    # mask_a major, mask_b minor, both ascending
    assert basis.states.shape == (9, 2)
    assert basis.states[0].tolist() == [0b001, 0b011]
    assert basis.states[-1].tolist() == [0b100, 0b110]
    ranks = basis.rank(basis.states[:, 0], basis.states[:, 1])
    assert ranks.tolist() == list(range(basis.size))


def test_bases_compare_and_hash_by_parameters():
    assert pair_basis(6, 2) == pair_basis(6, 2)
    assert hash(pair_basis(6, 2)) == hash(pair_basis(6, 2))
    assert full_basis(5, 2, 1) == full_basis(5, 2, 1)
    assert hash(full_basis(5, 2, 1)) == hash(full_basis(5, 2, 1))
    assert pair_basis(6, 2) != pair_basis(6, 3)
    assert full_basis(5, 2, 1) != full_basis(5, 2, 2)


def test_rank_rejects_masks_outside_basis():
    basis = pair_basis(5, 2)
    with pytest.raises(KeyError):
        basis.rank(0b00111)  # three pairs
    with pytest.raises(KeyError):
        basis.rank([0b00011, 0b100000])  # second mask off the lattice
    full = full_basis(4, 1, 2)
    with pytest.raises(KeyError):
        full.rank(0b0011, 0b0011)


def test_capacity_limits():
    with pytest.raises(CapacityError):
        pair_basis(31, 2)
    with pytest.raises(CapacityError):
        full_basis(17, 1, 1)


def test_capacity_by_dimension(monkeypatch):
    # the largest sizes the benchmark ladder uses stay allowed
    assert pair_basis(24, 8).size == 735471
    assert full_basis(12, 4, 4).size == 245025

    def never(d, n):
        raise AssertionError(f"enumerated an oversize basis ({d}, {n})")

    monkeypatch.setattr(fock, "_masks", never)
    with pytest.raises(CapacityError):
        pair_basis(30, 15)  # 155,117,520 states
    with pytest.raises(CapacityError):
        full_basis(16, 8, 8)  # 165,636,900 states


def test_particle_count_validation():
    with pytest.raises(ValueError):
        pair_basis(4, 5)
    with pytest.raises(ValueError):
        full_basis(4, -1, 0)


def test_fermion_sign_convention():
    # a^dag_1 over an occupied mode 0 crosses one operator
    cfg, sign = fermion_a_create((0b001, 0), 1)
    assert cfg == (0b011, 0) and sign == -1
    # b^dag crosses the whole a-string first
    cfg, sign = fermion_b_create((0b001, 0), 0)
    assert cfg == (0b001, 0b001) and sign == -1
    cfg, sign = fermion_b_create((0b011, 0), 0)
    assert cfg == (0b011, 0b001) and sign == 1


def test_double_create_annihilates():
    assert fermion_a_create((0b001, 0), 0) is None
    assert fermion_a_annihilate((0b000, 0), 0) is None


def test_eta_phase_is_plus_one():
    # eta^dag_k = a^dag_k b^dag_k applied to any pair configuration
    for mask in pair_basis(5, 2).states.tolist():
        for k in range(5):
            if (mask >> k) & 1:
                continue
            res = create_string((mask, mask), [("a+", k), ("b+", k)])
            assert res == ((mask | 1 << k, mask | 1 << k), 1)


def test_anticommutation_of_creation_strings():
    res_ij = create_string((0, 0), [("a+", 0), ("a+", 2)])
    res_ji = create_string((0, 0), [("a+", 2), ("a+", 0)])
    assert res_ij[0] == res_ji[0]
    assert res_ij[1] == -res_ji[1]


@given(st.integers(0, 2**8 - 1), st.integers(0, 7))
def test_lower_sign_matches_popcount_parity(mask, k):
    from cobosons.fock import _lower_sign

    expected = (-1) ** popcount(mask & ((1 << k) - 1))
    assert _lower_sign(mask, k) == expected


def test_state_vector_validation():
    basis = pair_basis(4, 2)
    with pytest.raises(ValueError):
        StateVector(basis, np.ones(3))
    with pytest.raises(ValueError):
        StateVector(basis, np.full(basis.size, np.nan))
    vec = StateVector(basis, np.ones(basis.size))
    with pytest.raises(ValueError):
        vec.amplitudes[0] = 2.0  # immutable


def test_inner_product_basis_mismatch(random_state):
    other = StateVector(pair_basis(6, 3), np.zeros(math.comb(6, 3)))
    with pytest.raises(BasisMismatchError):
        inner_product(random_state, other)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 11))
def test_translate_is_unitary_on_pairs(shift):
    basis = pair_basis(6, 2)
    rng = np.random.default_rng(shift)
    amp = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    psi = StateVector(basis, amp / np.linalg.norm(amp))
    shifted = translate(psi, shift)
    assert abs(shifted.norm - 1.0) < 1e-12
    # full cycle returns the original state
    back = shifted
    for _ in range((6 - shift % 6) % 6):
        back = translate(back, 1)
    assert np.allclose(back.amplitudes, psi.amplitudes)


def test_translate_full_basis_preserves_overlaps(rng):
    basis = full_basis(4, 2, 2)
    amps = []
    for _ in range(2):
        a = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        amps.append(StateVector(basis, a / np.linalg.norm(a)))
    before = inner_product(amps[0], amps[1])
    after = inner_product(translate(amps[0], 1), translate(amps[1], 1))
    assert abs(before - after) < 1e-12


def test_translate_full_basis_composition(rng):
    basis = full_basis(5, 2, 2)
    a = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    psi = StateVector(basis, a / np.linalg.norm(a))
    once_twice = translate(translate(psi, 1), 2)
    all_three = translate(psi, 3)
    assert np.allclose(once_twice.amplitudes, all_three.amplitudes)


def test_embed_project_roundtrip(random_state):
    fb = full_basis(6, 2, 2)
    embedded = embed_pair_state(random_state, fb)
    assert abs(embedded.norm - 1.0) < 1e-12
    back = project_to_pair_sector(embedded, random_state.basis)
    assert np.allclose(back.amplitudes, random_state.amplitudes)


def _random_state(basis, seed):
    rng = np.random.default_rng(seed)
    return StateVector(basis, rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_array_paths_match_loop_oracles(data):
    d = data.draw(st.integers(1, 7), label="d")
    n_a = data.draw(st.integers(0, d), label="n_a")
    n_b = data.draw(st.integers(0, d), label="n_b")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    pair = pair_basis(d, n_a)
    full = full_basis(d, n_a, n_b)
    for psi in (_random_state(pair, seed), _random_state(full, seed)):
        for shift in range(-1, d + 1):  # includes shift 0 and both wraps
            got = translate(psi, shift).amplitudes
            assert np.array_equal(got, translate_loop(psi, shift).amplitudes)
    diag = full_basis(d, n_a, n_a)
    psi = _random_state(pair, seed)
    assert np.array_equal(embed_pair_state(psi, diag).amplitudes,
                          embed_pair_state_loop(psi, diag).amplitudes)
    phi = _random_state(diag, seed)
    assert np.array_equal(project_to_pair_sector(phi, pair).amplitudes,
                          project_to_pair_sector_loop(phi, pair).amplitudes)
