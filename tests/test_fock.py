import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cobosons import (
    BasisMismatchError,
    CapacityError,
    ModelParams,
    StateVector,
    build_full_hamiltonian,
    full_basis,
    inner_product,
    pair_basis,
    translate,
)
from cobosons import fock
from cobosons.fock import (
    embed_pair_state,
    popcount,
    project_to_pair_sector,
    reflection,
    symmetric_projector,
    translation,
)
from oracles import (
    _lower_sign,
    create_string,
    embed_pair_state_loop,
    even_projector,
    fermion_a_annihilate,
    fermion_a_create,
    fermion_b_create,
    facts,
    generator_keys,
    group_projector,
    hop_block_former,
    momentum_projector,
    orbit_projector,
    project_to_pair_sector_loop,
    reversed_bits,
    translate_loop,
    translation_orbits,
    zero_momentum_projector,
)


def test_pair_basis_enumeration():
    basis = pair_basis(4, 2)
    assert basis.size == math.comb(4, 2)
    assert basis.states.dtype == np.int64
    assert basis.states.tolist() == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    assert basis.rank(basis.states).tolist() == list(range(basis.size))
    with pytest.raises(ValueError):
        basis.states[0] = 0  # read-only


def test_pair_basis_enumeration_at_every_filling():
    # above half filling the masks are enumerated as complements
    for d in range(1, 13):
        for n in range(d + 1):
            states = pair_basis(d, n).states
            assert states.tolist() == [m for m in range(1 << d) if popcount(m) == n], (d, n)
            assert states.dtype == np.int64 and not states.flags.writeable


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
        pair_basis(63, 2)
    with pytest.raises(CapacityError):
        full_basis(17, 1, 1)


@pytest.mark.parametrize("d", [61, 62])
def test_bit_operations_hold_up_to_the_largest_pair_lattice(d):
    # int64 masks with the highest site at bit 61: _masks, rotate, _reverse
    # and move against Python-int oracles, exhaustively over the masks with
    # 1, 2, d - 2 and d - 1 pairs (every shift) and over every (src, dst)
    # with 1 and d - 1 pairs
    assert fock.MAX_PAIR_SITES == 62
    full = (1 << d) - 1
    for n in (1, 2, d - 2, d - 1):
        masks = fock._masks(d, n)
        want = sorted(sum(1 << k for k in sites) for sites in itertools.combinations(range(d), n))
        assert masks.dtype == np.int64 and masks.tolist() == want, n
        for shift in range(d):
            assert fock.rotate(masks, shift, d).tolist() == [(m << shift | m >> (d - shift)) & full for m in want]
        assert fock._reverse(masks, d).tolist() == [int(f"{m:0{d}b}"[::-1], 2) for m in want]
        pos = {m: i for i, m in enumerate(want)}
        pairs = itertools.permutations(range(d), 2) if n in (1, d - 1) else [
            (k, (k + step) % d) for k in range(d) for step in (1, -1)]
        for src, dst in pairs:
            from_idx, to_idx = fock.move(masks, src, dst)
            moved = [i for i, m in enumerate(want) if m >> src & 1 and not m >> dst & 1]
            assert from_idx.tolist() == moved, (n, src, dst)
            assert to_idx.tolist() == [pos[want[i] ^ (1 << src | 1 << dst)] for i in moved], (n, src, dst)
    assert pair_basis(d, 2).size == math.comb(d, 2)


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


def test_capacity_check_runs_before_the_shared_basis_is_found(monkeypatch):
    shared = pair_basis(10, 4), full_basis(6, 2, 3)
    assert pair_basis(10, 4) is shared[0] and full_basis(6, 2, 3) is shared[1]
    monkeypatch.setattr(fock, "MAX_BASIS_STATES", min(b.size for b in shared) - 1)
    with pytest.raises(CapacityError):
        pair_basis(10, 4)
    with pytest.raises(CapacityError):
        full_basis(6, 2, 3)


def test_each_kind_shares_the_sector_asked_for_last():
    first = pair_basis(6, 2)
    full = full_basis(4, 1, 1)
    assert pair_basis(6, 2) is first
    pair_basis(6, 3)  # another pair sector replaces the shared one
    pair_basis(8, 2)
    assert pair_basis(6, 2) is not first
    assert pair_basis(6, 2) == first  # still equal by (d, n)
    assert full_basis(4, 1, 1) is full  # the kinds are kept apart


def _table_arrays(basis):
    tables = [basis.bonds(), *basis.translation_table(), basis.reflection_index()]
    keys = [(False, False), (True, False)]
    if isinstance(basis, fock.PairBasis):
        tables += [basis.occupation(), basis.rdm_gather()]
    else:
        tables += [basis.onsite()]
    if isinstance(basis, fock.FullBasis) and basis.n_a == basis.n_b:
        tables += [basis.swap_index()]
        keys += [(False, True), (True, True)]
    tables += [basis.hop_block(*key)[2] for key in keys]
    csrs = [basis.hop(), *(block for key in keys for block in basis.hop_block(*key)[:2])]
    return tables + [a for m in csrs for a in (m.data, m.indices, m.indptr)]


@pytest.mark.parametrize("make", [lambda: pair_basis(6, 3), lambda: full_basis(4, 2, 1), lambda: full_basis(4, 2, 2)])
def test_sector_tables_are_read_only_and_built_once(make):
    basis = make()
    arrays = _table_arrays(basis)
    assert len(arrays) > 20
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    # a second look returns the same objects
    assert all(x is y for x, y in zip(arrays, _table_arrays(make())))


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
    expected = (-1) ** popcount(mask & ((1 << k) - 1))
    assert _lower_sign(mask, k) == expected


def test_state_vector_validation():
    basis = pair_basis(4, 2)
    with pytest.raises(ValueError):
        StateVector(basis, np.ones(3))
    with pytest.raises(ValueError):
        StateVector(basis, np.full(basis.size, np.nan))
    with pytest.raises(ValueError):
        StateVector(basis, np.full(basis.size, np.inf + 0j))
    vec = StateVector(basis, np.ones(basis.size))
    with pytest.raises(ValueError):
        vec.amplitudes[0] = 2.0  # immutable
    # float64 when given real (ints too), complex128 when given complex
    assert vec.amplitudes.dtype == StateVector(basis, np.ones(basis.size, int)).amplitudes.dtype == np.float64
    assert StateVector(basis, np.ones(basis.size, complex)).amplitudes.dtype == np.complex128


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
    # embedding, projection and translation keep the state's dtype
    amp = random_state.amplitudes.real
    real = StateVector(random_state.basis, amp / np.linalg.norm(amp))
    for psi, dtype in ((random_state, np.complex128), (real, np.float64)):
        fb = full_basis(6, 2, 2)
        embedded = embed_pair_state(psi, fb)
        assert abs(embedded.norm - 1.0) < 1e-12
        back = project_to_pair_sector(embedded, psi.basis)
        assert np.allclose(back.amplitudes, psi.amplitudes)
        assert embedded.amplitudes.dtype == back.amplitudes.dtype == dtype
        assert translate(psi, 1).amplitudes.dtype == translate(embedded, 1).amplitudes.dtype == dtype


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


MOMENTUM_BASES = [pair_basis(d, n) for d in range(1, 11) for n in range(d + 1)] + [
    full_basis(d, n_a, n_b) for d in range(1, 7) for n_a in range(d + 1) for n_b in range(d + 1)
]


def test_momentum_projectors_are_isometries_onto_translation_eigenspaces():
    # the library's K = 0 projector: real, P^T P = 1 and T P = P, with the
    # signs -1 of even-N species, spanning the K = 0 sector of the loop
    # oracle; the oracle's d sectors P_K, T P_K = exp(2 pi i K / d) P_K,
    # together hold every state
    for basis in MOMENTUM_BASES:
        d = basis.d
        index, sign = translation(basis, 1)
        shift = sp.csr_matrix((sign, (index, np.arange(basis.size))), shape=(basis.size,) * 2)
        proj, _ = symmetric_projector(index, sign, d, ())
        assert not np.iscomplexobj(proj), basis
        gram = (proj.T @ proj).toarray()
        assert np.abs(gram - np.eye(proj.shape[1])).max(initial=0.0) < 1e-14, basis
        assert np.abs((shift @ proj - proj).toarray()).max(initial=0.0) < 1e-14, basis
        total = 0
        for k in range(d):
            oracle = momentum_projector(basis, k)
            total += oracle.shape[1]
            gram = (oracle.conj().T @ oracle).toarray()
            assert np.abs(gram - np.eye(oracle.shape[1])).max(initial=0.0) < 1e-14, (basis, k)
            phase = np.exp(2j * np.pi * k / d)
            assert np.abs((shift @ oracle - phase * oracle).toarray()).max(initial=0.0) < 1e-14, (basis, k)
            if k == 0:
                same = (proj @ proj.T - oracle @ oracle.conj().T).toarray()
                assert oracle.shape[1] == proj.shape[1] and np.abs(same).max(initial=0.0) < 1e-14, basis
        assert total == basis.size, basis


def _assert_same_csr(got, want, case):
    assert got.dtype == want.dtype and got.shape == want.shape, case
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), (case, part)


def test_zero_momentum_projector_with_positive_signs_is_the_orbit_sum():
    for basis in MOMENTUM_BASES:
        index, sign = translation(basis, 1)
        if np.any(sign != 1):
            continue
        _assert_same_csr(symmetric_projector(index, sign, basis.d, ())[0], orbit_projector(index, basis.d), basis)


SYMMETRY_BASES = MOMENTUM_BASES + [pair_basis(d, n) for d in (11, 12) for n in range(d + 1)] + [
    full_basis(7, n, n) for n in range(8)] + [full_basis(8, 2, 2), full_basis(8, 4, 4), full_basis(10, 4, 4)]


def test_symmetric_projector_matches_the_group_oracle():
    # every block's projector, entry for entry, against the brute-force
    # orbits of the up to 4d elements S^s R^r T^m and the signs of their
    # stabilizers: every pair basis with d <= 12, every full basis with
    # d <= 6, N_A = N_B at d = 7, and (8, 2), (8, 4) and (10, 4)
    for basis in SYMMETRY_BASES:
        for reflect, swap in generator_keys(basis):
            _assert_same_csr(basis.hop_block(reflect, swap)[0], group_projector(basis, reflect, swap),
                             (basis, reflect, swap))


def test_symmetric_projector_without_the_swap_is_the_former_projectors():
    # without S the projector is, bit for bit, the former signed K = 0
    # projector (Orbits.projector) on every basis and the former
    # sign-free reflection-even one (even_projector) wherever every sign
    # of T is +1, every pair basis among them
    for basis in SYMMETRY_BASES:
        orbits = translation_orbits(*basis.translation_table(), basis.d)
        _assert_same_csr(basis.hop_block(False, False)[0], zero_momentum_projector(orbits), basis)
        if np.all(basis.translation_table()[1] == 1):
            _assert_same_csr(basis.hop_block(True, False)[0], even_projector(basis), basis)


def test_every_block_is_the_former_route_bit_for_bit():
    # P, the block and reps of every hop_block, dtypes and bytes, against
    # the former route: the translation orbits labelled by np.unique, the
    # cosets merged over them and the representatives read from P's CSC
    # form.  The CSV bytes depend on these bits
    for basis in SYMMETRY_BASES:
        for key in generator_keys(basis):
            proj, block, reps = basis.hop_block(*key)
            want_proj, want_block, want_reps = hop_block_former(basis, *key)
            _assert_same_csr(proj, want_proj, (basis, key))
            _assert_same_csr(block, want_block, (basis, key))
            assert reps.dtype == want_reps.dtype == np.int32, (basis, key)
            assert np.array_equal(reps, want_reps), (basis, key)


def test_swap_index_exchanges_the_species():
    # S|i_a, i_b> = |i_b, i_a> against the masks, an involution; no swap
    # when N_A != N_B
    for basis in (full_basis(4, 2, 2), full_basis(6, 3, 3), full_basis(5, 0, 0)):
        index, states = basis.swap_index(), basis.states
        assert np.array_equal(states[index], states[:, ::-1]), basis
        assert np.array_equal(index[index], np.arange(basis.size)), basis
    with pytest.raises(ValueError, match="no species swap"):
        full_basis(4, 2, 1).swap_index()


def test_reflection_reverses_the_sites_of_every_state():
    # R|i> = |index[i]> with the bits of each mask reversed, k -> d-1-k,
    # against a per-state loop; R is an involution
    for basis in MOMENTUM_BASES:
        index, d = reflection(basis), basis.d
        if isinstance(basis, fock.PairBasis):
            want = [basis.rank([reversed_bits(int(m), d)])[0] for m in basis.states]
        else:
            want = [basis.rank([reversed_bits(int(a), d)], [reversed_bits(int(b), d)])[0]
                    for a, b in basis.states]
        assert np.array_equal(index, want), basis
        assert np.array_equal(index[index], np.arange(basis.size)), basis


def test_facts_of_the_stoquastic_part_of_an_even_n_full_model():
    # the d = 4, N = 2 full model with every off-diagonal entry made
    # negative: stoquastic and connected, but |.| drops the signs -1 of the
    # signed translation, so Perron-Frobenius does not certify it
    basis = full_basis(4, 2, 2)
    h = build_full_hamiltonian(ModelParams(j=1.0, u=10.0, gamma=0.2, d=4, n=2)).to_csr()
    diag = sp.diags(h.diagonal())
    got = facts(diag - abs(h - diag), basis)
    assert (got.negative, got.connected, got.sign_free, got.perron) == (True, True, False, False)
    assert not got.translation
