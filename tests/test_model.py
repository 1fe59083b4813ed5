import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobosons import (
    ModelParams,
    StateVector,
    build_effective_from_bars,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_relative_chain,
    full_basis,
    pair_basis,
    translate,
)
from cobosons.fock import MAX_BASIS_STATES, CapacityError, popcount
from cobosons.model import ChainBasis, SparseOperator
from oracles import (
    effective_hamiltonian_oracle,
    full_hamiltonian_oracle,
    matvec_effective_free,
    relative_chain_oracle,
)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(j=-1.0, u=1.0, gamma=0.0, d=4, n=1)
    with pytest.raises(ValueError):
        ModelParams(j=1.0, u=np.inf, gamma=0.0, d=4, n=1)
    with pytest.raises(ValueError):
        ModelParams(j=1.0, u=1.0, gamma=0.0, d=1, n=1)


def test_bars():
    p = ModelParams(j=2.0, u=8.0, gamma=3.0, d=6, n=2)
    assert p.jbar == 1.0
    assert p.gammabar == 2.0 * (3.0 - 1.0)
    with pytest.raises(ValueError):
        _ = ModelParams(j=1.0, u=0.0, gamma=0.0, d=6, n=2).jbar


def test_full_hamiltonian_is_hermitian_and_real_spectrum():
    p = ModelParams(j=1.0, u=2.0, gamma=0.5, d=4, n=2)
    h = build_full_hamiltonian(p)
    dense = h.to_csr().toarray()
    assert np.allclose(dense, dense.conj().T)


def test_full_hamiltonian_diagonal_terms():
    d = 5
    p = ModelParams(j=0.0, u=3.0, gamma=0.25, d=d, n_a=2, n_b=2)
    h = build_full_hamiltonian(p)
    basis = h.basis
    assert basis is full_basis(d, 2, 2)
    dense = h.to_csr().toarray()
    full = (1 << d) - 1
    for i, (ma, mb) in enumerate(basis.states):
        pairs = popcount(ma & mb)
        mb_s = ((mb >> 1) | (mb << (d - 1))) & full
        ma_s = ((ma >> 1) | (ma << (d - 1))) & full
        bonds = popcount(ma & mb_s) + popcount(mb & ma_s)
        assert dense[i, i] == pytest.approx(-3.0 * pairs - 0.25 * bonds)
    # J = 0: purely diagonal
    assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0


def test_full_hamiltonian_translation_symmetry(rng):
    p = ModelParams(j=1.0, u=2.0, gamma=0.7, d=4, n=2)
    h = build_full_hamiltonian(p)
    basis = h.basis
    a = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    psi = StateVector(basis, a / np.linalg.norm(a))
    lhs = h.to_csr() @ translate(psi, 1).amplitudes
    rhs = translate(StateVector(basis, h.to_csr() @ psi.amplitudes), 1).amplitudes
    assert np.abs(lhs - rhs).max() < 1e-12


def test_effective_matrix_elements():
    d = 5
    p = ModelParams(j=1.0, u=10.0, gamma=0.8, d=d, n=2)
    h = build_effective_hamiltonian(p)
    basis = h.basis
    assert basis is pair_basis(d, 2)
    dense = h.to_csr().toarray()
    jbar = p.jbar
    vnn = 2.0 * p.gamma - 4.0 * p.j**2 / p.u
    assert vnn == pytest.approx(p.gammabar)
    for i, mi in enumerate(basis.states):
        for j, mj in enumerate(basis.states):
            if i == j:
                full = (1 << d) - 1
                shift = ((mi >> 1) | (mi << (d - 1))) & full
                assert dense[i, i] == pytest.approx(-vnn * popcount(mi & shift))
            elif popcount(mi ^ mj) == 2:
                lo, hi = sorted(k for k in range(d) if (mi ^ mj) >> k & 1)
                adjacent = hi - lo == 1 or (lo == 0 and hi == d - 1)
                want = -jbar if adjacent else 0.0
                assert dense[i, j] == pytest.approx(want)
            else:
                assert dense[i, j] == 0.0


def test_effective_model_closes_over_bars():
    p = ModelParams(j=1.0, u=50.0, gamma=0.3, d=6, n=2)
    direct = build_effective_hamiltonian(p).to_csr().toarray()
    bars = build_effective_from_bars(6, 2, p.jbar, p.gammabar).to_csr().toarray()
    assert np.allclose(direct, bars)


def test_builders_name_their_sector_by_parameters_only():
    # the sector is (d, N) or (d, N_A, N_B) from the parameters; no basis
    # argument can override it
    p = ModelParams(j=1.0, u=10.0, gamma=0.2, d=6, n=2)
    assert build_effective_from_bars(10, 3, 1.0, 0.5).basis is pair_basis(10, 3)
    assert build_effective_hamiltonian(p).basis is pair_basis(6, 2)
    assert build_full_hamiltonian(p).basis is full_basis(6, 2, 2)
    unequal = ModelParams(j=1.0, u=10.0, gamma=0.2, d=6, n_a=1, n_b=2)
    assert build_full_hamiltonian(unequal).basis is full_basis(6, 1, 2)
    for build, args in ((build_effective_from_bars, (10, 3, 1.0, 0.5)), (build_effective_hamiltonian, (p,)),
                        (build_full_hamiltonian, (p,))):
        with pytest.raises(TypeError):
            build(*args, pair_basis(6, 2))


def test_matvec_free_agrees_with_stored_operator(rng):
    p = ModelParams(j=1.0, u=12.0, gamma=0.4, d=7, n=3)
    h = build_effective_hamiltonian(p)
    basis = h.basis
    a = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    psi = StateVector(basis, a / np.linalg.norm(a))
    assert np.allclose(matvec_effective_free(p, psi).amplitudes, h.to_csr() @ psi.amplitudes)


def _assert_same_csr(op, ref):
    a, b = op.to_csr(), ref
    assert a.dtype == b.dtype
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.data.tobytes() == b.data.tobytes()


def test_builders_match_loop_oracles_exactly():
    """Every full (d <= 8, N_A, N_B) and effective (d <= 8, N) size, with
    the J = 0, U = 0 and gamma = 0 corners on the smaller lattices."""
    for d in range(2, 9):
        couplings = [(1.3, 2.7, 0.45)]
        if d <= 5:
            couplings += [(0.0, 2.0, 0.3), (1.1, 0.0, 0.7), (0.9, 3.0, 0.0)]
        for j, u, gamma in couplings:
            for n_a in range(d + 1):
                for n_b in range(d + 1):
                    p = ModelParams(j=j, u=u, gamma=gamma, d=d, n_a=n_a, n_b=n_b)
                    h = build_full_hamiltonian(p)
                    _assert_same_csr(h, full_hamiltonian_oracle(p, full_basis(d, n_a, n_b)))
            if u == 0:
                continue
            for n in range(d + 1):
                p = ModelParams(j=j, u=u, gamma=gamma, d=d, n=n)
                h = build_effective_hamiltonian(p)
                _assert_same_csr(h, effective_hamiltonian_oracle(p, pair_basis(d, n)))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 7).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(0, d), st.integers(0, d))
    ),
    st.floats(0.0, 3.0),
    st.one_of(st.just(0.0), st.floats(0.1, 30.0)),
    st.floats(0.0, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_builders_match_oracles_and_commute_with_translation(sizes, j, u, gamma, seed):
    d, n_a, n_b = sizes
    rng = np.random.default_rng(seed)
    p = ModelParams(j=j, u=u, gamma=gamma, d=d, n_a=n_a, n_b=n_b)
    cases = [(p, build_full_hamiltonian(p), full_hamiltonian_oracle)]
    if u > 0:
        pp = ModelParams(j=j, u=u, gamma=gamma, d=d, n=n_a)
        cases.append((pp, build_effective_hamiltonian(pp), effective_hamiltonian_oracle))
    for params, h, oracle in cases:
        basis = h.basis
        _assert_same_csr(h, oracle(params, basis))
        a = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        psi = StateVector(basis, a / np.linalg.norm(a))
        lhs = h.to_csr() @ translate(psi, 1).amplitudes
        rhs = translate(StateVector(basis, h.to_csr() @ psi.amplitudes), 1).amplitudes
        assert np.abs(lhs - rhs).max() <= 1e-12 * (1.0 + j + u + gamma)


def _assert_within_one_ulp(op, ref):
    a = op.to_csr()
    assert a.dtype == ref.dtype
    assert np.array_equal(a.indptr, ref.indptr)
    assert np.array_equal(a.indices, ref.indices)
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(a.data) - part(ref.data)) <= np.spacing(np.abs(part(ref.data))))


# couplings of the chain comparisons below: the two the structure tests
# read, a J = 0 chain (no hop) and a weaker coupling on another ring
CHAIN_PARAMS = [ModelParams(j=1.5, u=4.0, gamma=0.0, d=8, n=1), ModelParams(j=1.0, u=2.0, gamma=3.0, d=8, n=2),
                ModelParams(j=0.0, u=3.0, gamma=2.0, d=5, n=2), ModelParams(j=0.3, u=7.0, gamma=1.1, d=10, n=2)]


def test_two_fermion_chain_structure():
    p = ModelParams(j=1.5, u=4.0, gamma=0.0, d=8, n=1)
    chain = build_relative_chain("two_fermion", p, r=0, cutoff=5)
    dense = chain.to_csr().toarray()
    assert chain.basis.sites == tuple(range(-5, 6))
    center = chain.basis.sites.index(0)
    assert dense[center, center] == pytest.approx(-4.0)
    assert dense[center, center + 1] == pytest.approx(-2 * 1.5)
    assert np.allclose(dense, dense.conj().T)
    # built from parts, the matrix of its three assembled diagonals, bit for bit
    for params in CHAIN_PARAMS:
        for cutoff in (3, 5, 200):
            _assert_same_csr(build_relative_chain("two_fermion", params, r=0, cutoff=cutoff),
                             relative_chain_oracle("two_fermion", params, 0, cutoff))


def test_two_pair_chain_structure():
    p = ModelParams(j=1.0, u=2.0, gamma=3.0, d=8, n=2)  # Jbar = 1, gammabar = 4
    chain = build_relative_chain("two_pair", p, r=0, cutoff=6)
    dense = chain.to_csr().toarray()
    assert chain.basis.sites == tuple(range(1, 7))
    assert dense[0, 0] == pytest.approx(-4.0)
    assert dense[0, 1] == pytest.approx(-2.0)
    for params in CHAIN_PARAMS:
        for cutoff in (3, 6, 200):
            _assert_same_csr(build_relative_chain("two_pair", params, r=0, cutoff=cutoff),
                             relative_chain_oracle("two_pair", params, 0, cutoff))


def test_chain_nonzero_momentum_phase():
    p = ModelParams(j=1.0, u=4.0, gamma=0.0, d=8, n=1)
    chain = build_relative_chain("two_fermion", p, r=2, cutoff=4)
    dense = chain.to_csr().toarray()
    hop = -(1 + np.exp(2j * np.pi * 2 / 8))
    assert dense[1, 0] == pytest.approx(hop)
    assert dense[0, 1] == pytest.approx(np.conj(hop))
    # t * phase is the assembled hop to 1 ulp in each part, at every r,
    # r = d/2 (|hop| ~ 1e-16) included
    for kind in ("two_fermion", "two_pair"):
        for params in CHAIN_PARAMS:
            for r in range(1, params.d):
                _assert_within_one_ulp(build_relative_chain(kind, params, r=r, cutoff=5),
                                       relative_chain_oracle(kind, params, r, 5))


def test_chain_rejects_bad_input():
    p = ModelParams(j=1.0, u=4.0, gamma=0.0, d=8, n=1)
    with pytest.raises(ValueError):
        build_relative_chain("bogus", p)
    with pytest.raises(ValueError):
        build_relative_chain("two_fermion", p, cutoff=2)
    # 2 * MAX_BASIS_STATES + 1 sites: refused before the site tuple (about
    # 1 GB) or the diagonal exists
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"has {2 * MAX_BASIS_STATES + 1} sites, above {MAX_BASIS_STATES}"):
            build_relative_chain("two_fermion", p, cutoff=MAX_BASIS_STATES)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_sparse_operator_rejects_non_hermitian():
    # a complex diagonal or a complex hopping: the operator would not be
    # Hermitian
    basis = pair_basis(4, 1)
    for diagonal, hopping in ((np.array([1.0, 2.0, 1j, 0.0]), 1.0), (np.zeros(4), 1.0 + 1j), (np.zeros(4), 1j)):
        with pytest.raises(ValueError, match="complex diagonal or hopping"):
            SparseOperator(basis, diagonal, hopping)


def test_sparse_operator_rejects_non_finite_parts():
    # an inf or NaN part, given or made by the builder (-inf * 0 is NaN in
    # the bond term), is refused when the operator is made, not in a solve
    basis = pair_basis(4, 1)
    for diagonal, hopping in ((np.array([1.0, np.nan, 0.0, 0.0]), 1.0), (np.full(4, -np.inf), 1.0),
                              (np.zeros(4), np.inf), (np.zeros(4), np.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            SparseOperator(basis, diagonal, hopping)
    for jbar, gammabar in ((1.0, math.inf), (1.0, -math.inf), (1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="must be finite"), np.errstate(invalid="ignore"):
            build_effective_from_bars(6, 2, jbar, gammabar)


def test_sparse_operator_dtype_follows_the_matrix():
    for d in range(2, 7):
        for n in range(d + 1):
            p = ModelParams(j=1.3, u=2.7, gamma=0.45, d=d, n=n)
            assert build_full_hamiltonian(p).to_csr().dtype == np.float64, (d, n)
            assert build_effective_hamiltonian(p).to_csr().dtype == np.float64, (d, n)
    p = ModelParams(j=1.0, u=4.0, gamma=0.0, d=8, n=1)
    assert build_relative_chain("two_fermion", p, r=0, cutoff=5).to_csr().dtype == np.float64
    assert build_relative_chain("two_fermion", p, r=2, cutoff=5).to_csr().dtype == np.complex128
    # a chain's phase given as a complex number with a zero imaginary part
    real = SparseOperator(ChainBasis("test", (0, 1, 2), 1.0), [0.5, -1.0, 2.0], 0.75).to_csr()
    as_complex = SparseOperator(ChainBasis("test", (0, 1, 2), 1.0 + 0j), [0.5, -1.0, 2.0], 0.75).to_csr()
    assert as_complex.dtype == np.float64
    assert as_complex.data.tobytes() == real.data.tobytes()
    assert np.array_equal(as_complex.indices, real.indices)
    assert np.array_equal(as_complex.indptr, real.indptr)


def test_sparse_operator_rejects_matrix_of_another_size():
    with pytest.raises(ValueError, match="does not match basis size"):
        SparseOperator(pair_basis(4, 1), np.zeros(3), 1.0)
