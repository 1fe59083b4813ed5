import math

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
from cobosons.fock import popcount
from oracles import effective_hamiltonian_oracle, full_hamiltonian_oracle, matvec_effective_free


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
    dense = h.to_dense()
    assert np.allclose(dense, dense.conj().T)


def test_full_hamiltonian_diagonal_terms():
    d = 5
    p = ModelParams(j=0.0, u=3.0, gamma=0.25, d=d, n_a=2, n_b=2)
    basis = full_basis(d, 2, 2)
    h = build_full_hamiltonian(p, basis)
    dense = h.to_dense()
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
    basis = full_basis(4, 2, 2)
    h = build_full_hamiltonian(p, basis)
    a = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    psi = StateVector(basis, a / np.linalg.norm(a))
    lhs = h.matvec(translate(psi, 1)).amplitudes
    rhs = translate(h.matvec(psi), 1).amplitudes
    assert np.abs(lhs - rhs).max() < 1e-12


def test_effective_matrix_elements():
    d = 5
    p = ModelParams(j=1.0, u=10.0, gamma=0.8, d=d, n=2)
    basis = pair_basis(d, 2)
    h = build_effective_hamiltonian(p, basis)
    dense = h.to_dense()
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
    direct = build_effective_hamiltonian(p).to_dense()
    bars = build_effective_from_bars(6, 2, p.jbar, p.gammabar).to_dense()
    assert np.allclose(direct, bars)


def test_matvec_free_agrees_with_stored_operator(rng):
    p = ModelParams(j=1.0, u=12.0, gamma=0.4, d=7, n=3)
    basis = pair_basis(7, 3)
    h = build_effective_hamiltonian(p, basis)
    a = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    psi = StateVector(basis, a / np.linalg.norm(a))
    assert np.allclose(matvec_effective_free(p, psi).amplitudes, h.matvec(psi).amplitudes)


def _assert_same_csr(op, ref):
    a, b = op.to_csr(), ref.to_csr()
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
                    basis = full_basis(d, n_a, n_b)
                    _assert_same_csr(build_full_hamiltonian(p, basis), full_hamiltonian_oracle(p, basis))
            if u == 0:
                continue
            for n in range(d + 1):
                p = ModelParams(j=j, u=u, gamma=gamma, d=d, n=n)
                basis = pair_basis(d, n)
                _assert_same_csr(
                    build_effective_hamiltonian(p, basis), effective_hamiltonian_oracle(p, basis)
                )


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
    cases = [(p, build_full_hamiltonian(p, full_basis(d, n_a, n_b)), full_hamiltonian_oracle)]
    if u > 0:
        pp = ModelParams(j=j, u=u, gamma=gamma, d=d, n=n_a)
        cases.append((pp, build_effective_hamiltonian(pp, pair_basis(d, n_a)), effective_hamiltonian_oracle))
    for params, h, oracle in cases:
        basis = h.basis
        _assert_same_csr(h, oracle(params, basis))
        a = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        psi = StateVector(basis, a / np.linalg.norm(a))
        lhs = h.matvec(translate(psi, 1)).amplitudes
        rhs = translate(h.matvec(psi), 1).amplitudes
        assert np.abs(lhs - rhs).max() <= 1e-12 * (1.0 + j + u + gamma)


def test_two_fermion_chain_structure():
    p = ModelParams(j=1.5, u=4.0, gamma=0.0, d=8, n=1)
    chain = build_relative_chain("two_fermion", p, r=0, cutoff=5)
    dense = chain.to_dense()
    assert chain.basis.sites == tuple(range(-5, 6))
    center = chain.basis.sites.index(0)
    assert dense[center, center] == pytest.approx(-4.0)
    assert dense[center, center + 1] == pytest.approx(-2 * 1.5)
    assert np.allclose(dense, dense.conj().T)


def test_two_pair_chain_structure():
    p = ModelParams(j=1.0, u=2.0, gamma=3.0, d=8, n=2)  # Jbar = 1, gammabar = 4
    chain = build_relative_chain("two_pair", p, r=0, cutoff=6)
    dense = chain.to_dense()
    assert chain.basis.sites == tuple(range(1, 7))
    assert dense[0, 0] == pytest.approx(-4.0)
    assert dense[0, 1] == pytest.approx(-2.0)


def test_chain_nonzero_momentum_phase():
    p = ModelParams(j=1.0, u=4.0, gamma=0.0, d=8, n=1)
    chain = build_relative_chain("two_fermion", p, r=2, cutoff=4)
    dense = chain.to_dense()
    hop = -(1 + np.exp(2j * np.pi * 2 / 8))
    assert dense[1, 0] == pytest.approx(hop)
    assert dense[0, 1] == pytest.approx(np.conj(hop))


def test_chain_rejects_bad_input():
    p = ModelParams(j=1.0, u=4.0, gamma=0.0, d=8, n=1)
    with pytest.raises(ValueError):
        build_relative_chain("bogus", p)
    with pytest.raises(ValueError):
        build_relative_chain("two_fermion", p, cutoff=2)


def test_sparse_operator_rejects_non_hermitian():
    from cobosons.model import SparseOperator

    basis = pair_basis(4, 1)
    with pytest.raises(ValueError):
        SparseOperator(basis, [0, 1], [1, 0], [1.0, 2.0])
