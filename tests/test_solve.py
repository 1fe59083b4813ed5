import math

import numpy as np
import pytest
import scipy.sparse as sp

from cobosons import (
    ModelParams,
    analytic_two_fermion,
    analytic_two_pair,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_relative_chain,
    ground_space,
)
from cobosons.solve import (
    geometric_tail,
    ground_state_vector,
    is_bound,
    spectral_equivalence_check,
)


def test_ground_space_simple_matrix():
    from cobosons.model import SparseOperator
    from cobosons import pair_basis

    basis = pair_basis(4, 1)
    op = SparseOperator(basis, sp.diags([3.0, -1.0, 2.0, -1.0]))
    gs = ground_space(op)
    assert gs.energy == pytest.approx(-1.0)
    assert gs.degeneracy == 2
    # columns orthonormal
    overlap = gs.vectors.conj().T @ gs.vectors
    assert np.allclose(overlap, np.eye(2))


def test_ground_space_checks_each_vector_against_its_own_level():
    from cobosons.model import SparseOperator
    from cobosons import pair_basis

    # the second level lies inside the degeneracy window but 5e-10 above
    # E0, above the residual bound: it belongs to the ground space
    op = SparseOperator(pair_basis(3, 1), sp.diags([0.0, 5e-10, 1.0]))
    gs = ground_space(op)
    assert gs.energy == 0.0
    assert gs.degeneracy == 2
    assert np.array_equal(gs.levels, [0.0, 5e-10, 1.0])


def test_ground_space_degenerate_full_model():
    # J = 0, gamma = 0: every pair placement has energy -N U
    p = ModelParams(j=0.0, u=5.0, gamma=0.0, d=5, n=2)
    gs = ground_space(build_full_hamiltonian(p))
    assert gs.energy == pytest.approx(-10.0)
    assert gs.degeneracy == math.comb(5, 2)


def test_ground_state_vector_phase_convention():
    p = ModelParams(j=1.0, u=10.0, gamma=0.1, d=6, n=2)
    vec = ground_state_vector(build_effective_hamiltonian(p))
    first = vec.amplitudes[np.flatnonzero(np.abs(vec.amplitudes) > 1e-12)[0]]
    assert first.real > 0 and abs(first.imag) < 1e-12


def test_analytic_two_fermion_closed_form():
    sol = analytic_two_fermion(1.0, 3.0)
    assert sol.r0 == pytest.approx(0.5)
    assert sol.energy == pytest.approx(-5.0)
    assert sol.bound and not sol.limit_case


def test_analytic_two_fermion_zero_hopping_limit():
    sol = analytic_two_fermion(0.0, 2.0)
    assert sol.limit_case
    assert sol.r0 == 0.0
    assert sol.energy == -2.0


def test_analytic_two_fermion_rejects_negative():
    with pytest.raises(ValueError):
        analytic_two_fermion(-1.0, 1.0)


def test_analytic_two_pair_bound_branch():
    sol = analytic_two_pair(1.0, 3.0)
    assert sol.bound
    assert sol.r0 == pytest.approx(0.5)
    assert sol.energy == pytest.approx((4 * 3 - 4 - 2 * 9) / (3 - 1))


def test_analytic_two_pair_unbound_branch():
    sol = analytic_two_pair(1.0, 1.9)
    assert not sol.bound
    assert math.isnan(sol.energy)


def test_bound_state_amplitude_rule():
    sol = analytic_two_fermion(1.0, 3.0)
    amps = sol.amplitude([0, 1, 2, -2])
    assert np.allclose(amps, [1.0, 0.5, 0.25, 0.25])


def test_geometric_tail_fit():
    r = 0.6
    amps = r ** np.abs(np.arange(60))
    r_fit, _ = geometric_tail(amps)
    assert r_fit == pytest.approx(r, abs=1e-10)
    assert is_bound(amps)


def test_is_bound_rejects_extended_state():
    amps = np.full(200, 1.0 / math.sqrt(200))
    assert not is_bound(amps)


def test_chain_bound_amplitudes_tail_stable():
    from cobosons.solve import chain_bound_amplitudes

    p = ModelParams(j=1.0, u=3.0, gamma=0.0, d=10, n=1)
    chain = build_relative_chain("two_fermion", p, r=0, cutoff=200)
    energy = ground_space(chain).energy
    amp = np.abs(chain_bound_amplitudes(chain, energy))
    center = 200
    # r0 = 1/2 exactly; ratios stay clean deep into the tail, where a
    # dense eigenvector would have bottomed out at machine precision
    for s in range(1, 60):
        assert amp[center + s + 1] / amp[center + s] == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(amp[center - 60:center], amp[center + 60:center:-1])


def test_chain_matches_analytic_two_fermion():
    p = ModelParams(j=1.0, u=3.0, gamma=0.0, d=10, n=1)
    chain = build_relative_chain("two_fermion", p, r=0, cutoff=300)
    gs = ground_space(chain)
    assert abs(gs.energy - (-5.0)) < 1e-8 * 5.0


def test_spectral_equivalence_requires_strong_coupling():
    p = ModelParams(j=1.0, u=10.0, gamma=0.0, d=4, n=1)
    with pytest.raises(ValueError):
        spectral_equivalence_check(p)


def test_spectral_equivalence_degenerate_flag():
    p = ModelParams(j=0.0, u=10.0, gamma=0.0, d=4, n=1)
    rep = spectral_equivalence_check(p)
    assert rep.degenerate and rep.fidelity is None


def test_spectral_equivalence_solves_large_full_model_with_arpack(monkeypatch):
    from cobosons import solve
    from cobosons.model import SparseOperator

    p = ModelParams(j=1.0, u=1e3, gamma=4e-3, d=6, n=2)
    want = spectral_equivalence_check(p)
    to_dense = SparseOperator.to_dense

    def guarded(self):
        assert self.dim < 100, f"densified a dim-{self.dim} operator"
        return to_dense(self)

    monkeypatch.setattr(solve, "DENSE_LIMIT", 100)
    monkeypatch.setattr(SparseOperator, "to_dense", guarded)
    got = spectral_equivalence_check(p)  # full model: dim 225 > DENSE_LIMIT
    assert np.abs(got.effective_energies - want.effective_energies).max() < 1e-9
    assert np.abs(got.full_energies - want.full_energies).max() < 1e-9
    assert got.fidelity == pytest.approx(want.fidelity, abs=1e-9)
    assert got.constant == want.constant


def test_spectral_equivalence_single_pair():
    p = ModelParams(j=1.0, u=1000.0, gamma=0.0, d=6, n=1)
    rep = spectral_equivalence_check(p)
    assert rep.fidelity > 0.9999
    assert abs(rep.full_energies[0] - rep.effective_energies[0]) < 1e-6
