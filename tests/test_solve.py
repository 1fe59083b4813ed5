import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cobosons import (
    ModelParams,
    analytic_two_fermion,
    analytic_two_pair,
    build_effective_from_bars,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_relative_chain,
    ground_space,
    pair_basis,
)
from cobosons import ChainBasis, fock, solve
from cobosons.fock import occupations, reflection, translation
from cobosons.model import SparseOperator, gamma_coupling
from cobosons.solve import (
    GroundSolver,
    ground_state_vector,
    spectral_equivalence_check,
)
from oracles import (
    BETHE_MAX_DELTA,
    bethe_energy,
    facts,
    generator_keys,
    geometric_tail,
    group_projector,
    is_bound,
    momentum_projector,
    string_energy,
)


def _eigensolver(solver):
    """The eigensolver function of the block ``solver`` keeps (``_arpack``
    is kept with its start vector bound)."""
    eigensolver = solver._block[3]
    return getattr(eigensolver, "func", eigensolver)


def _chain(diagonal):
    """A diagonal matrix: an operator with no hopping on a chain of its size."""
    return SparseOperator(ChainBasis("test", tuple(range(len(diagonal))), 1.0), diagonal, 0.0)


def test_ground_space_simple_matrix():
    op = _chain([3.0, -1.0, 2.0, -1.0])
    gs = ground_space(op)
    assert gs.energy == pytest.approx(-1.0)
    assert gs.degeneracy == 2
    # columns orthonormal
    overlap = gs.vectors.conj().T @ gs.vectors
    assert np.allclose(overlap, np.eye(2))


def test_ground_space_checks_each_vector_against_its_own_level():
    # the second level lies inside the degeneracy window but 5e-10 above
    # E0, above the residual bound: it belongs to the ground space
    op = _chain([0.0, 5e-10, 1.0])
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


def test_string_energy_is_one_free_pair_and_the_two_pair_bound_state():
    # N = 1 is one free pair at the band bottom; N = 2 is the relative-chain
    # bound state, whose gamma is gammabar / 2 + Jbar
    for jbar, gammabar in ((1.0, 2.5), (2e-3, 1.7e-2), (0.3, 40.0)):
        assert string_energy(jbar, gammabar, 1) == pytest.approx(-2.0 * jbar, rel=1e-14)
        pair = analytic_two_pair(jbar, gammabar / 2.0 + jbar)
        assert string_energy(jbar, gammabar, 2) == pytest.approx(pair.energy, rel=1e-14)
        assert string_energy(jbar, gammabar, 2) == pytest.approx(-gammabar - 4.0 * jbar**2 / gammabar, rel=1e-14)


@pytest.mark.parametrize("d, n, x", [(24, 4, 10.5), (24, 4, 18.125), (16, 6, 18.125), (16, 3, 18.125)])
def test_sector_path_matches_the_string_energy_on_large_rings(d, n, x):
    # rings many string lengths long: the certified sector path's E0 is
    # the infinite-chain N-string energy to 1e-12
    params = ModelParams(j=1.0, u=1e3, gamma=x * 1e-3, d=d, n=n)
    got = ground_space(build_effective_hamiltonian(params))
    want = string_energy(params.jbar, params.gammabar, n)
    assert got.path == "sector"
    assert abs(got.energy - want) <= 1e-12 * abs(want)


def _effective_params(d, n, x):
    """The effective model at J = 1, U = 1000 and gamma U / J^2 = x."""
    return ModelParams(j=1.0, u=1e3, gamma=x * 1e-3, d=d, n=n)


def _effective_solver(d, n):
    """One solver for the effective model at J = 1, U = 1000 and every gamma."""
    base = build_effective_hamiltonian(_effective_params(d, n, 0.0))
    return GroundSolver(base, gamma_coupling(base.basis))


@pytest.mark.parametrize("d, bound", [(20, 1e-11), (24, 1e-12)])
def test_real_lanczos_matches_the_string_energy_at_n_8(d, bound):
    # the 3260- and 15581-state reflection-even blocks, on real Lanczos:
    # E0 is the N-string energy; at d = 20, gamma U / J^2 = 10.5 the
    # string's tail around the ring is not yet negligible (measured
    # 2.3e-12 relative there, below 4e-16 at the three other points)
    solver = _effective_solver(d, 8)
    assert _eigensolver(solver) is solve._arpack
    for x in (10.5, 18.125):
        p = _effective_params(d, 8, x)
        got = solver(p.gamma)
        want = string_energy(p.jbar, p.gammabar, 8)
        assert (got.path, got.degeneracy) == ("sector", 1)
        assert abs(got.energy - want) <= bound * abs(want), x


def test_bethe_energy_is_free_fermions_at_zero_anisotropy_and_refuses_the_isotropic_point():
    # Delta = 0: the momenta 2 pi I_j / d of free fermions, I_j
    # half-integers for even N; beyond BETHE_MAX_DELTA, and below the
    # isotropic antiferromagnet Delta = -1, a ValueError
    for d, n in ((8, 2), (9, 3), (12, 5), (20, 8)):
        quantum = np.arange(1, n + 1) - (n + 1) / 2.0
        assert bethe_energy(d, n, 0.7, 0.0) == pytest.approx(-1.4 * np.cos(2 * np.pi * quantum / d).sum(), rel=1e-14)
    for gammabar in (2.0 * BETHE_MAX_DELTA + 1e-9, 2.0, 5.0, -2.0 - 1e-9):
        with pytest.raises(ValueError, match="Delta"):
            bethe_energy(12, 5, 1.0, gammabar)


@pytest.mark.parametrize("d, n", [(8, 2), (10, 3), (10, 4), (12, 5), (16, 6), (20, 8), (24, 8)])
def test_sector_path_matches_the_bethe_energy_below_the_isotropic_point(d, n):
    # gamma U / J^2 = 1, 3 and 3.8 are Delta = -0.5, 0.5 and 0.9 of the
    # XXZ chain: E0 is the Bethe-ansatz energy to 1e-12 on dense blocks
    # and on real Lanczos (N = 8)
    solver = _effective_solver(d, n)
    for x in (1.0, 3.0, 3.8):
        p = _effective_params(d, n, x)
        got = solver(p.gamma)
        want = bethe_energy(d, n, p.jbar, p.gammabar)
        assert (got.path, got.degeneracy) == ("sector", 1)
        assert abs(got.energy - want) <= 1e-12 * abs(want), x


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


@pytest.mark.parametrize("kind, p, energy", [
    ("two_fermion", ModelParams(j=0.0, u=3.0, gamma=0.0, d=10, n=1), -3.0),
    ("two_pair", ModelParams(j=0.0, u=3.0, gamma=1.0, d=10, n=2), -2.0),
])
def test_chain_bound_amplitudes_at_zero_hopping(kind, p, energy):
    # J = 0 makes t = 0: the sites decouple and the ground state is the
    # potential site alone, the r0 = 0 limit of the closed form; the
    # recurrence, which divides by the off-diagonal, is not run
    from cobosons.solve import chain_bound_amplitudes

    chain = build_relative_chain(kind, p, cutoff=5)
    gs = ground_space(chain)
    assert (chain.hopping, gs.degeneracy, gs.energy) == (0.0, 1, energy)
    amp = chain_bound_amplitudes(chain, gs.energy)
    assert np.array_equal(amp, gs.state.amplitudes)
    site = 0 if kind == "two_fermion" else 1
    want = analytic_two_fermion(0.0, p.u).amplitude(np.array(chain.basis.sites) - site)
    assert np.array_equal(amp, want)


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
    # at DENSE_LIMIT = 14 the full model's K = 0 block even under R and S
    # (16 states, certified by spin-reflection positivity) goes to ARPACK
    # and no block of 14 states or more is densified
    p = ModelParams(j=1.0, u=1e3, gamma=4e-3, d=6, n=2)
    want = spectral_equivalence_check(p)
    dense, arpack = solve._dense, solve._arpack
    arpack_dims = []

    def guarded(block, diagonal, count, **bound):  # bound: the kept dense copy and work buffer
        assert block.shape[0] < 14, f"densified a dim-{block.shape[0]} block"
        return dense(block, diagonal, count, **bound)

    def counted(block, diagonal, count, start):
        arpack_dims.append(block.shape[0])
        return arpack(block, diagonal, count, start)

    monkeypatch.setattr(solve, "DENSE_LIMIT", 14)
    monkeypatch.setattr(solve, "_dense", guarded)
    monkeypatch.setattr(solve, "_arpack", counted)
    got = spectral_equivalence_check(p)
    assert arpack_dims == [group_projector(fock.full_basis(6, 2, 2), True, True).shape[1]] == [16]
    assert np.abs(got.effective_energies - want.effective_energies).max() < 1e-9
    assert np.abs(got.full_energies - want.full_energies).max() < 1e-9
    assert got.fidelity == pytest.approx(want.fidelity, abs=1e-9)
    assert got.constant == want.constant


@pytest.mark.parametrize("d, n, levels", [(8, 3, 4), (6, 3, 3), (6, 2, 3)])
def test_spectral_equivalence_compares_levels_of_the_same_sectors(d, n, levels):
    # the effective model on its reflection-even K = 0 block and the full
    # model, odd N or even, on its K = 0 block even under R and S: their
    # LEVELS lowest levels, or all of the effective block's (3 states at
    # d = 6), agree
    rep = spectral_equivalence_check(ModelParams(j=1.0, u=1e3, gamma=4e-3, d=d, n=n))
    assert len(rep.effective_energies) == len(rep.full_energies) == levels
    assert np.abs(rep.full_energies - rep.effective_energies).max() < 1e-6


def test_spectral_equivalence_single_pair():
    p = ModelParams(j=1.0, u=1000.0, gamma=0.0, d=6, n=1)
    rep = spectral_equivalence_check(p)
    assert rep.fidelity > 0.9999
    assert abs(rep.full_energies[0] - rep.effective_energies[0]) < 1e-6


# ------------------------------------------------------- solver paths

def _ground_projector(gs):
    return gs.vectors @ gs.vectors.conj().T


SECTOR_CASES = [
    ("effective", d, n, x)
    for d in range(2, 11)
    for n in range(1, d)
    for x in (0.0, 2.0, 4.0, 6.0)
] + [
    ("full", d, (n_a, n_b), x)
    for d in range(2, 7)
    for n_a in (1, 3, 5)
    for n_b in (1, 3, 5)
    if n_a < d and n_b < d
    for x in (0.0, 2.0, 4.0, 6.0)
]


def _sector_case(model, d, n, x):
    if model == "effective":
        return build_effective_hamiltonian(ModelParams(j=1.0, u=1e3, gamma=x * 1e-3, d=d, n=n))
    return build_full_hamiltonian(ModelParams(j=1.0, u=10.0, gamma=x * 0.1, d=d, n_a=n[0], n_b=n[1]))


def _whole_operator_dense(op, shift=0.0, tol_deg=1e-9):
    """E0 and the window's ground vectors of the whole operator plus
    diag(shift).  eigh's vectors are accurate to about eps * |H| / gap, the
    gap to the next level of any symmetry sector (8.0e-5 at effective
    d = 10, N = 5, Jbar = 1, gammabar = 10, where that put the projector
    4.1e-11 off), so one step of inverse iteration at the window's width
    below E0, then QR, refines them (to 6e-14 there)."""
    a = op.to_csr().toarray()
    a[np.diag_indices(op.dim)] += shift
    evals, evecs = np.linalg.eigh(a)
    width = tol_deg * max(1.0, abs(evals[0]))
    sel = evals <= evals[0] + width
    a[np.diag_indices(op.dim)] -= evals[0] - width
    vectors, _ = np.linalg.qr(np.linalg.solve(a, evecs[:, sel]))
    return evals[0], vectors


@pytest.mark.parametrize("model", ["effective", "full"])
def test_sector_path_matches_whole_operator_dense_solve(model):
    # effective sizes d <= 10 and full models with odd N_A, N_B, d <= 6:
    # the K = 0 block, solved dense (default limit) or by real Lanczos
    # (limit 14, blocks of 14 states and more), gives the whole operator's
    # E0, degeneracy and ground projector, and a T-invariant ground vector
    for case in (c for c in SECTOR_CASES if c[0] == model):
        op = _sector_case(*case)
        energy, vectors = _whole_operator_dense(op)
        scale = max(1.0, abs(energy))
        for limit in (solve.DENSE_LIMIT, 14):
            with mock.patch.object(solve, "DENSE_LIMIT", limit):
                got = ground_space(op)
            assert got.path == "sector", case
            assert got.degeneracy == vectors.shape[1] == 1, case
            _translation_invariant(op, got)
            assert abs(got.energy - energy) < 1e-12 * scale, case
            want = vectors @ vectors.conj().T
            assert np.abs(_ground_projector(got) - want).max() < 1e-12 * scale, case
            assert got.residual < solve.RESIDUAL_TOL * scale


@pytest.mark.parametrize("model", ["effective", "full"])
def test_sector_path_solves_the_reflection_even_block(model):
    # every effective SECTOR_CASES entry and every full one (odd N_A, N_B):
    # dense and by real Lanczos (limit 14), the ground vector is invariant
    # under the site reflection R, and every level of the block solved is
    # a level of the whole operator
    for case in (c for c in SECTOR_CASES if c[0] == model):
        op = _sector_case(*case)
        whole = np.linalg.eigvalsh(op.to_csr().toarray())
        scale = max(1.0, abs(whole[0]))
        index = reflection(op.basis)
        for limit in (solve.DENSE_LIMIT, 14):
            with mock.patch.object(solve, "DENSE_LIMIT", limit):
                got = ground_space(op)
            assert got.path == "sector", case
            assert np.abs(got.vectors[index] - got.vectors).max() < 1e-12, case
            assert np.abs(got.levels[:, None] - whole).min(axis=1).max() < 1e-12 * scale, case


def _chiral_count(basis):
    """Occurrences of the site pattern 1101 (k, k+1 and k+3 occupied, k+2
    empty) around the ring, per pair state: translation invariant, but
    the reflection turns it into 1011.  (The three-site n_k n_{k+1}
    (1 - n_{k+2}) is no example: every run of two or more pairs has one
    110 end and one 011 end, so its ring sum is reflection invariant.)"""
    occ = occupations(basis.states, basis.d)
    pattern = occ * np.roll(occ, -1, axis=1) * (1 - np.roll(occ, -2, axis=1)) * np.roll(occ, -3, axis=1)
    return pattern.sum(axis=1).astype(float)


def _chiral_case(breaks):
    """(op, coupling): certified and translation invariant, but the chiral
    1101 count, in the operator or in the coupling, breaks R."""
    base = _sector_case("effective", 8, 3, 6.0)
    chiral = _chiral_count(base.basis)
    if breaks == "operator":
        return SparseOperator(base.basis, base.diagonal + 0.5e-3 * chiral, base.hopping), np.zeros(base.dim)
    return base, chiral


@pytest.mark.parametrize("breaks", ["operator", "coupling"])
def test_operators_that_break_the_reflection_solve_the_whole_zero_momentum_block(breaks):
    # the solver keeps every K = 0 orbit sum of T and matches the whole
    # operator's dense solve, whose ground vector is not R-invariant
    op, coupling = _chiral_case(breaks)
    orbits = group_projector(op.basis, False, False).shape[1]
    assert ground_space(_sector_case("effective", 8, 3, 6.0)).dims[0] < orbits
    index = reflection(op.basis)
    for gamma in (0.0, 0.7e-3):
        energy, vectors = _whole_operator_dense(op, gamma * coupling)
        if breaks == "operator" or gamma:
            assert np.abs(vectors[index] - vectors).max() > 1e-3
        for limit in (solve.DENSE_LIMIT, 14):
            with mock.patch.object(solve, "DENSE_LIMIT", limit):
                got = GroundSolver(op, coupling)(gamma)
            assert (got.path, got.dims, got.degeneracy) == ("sector", (orbits,), 1), (gamma, limit)
            assert abs(got.energy - energy) < 1e-12 * max(1.0, abs(energy))
            assert np.abs(_ground_projector(got) - vectors @ vectors.conj().T).max() < 1e-12


def _bracelets(basis):
    """Orbits of the pair masks under rotations and reflections, counted
    by a loop over the states."""
    d, canonical = basis.d, set()
    for mask in basis.states.tolist():
        bits = tuple(mask >> k & 1 for k in range(d))
        forms = [bits[s:] + bits[:s] for s in range(d)]
        canonical.add(min(forms + [f[::-1] for f in forms]))
    return len(canonical)


def _sector_sizes(basis):
    """States in each momentum sector K = 0..d-1, from the characters
    tr(T^m) of the signed translation."""
    d, dim = basis.d, basis.size
    traces = []
    for m in range(d):
        index, sign = translation(basis, m)
        traces.append(sign[index == np.arange(dim)].sum())
    phases = np.exp(-2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)
    return np.rint((phases @ np.array(traces)).real / d).astype(int)


def _even_size(basis):
    """Columns of the full model's K = 0 block even under the reflection R
    and the species swap S: the group oracle's count."""
    return group_projector(basis, True, True).shape[1]


def test_ground_space_reports_the_dimension_of_each_block_solved():
    # sector: one column per bracelet (280 at d = 16, N = 6, from 504
    # necklaces), and for the even-N full model the K = 0 states even
    # under R and S (16 at d = 6, N = 2, of the 39 of its signed K = 0
    # sector); whole: every state; banded: the whole chain
    for d, n in ((8, 3), (10, 4), (16, 6)):
        op = _sector_case("effective", d, n, 15.5)
        assert ground_space(op).dims == (_bracelets(op.basis),), (d, n)
    assert ground_space(_sector_case("effective", 16, 6, 15.5)).dims == (280,)

    op = build_full_hamiltonian(ModelParams(j=1.0, u=10.0, gamma=0.2, d=6, n=2))
    gs = ground_space(op)
    assert (gs.path, gs.dims) == ("sector", (_even_size(op.basis),)) == ("sector", (16,))
    assert _sector_sizes(op.basis)[0] == 39

    op = build_effective_hamiltonian(ModelParams(j=0.0, u=1e3, gamma=4e-3, d=6, n=3))
    assert (ground_space(op).path, ground_space(op).dims) == ("whole", (20,))

    chain = build_relative_chain("two_pair", ModelParams(j=1.0, u=3.0, gamma=3.0, d=10, n=2), cutoff=400)
    assert (ground_space(chain).path, ground_space(chain).dims) == ("banded", (400,))


def _with_site_potential(op):
    """The builder operator ``op`` plus a potential on site 0, which breaks T."""
    occ = (op.basis.states & 1).reshape(op.dim, -1).sum(axis=1)  # site 0, both species
    return SparseOperator(op.basis, op.diagonal + 0.3e-3 * occ, op.hopping)


UNCERTIFIED = {
    # no off-diagonal element: the graph is disconnected
    "J = 0": lambda: build_effective_hamiltonian(ModelParams(j=0.0, u=1e3, gamma=4e-3, d=6, n=3)),
    # even N per species with U < 2 gamma: T has signs -1, and V = U + gamma
    # (ring adjacency) is indefinite
    "even N": lambda: build_full_hamiltonian(ModelParams(j=1.0, u=2.0, gamma=1.5, d=4, n=2)),
    # hopping +Jbar: connected, T-invariant with signs +1, but not stoquastic
    "positive hopping": lambda: build_effective_from_bars(6, 2, -2e-3, 4e-3),
    "diagonal, not invariant": lambda: SparseOperator(pair_basis(6, 3), np.arange(20.0), 0.0),
    # stoquastic and connected, but [H, T] != 0
    "site potential": lambda: _with_site_potential(
        build_effective_hamiltonian(ModelParams(j=1.0, u=1e3, gamma=4e-3, d=6, n=3))),
}


def _assert_whole_path_matches_whole_operator(op, coupling=None, gamma=0.0, case=None):
    """The "whole" path gives the assembled matrix's E0, degeneracy and
    ground projector, solved as one block of every state."""
    c = np.zeros(op.dim) if coupling is None else coupling
    energy, vectors = _whole_operator_dense(op, gamma * c)
    scale = max(1.0, abs(energy))
    got = GroundSolver(op, coupling)(gamma)
    assert (got.path, got.dims) == ("whole", (op.dim,)), case
    assert got.degeneracy == vectors.shape[1], case
    assert abs(got.energy - energy) < 1e-12 * scale, case
    assert np.abs(_ground_projector(got) - vectors @ vectors.conj().T).max() < 1e-12 * scale, case
    assert got.residual < solve.RESIDUAL_TOL * scale


@pytest.mark.parametrize("name", sorted(UNCERTIFIED))
def test_uncertified_operators_solve_the_whole_operator(name):
    # no certificate covers them, so each is solved as one block of every
    # state, and no sector block is built; the even-N full model has the
    # Lieb form, certified at a gamma with U > 2 gamma, so its solver keeps
    # the K = 0 block and this call solves the whole operator
    op = UNCERTIFIED[name]()
    if name == "even N":
        assert GroundSolver(op).path == "sector"
        _assert_whole_path_matches_whole_operator(op, case=name)
        return
    with mock.patch.object(fock._SectorTables, "hop_block", side_effect=AssertionError("block built")):
        assert GroundSolver(op).path == "whole"
        _assert_whole_path_matches_whole_operator(op, case=name)


EVEN_N_CASES = [
    (d, n_a, n_b, x)
    for d in range(3, 7)
    for n_a in range(1, d)
    for n_b in range(1, d)
    if n_a % 2 == 0 or n_b % 2 == 0
    for x in (0.0, 4.0, 60.0)
]


def test_even_n_full_models_solve_one_block():
    # N_A = N_B even at U = 10 > 2 gamma (x = 0, 4): spin-reflection
    # positivity certifies the signed K = 0 block even under R and S,
    # whose ground vector is the whole operator's; at x = 60
    # (2 gamma = 12 > U), and whenever N_A != N_B, no certificate holds
    # and the whole operator is solved.
    # Every case is solved as a sweep solves it, H(0) plus gamma times the
    # coupling, and gives the assembled matrix's ground space
    for d, n_a, n_b, x in EVEN_N_CASES:
        case = (d, n_a, n_b, x)
        op = build_full_hamiltonian(ModelParams(j=1.0, u=10.0, gamma=x * 0.1, d=d, n_a=n_a, n_b=n_b))
        base = build_full_hamiltonian(ModelParams(j=1.0, u=10.0, gamma=0.0, d=d, n_a=n_a, n_b=n_b))
        coupling = gamma_coupling(base.basis)
        if n_a != n_b or x == 60.0:
            _assert_whole_path_matches_whole_operator(base, coupling, x * 0.1, case=case)
            continue
        energy, vectors = _whole_operator_dense(op)
        got = GroundSolver(base, coupling)(x * 0.1)
        assert (got.path, got.dims, got.degeneracy) == ("sector", (_even_size(op.basis),), 1), case
        assert abs(got.energy - energy) < 1e-12 * abs(energy), case
        assert np.abs(_ground_projector(got) - vectors @ vectors.conj().T).max() < 1e-12 * abs(energy), case
        _translation_invariant(op, got)


def test_momentum_blocks_hold_the_whole_spectrum():
    # every effective size with d <= 10 and every full size with d <= 6:
    # the d blocks P_K^H H P_K of the oracle's momentum projectors, from
    # the library's signed translation, together have the spectrum of H
    ops = [build_effective_hamiltonian(ModelParams(j=1.0, u=1e3, gamma=4e-3, d=d, n=n))
           for d in range(2, 11) for n in range(0, d + 1)]
    ops += [build_full_hamiltonian(ModelParams(j=1.0, u=10.0, gamma=0.4, d=d, n_a=n_a, n_b=n_b))
            for d in range(2, 7) for n_a in range(0, d + 1) for n_b in range(0, d + 1)]
    for op in ops:
        h, d = op.to_csr(), op.basis.d
        levels = []
        for k in range(d):
            proj = momentum_projector(op.basis, k)
            levels.append(np.linalg.eigvalsh((proj.conj().T @ h @ proj).toarray()))
        want = np.linalg.eigvalsh(op.to_csr().toarray())
        scale = max(1.0, np.abs(want).max())
        assert np.abs(np.sort(np.concatenate(levels)) - want).max() < 1e-12 * scale, op.basis


def test_every_block_equals_the_projected_operator():
    # effective d <= 10 and full d <= 6 at every filling, with the gamma
    # coupling, and both reflection-breaking cases:
    # the block the solver keeps, plus diag(D[reps]), is P^T h P, and
    # diag(c[reps]) is P^T diag(c) P;
    # and the oracle reads off every sector's unit hop what the solver
    # takes from its construction: real, exactly symmetric, invariant
    # under T and R (and under S with N_A = N_B), connected, and every
    # entry > 0 when T is sign-free
    cases = [(op, gamma_coupling(op.basis)) for op in
             [build_effective_hamiltonian(ModelParams(j=1.0, u=1e3, gamma=4e-3, d=d, n=n))
              for d in range(2, 11) for n in range(0, d + 1)]
             + [build_full_hamiltonian(ModelParams(j=1.0, u=10.0, gamma=0.4, d=d, n_a=n_a, n_b=n_b))
                for d in range(2, 7) for n_a in range(0, d + 1) for n_b in range(0, d + 1)]]
    cases += [_chiral_case(breaks) for breaks in ("operator", "coupling")]
    paths = Counter()
    for op, coupling in cases:
        hop = facts(op.basis.hop(), op.basis)
        assert hop.real and hop.symmetric and hop.translation and hop.reflection and hop.connected, op.basis
        assert hop.swap == (isinstance(op.basis, fock.FullBasis) and op.basis.n_a == op.basis.n_b), op.basis
        assert hop.positive or not hop.sign_free, op.basis
        solver = GroundSolver(op, coupling)
        paths[solver.path] += 1
        if solver._block is None:
            continue
        proj, block, reps, _ = solver._block
        h = op.to_csr()
        want = (proj.T @ h @ proj).toarray()
        got = block.toarray() + np.diag(op.diagonal[reps])
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, abs(h).max()), op.basis
        want = (proj.T @ sp.diags(coupling) @ proj).toarray()
        assert np.abs(np.diag(coupling[reps]) - want).max() <= 1e-12 * max(1.0, np.abs(coupling).max()), op.basis
    assert set(paths) == {"sector", "whole"} and paths["sector"] > 100


@pytest.mark.parametrize("model, d", [("full", d) for d in range(2, 7)] + [("effective", d) for d in range(2, 11)])
def test_momenta_blocks_are_real_and_hold_the_complex_blocks_levels(model, d):
    # full models at every (N_A, N_B) and the effective model with
    # Jbar = +-1 at every N: the one block a solver keeps, inside K = 0,
    # is float64 and exactly symmetric; its levels are those of h
    # projected onto the group oracle's isometry of the same generators,
    # some of the levels of the complex P_0^H h P_0 of the oracle's
    # momentum projector, and all of them on a block with neither R nor
    # S; and its eigenvectors lifted with its P are T-invariant.
    # Jbar = -1 and N_A != N_B with an even count keep no block
    if model == "full":
        ops = [build_full_hamiltonian(ModelParams(j=1.0, u=10.0, gamma=0.4, d=d, n_a=n_a, n_b=n_b))
               for n_a in range(d + 1) for n_b in range(d + 1)]
    else:
        ops = [build_effective_from_bars(d, n, jbar, 0.7) for n in range(d + 1) for jbar in (1.0, -1.0)]
    solvers = [GroundSolver(op) for op in ops]
    assert any(s._block is not None for s in solvers)
    for solver in (s for s in solvers if s._block is not None):
        op, (proj, block, reps, _) = solver._op, solver._block
        h, (index, sign) = op.to_csr(), translation(op.basis, 1)
        case = op.basis
        assert block.dtype == np.float64 and (block != block.T).nnz == 0, case
        complex_proj = momentum_projector(op.basis, 0)
        want = np.linalg.eigvalsh((complex_proj.conj().T @ h @ complex_proj).toarray())
        evals, vecs = np.linalg.eigh(block.toarray() + np.diag(op.diagonal[reps]))
        scale = max(1.0, np.abs(want).max())
        key = next(key for key in generator_keys(op.basis) if op.basis.hop_block(*key)[0] is proj)
        group = group_projector(op.basis, *key)
        assert np.abs(evals - np.linalg.eigvalsh((group.T @ h @ group).toarray())).max() <= 1e-12 * scale, case
        assert np.abs(evals[:, None] - want).min(axis=1).max() <= 1e-12 * scale, case
        if key == (False, False):
            assert np.abs(evals - want).max() <= 1e-12 * scale, case
        lifted = proj @ vecs
        moved = np.zeros_like(lifted)
        moved[index] = sign[:, None] * lifted
        assert np.abs(moved - lifted).max() < 1e-12, case


def _builder_cases():
    """Builder operators diag(D) - t * hop: effective d <= 10 at every N and
    full d <= 6 with odd and even N, each with J > 0 and J = 0 at gamma = 0
    and gamma > 0, one with t < 0, then one whose D breaks R and one whose
    D breaks T."""
    for j in (1.0, 0.0):
        for x in (0.0, 6.0):
            yield from (build_effective_hamiltonian(ModelParams(j=j, u=1e3, gamma=x * 1e-3, d=d, n=n))
                        for d in range(2, 11) for n in range(0, d + 1))
            yield from (build_full_hamiltonian(ModelParams(j=j, u=10.0, gamma=x * 0.1, d=d, n=n))
                        for d in range(2, 7) for n in (1, 2, 3) if n <= d)
    yield UNCERTIFIED["positive hopping"]()
    base = _sector_case("effective", 8, 3, 6.0)
    yield SparseOperator(base.basis, base.diagonal + 0.5e-3 * _chiral_count(base.basis), base.hopping)
    site = (base.basis.states & 1).astype(float)
    yield SparseOperator(base.basis, base.diagonal + 0.3e-3 * site, base.hopping)


def test_builder_parts_solve_like_their_assembled_matrix():
    # the solver certifies a builder operator from its own D and t and the
    # signs of T; the oracle reads the facts off its assembled CSR matrix.
    # The solver takes "sector" iff Perron-Frobenius certifies the matrix
    # or it is a full model with N_A = N_B and J > 0 (spin-reflection
    # positivity: U = 10 > 2 gamma here), and "whole" otherwise; a
    # "sector" block is even under R iff R fixes the matrix and the
    # coupling, and under S iff S does; its block is that matrix
    # projected, and its ground space is the whole matrix's
    paths, solvers = Counter(), []
    for op in _builder_cases():
        h = op.to_csr()
        case = (op.basis, op.hopping)
        fact = facts(h, op.basis)
        coupling = gamma_coupling(op.basis)
        parts = GroundSolver(op, coupling)
        paths[parts.path] += 1
        solvers.append(parts)
        lieb = isinstance(op.basis, fock.FullBasis) and op.hopping > 0
        assert (parts.path == "sector") == (fact.perron or lieb), case
        reflect = fact.reflection and np.array_equal(coupling[reflection(op.basis)], coupling)
        swap = fact.swap and np.array_equal(coupling[op.basis.swap_index()], coupling)
        if parts.path == "whole":
            assert parts._block is None and parts.dims == (op.dim,), case
        else:
            proj, block, reps, _ = parts._block
            assert proj is op.basis.hop_block(reflect, swap)[0], case
            assert _eigensolver(parts) is (solve._dense if reps.size < solve.DENSE_LIMIT else solve._arpack), case
            got = block.toarray() + np.diag(op.diagonal[reps])
            want = (proj.T @ h @ proj).toarray()
            assert np.abs(got - want).max() <= 1e-14 * max(1.0, abs(h).max()), case
        for gamma in (0.0, 3e-3):
            got = parts(gamma)
            energy, vectors = _whole_operator_dense(op, gamma * coupling)
            assert abs(got.energy - energy) <= 1e-12 * max(1.0, abs(energy)), (case, gamma)
            assert np.abs(_ground_projector(got) - vectors @ vectors.conj().T).max() < 1e-10, (case, gamma)
    # the last two cases: D that breaks R keeps the whole K = 0 block, D
    # that breaks T is solved whole
    breaks_r, breaks_t = solvers[-2:]
    assert (breaks_r.path, breaks_r.dims) == ("sector", (group_projector(breaks_r.basis, False, False).shape[1],))
    assert breaks_t.path == "whole"
    assert paths["sector"] > 100 and paths["whole"] > 100


def test_ground_space_reports_real_banded_levels_and_residual():
    # a real chain of 50 sites: the LEVELS lowest levels, and the residual
    # computed exactly as h @ v - E0 v
    op = build_relative_chain("two_pair", ModelParams(j=1.0, u=2.0, gamma=3.0, d=10, n=2), cutoff=50)
    gs = ground_space(op)
    assert gs.path == "banded" and not np.iscomplexobj(op.to_csr())
    assert len(gs.levels) == solve.LEVELS
    want = np.linalg.eigvalsh(op.to_csr().toarray())[: solve.LEVELS]
    assert np.abs(gs.levels - want).max() < 1e-12
    h = op.to_csr()
    assert gs.residual == np.linalg.norm(h @ gs.vectors - gs.vectors * gs.energy, axis=0).max()


@pytest.mark.parametrize("n", [511, 512])
def test_small_dense_eigensolves_run_on_one_blas_thread(n, monkeypatch):
    # scipy's OpenBLAS count inside eigh of an n-state dense solve and
    # inside eigsh of an n-state ARPACK solve: one thread at any size, on
    # either side of the 512 states where a former rule let dense solves
    # have the library's count, and restored after each
    set_threads = solve._blas_thread_setter()
    if set_threads is None:
        pytest.skip("scipy.linalg does not run on OpenBLAS 0.3.27 or newer")

    def count():  # set_threads(k) returns the count it replaces
        replaced = set_threads(1)
        set_threads(replaced)
        return replaced

    before = count()
    seen = []
    eigh, eigsh = solve.la.eigh, solve.spla.eigsh
    monkeypatch.setattr(solve.la, "eigh", lambda a, **kw: (seen.append(count()), eigh(a, **kw))[1])
    monkeypatch.setattr(solve.spla, "eigsh", lambda a, **kw: (seen.append(count()), eigsh(a, **kw))[1])
    block, diagonal = sp.csr_matrix(-np.eye(n, k=1) - np.eye(n, k=-1)), np.arange(n, dtype=float)
    want = np.linalg.eigvalsh(block.toarray() + np.diag(diagonal))[: solve.LEVELS]
    evals, _ = solve._dense(block, diagonal, solve.LEVELS)
    assert seen == [1]
    assert count() == before
    assert np.abs(evals - want).max() < 1e-12
    evals, _ = solve._arpack(block, diagonal, solve.LEVELS, _uniform(n))
    assert seen[1:] == [1]
    assert count() == before
    assert np.abs(evals - want).max() < 1e-10


def test_each_eigensolver_widens_to_every_level_when_the_window_holds_them():
    # the LEVELS lowest levels of a block, or all of them when the
    # degeneracy window holds every level returned, on each eigensolver:
    # a 20-site chain of zeros ("banded"), and the effective d = 10, N = 4
    # model at J = 0 (a zero operator, "whole") on "dense"
    gs = ground_space(_chain(np.zeros(20)))
    assert (gs.path, gs.degeneracy, gs.levels.size) == ("banded", 20, 20)
    op = build_effective_hamiltonian(ModelParams(j=0.0, u=1e3, gamma=0.0, d=10, n=4))
    counts = []
    dense = solve._dense
    with mock.patch.object(solve, "_dense", lambda b, d, count: (counts.append((b.shape[0], count)), dense(b, d, count))[1]):
        gs = ground_space(op)
    assert (gs.path, gs.degeneracy, gs.levels.size) == ("whole", 210, 210)
    assert counts == [(210, solve.LEVELS), (210, 210)]


def test_the_whole_path_refines_its_vectors_at_any_window_width():
    # a diagonal operator solved whole at tol_deg = 1e-300, whose window
    # width rounds away against E0 = -1: the inverse step still shifts
    # strictly below E0, and the ground space is the 16 states with no bond
    basis = pair_basis(8, 3)
    op = SparseOperator(basis, basis.bonds() - 1.0, 0.0)
    gs = ground_space(op, tol_deg=1e-300)
    zero_bond = np.flatnonzero(basis.bonds() == 0)
    assert (gs.path, gs.energy, gs.degeneracy) == ("whole", -1.0, zero_bond.size) == ("whole", -1.0, 16)
    assert np.abs(np.linalg.norm(gs.vectors[zero_bond], axis=0) - 1).max() < 1e-15


def _uniform(n):
    return np.full(n, 1.0 / math.sqrt(n))


def test_arpack_cannot_widen_to_every_level():
    # ARPACK (real eigsh) computes fewer than n pairs, so a block whose
    # window holds every Ritz value fails: a 20-state zero block, on which
    # ARPACK's own iteration fails, and a constant diagonal (ARPACK
    # converges, and the window holds all of its levels); and the
    # certified 16-state block of effective d = 10, N = 4 at tol_deg = 1,
    # on real Lanczos at DENSE_LIMIT = 14, whose window holds its LEVELS
    # lowest levels
    zero = sp.csr_matrix((20, 20))
    with pytest.raises(solve.ConvergenceError, match="ARPACK failed"):
        solve._arpack(zero, np.zeros(20), solve.LEVELS, _uniform(20))
    with pytest.raises(solve.ConvergenceError, match="degenerate window exceeds the computed spectrum"):
        solve._arpack(zero, np.full(20, -1.0), 20, _uniform(20))
    op = build_effective_hamiltonian(ModelParams(j=1.0, u=1e3, gamma=0.0, d=10, n=4))
    with mock.patch.object(solve, "DENSE_LIMIT", 14):
        solver = GroundSolver(op, tol_deg=1.0)
    assert (solver.dims, _eigensolver(solver)) == ((16,), solve._arpack)
    with pytest.raises(solve.ConvergenceError, match="degenerate window exceeds the computed spectrum"):
        solver()


def test_real_arpack_returns_no_fewer_copies_of_an_in_block_degeneracy_than_complex():
    # a 30-state diagonal block with 13 levels at -1 below 0..16: ARPACK
    # with 12 Ritz values misses copies of the degenerate level, and real
    # eigsh misses no more than complex eigsh from the same start vector
    # (nine copies each).  Lanczos runs only on certified blocks, whose
    # ground level is unique
    diagonal = np.concatenate([np.full(13, -1.0), np.arange(17.0)])
    v0 = _uniform(30)
    evals, _ = solve._arpack(sp.csr_matrix((30, 30)), diagonal, 12, v0)
    complex_evals = spla.eigsh(sp.diags(diagonal).astype(complex), k=12, which="SA",
                               v0=v0, tol=0, return_eigenvectors=False)
    copies = np.sum(np.abs(evals + 1.0) < 1e-12)
    assert copies >= np.sum(np.abs(complex_evals + 1.0) < 1e-12) == 9


def test_real_lanczos_cannot_widen_to_every_level():
    # real eigsh computes fewer than n pairs: n - 1 of a 20-state block,
    # but not all 20; and a certified block whose window holds its LEVELS
    # lowest levels (Jbar = 1e-13 against the window 1e-9) is refused on
    # the sector path, where a dense block would have widened
    evals, _ = solve._arpack(sp.csr_matrix((20, 20)), np.arange(20.0), 19, _uniform(20))
    assert np.abs(evals - np.arange(19.0)).max() < 1e-12
    with pytest.raises(solve.ConvergenceError, match="degenerate window exceeds the computed spectrum"):
        solve._arpack(sp.csr_matrix((20, 20)), np.arange(20.0), 20, _uniform(20))
    op = build_effective_from_bars(10, 4, 1e-13, 0.0)
    gs = ground_space(op)
    assert (gs.path, gs.dims, gs.degeneracy) == ("sector", (16,), 16)
    with mock.patch.object(solve, "DENSE_LIMIT", 14):
        with pytest.raises(solve.ConvergenceError, match="degenerate window exceeds the computed spectrum"):
            ground_space(op)


def test_each_block_keeps_the_eigensolver_chosen_at_construction():
    # DENSE_LIMIT is read once, when the solver is built: a solver built at
    # DENSE_LIMIT = 14 solves its block by real Lanczos (ARPACK) after the
    # limit moves back
    op = build_effective_hamiltonian(ModelParams(j=1.0, u=1e3, gamma=4e-3, d=10, n=4))
    with mock.patch.object(solve, "DENSE_LIMIT", 14):
        solver = GroundSolver(op)
    assert _eigensolver(solver) is solve._arpack
    assert _eigensolver(GroundSolver(op)) is solve._dense
    with mock.patch.object(solve.spla, "eigsh", side_effect=AssertionError("ARPACK")):
        with pytest.raises(AssertionError, match="ARPACK"):
            solver()


@pytest.mark.parametrize("model, d, n", [("effective", 16, 6), ("effective", 19, 5), ("effective", 16, 7),
                                         ("effective", 17, 6), ("full", 9, (3, 3)), ("effective", 20, 5)])
def test_sector_blocks_take_real_lanczos_from_the_measured_limit(model, d, n):
    # the 280- and 324-state blocks stay dense; the 375- to 406-state
    # blocks, just above DENSE_LIMIT, are solved by real Lanczos, whose
    # LEVELS lowest levels and ground vector equal _dense's to 1e-12; a
    # pair block starts from the uniform vector
    base = _sector_case(model, d, n, 0.0)
    solver = GroundSolver(base, gamma_coupling(base.basis))
    _, block, reps, eigensolver = solver._block
    dense = reps.size < solve.DENSE_LIMIT
    assert reps.size < 1.2 * solve.DENSE_LIMIT
    assert _eigensolver(solver) is (solve._dense if dense else solve._arpack)
    assert (reps.size == 280) == ((d, n) == (16, 6))
    if dense:
        return
    if model == "effective":
        assert np.array_equal(eigensolver.keywords["start"], _uniform(reps.size))
    for x in (1.0, 6.0, 18.125):
        diagonal = (base.diagonal + x * (1e-3 if model == "effective" else 0.1) * solver._coupling)[reps]
        want, want_vecs = solve._dense(block, diagonal, solve.LEVELS)
        got, got_vecs = eigensolver(block, diagonal, solve.LEVELS)
        scale = max(1.0, abs(want[0]))
        assert np.abs(got - want).max() <= 1e-12 * scale, x
        assert np.abs(np.abs(got_vecs[:, 0]) - np.abs(want_vecs[:, 0])).max() <= 1e-12, x


def test_a_dense_sector_call_allocates_no_square_array():
    # the 280-state block of effective (16, 6) keeps its dense copy and one
    # work buffer, so a call copies, adds the diagonal and runs eigh in
    # place: its traced peak is LAPACK's workspace and eigh's finite check,
    # well below one n x n array (a fresh copy and eigh's own would be two)
    base = _sector_case("effective", 16, 6, 0.0)
    solver = GroundSolver(base, gamma_coupling(base.basis))
    _, block, reps, eigensolver = solver._block
    assert reps.size == 280 and _eigensolver(solver) is solve._dense
    diagonal = (base.diagonal + 10.5e-3 * solver._coupling)[reps]
    want = eigensolver(block, diagonal, solve.LEVELS)
    tracemalloc.start()
    try:
        got = eigensolver(block, diagonal, solve.LEVELS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < reps.size**2 * 8 / 4, peak
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(eigensolver.keywords["dense"], block.toarray())


def _translation_invariant(op, gs):
    """Each ground vector is invariant under the signed one-site
    translation: it lies at K = 0."""
    index, sign = translation(op.basis, 1)
    moved = np.zeros_like(gs.vectors)
    moved[index] = sign[:, None] * gs.vectors
    assert np.abs(moved - gs.vectors).max() < 1e-12


class _Drawn:
    """Stands in for ``st.data()`` in an ``@example``: ``draw`` returns the
    given values in order."""

    def __init__(self, *values):
        self._values = iter(values)

    def draw(self, strategy):
        return next(self._values)


@settings(max_examples=60, deadline=None)
@given(st.data())
# whose whole-operator eigh vector was once 4.12e-11 off, above the bound
@example(data=_Drawn("effective", 10, 5, 1.0, 10.0, solve.DENSE_LIMIT))
# path "whole", whose unrefined eigh vectors put the projector 1.25e-10 off
# against the bound 4.8e-11 (the gap to the next level is 3.8e-5)
@example(data=_Drawn("effective", 10, 5, -1.0, 12.0, solve.DENSE_LIMIT))
def test_few_levels_per_block_give_the_whole_operators_ground_space(data):
    # LEVELS = 4 on small operators of every path, against a full eigh of
    # the assembled matrix: energy, degeneracy and ground projector, and
    # a K = 0 ground space on "sector".  Sector blocks of 14 states and
    # more run on real Lanczos at limit 14; "planted" is t = 0 with
    # D = a * bonds, solved whole, whose ground level fills more than
    # LEVELS states when a = 0, and a chain at t = 0 plants the minimum of
    # its diagonal as often as drawn: both must widen
    kind = data.draw(st.sampled_from(["effective", "full", "planted", "chain"]))
    limit = solve.DENSE_LIMIT
    if kind == "effective":
        d = data.draw(st.integers(2, 10))
        n = data.draw(st.integers(0, d))
        jbar = data.draw(st.sampled_from([1.0, -1.0]))  # -1: not stoquastic, "whole"
        op = build_effective_from_bars(d, n, jbar, data.draw(st.floats(-2.0, 20.0)))
        limit = data.draw(st.sampled_from([limit, 14]))
    elif kind == "full":
        d = data.draw(st.integers(2, 6))
        n_a, n_b = data.draw(st.integers(1, d - 1)), data.draw(st.integers(1, d - 1))
        x = data.draw(st.floats(0.0, 20.0))
        op = build_full_hamiltonian(ModelParams(j=1.0, u=10.0, gamma=x * 0.1, d=d, n_a=n_a, n_b=n_b))
        limit = data.draw(st.sampled_from([limit, 14]))
    elif kind == "planted":
        d, n = data.draw(st.sampled_from([(8, 3), (8, 4), (9, 3), (10, 3), (10, 4)]))
        a = data.draw(st.sampled_from([0.0, 1.0, 2.5]))
        basis = pair_basis(d, n)
        op = SparseOperator(basis, a * basis.bonds() - 1.0, 0.0)
    else:
        diagonal = data.draw(st.lists(st.integers(-1, 3), min_size=2, max_size=30))
        op = SparseOperator(ChainBasis("test", tuple(range(len(diagonal))), 1.0), np.array(diagonal, float),
                            data.draw(st.sampled_from([0.0, 0.5, 1.0])))
    with mock.patch.object(solve, "DENSE_LIMIT", limit):
        got = ground_space(op)
    energy, vectors = _whole_operator_dense(op)
    scale = max(1.0, abs(energy))
    assert abs(got.energy - energy) < 1e-12 * scale
    assert got.degeneracy == vectors.shape[1]
    assert np.abs(_ground_projector(got) - vectors @ vectors.conj().T).max() < 1e-12 * scale
    assert got.vectors.dtype == got.state.amplitudes.dtype == np.float64  # every operator here is real
    if kind == "planted":
        assert got.path == "whole"
    if got.path == "sector":
        _translation_invariant(op, got)
    if (kind == "planted" and a == 0.0) or (kind == "chain" and op.hopping == 0.0 and got.degeneracy > 4):
        assert got.degeneracy > solve.LEVELS


GRID_X = (0.0, 1.5, 4.0, 9.0, 20.0, 60.0)  # gamma*U/J^2, through the isotropic point 4
GRID_CASES = [("effective", d, n) for d in range(2, 11) for n in range(0, d + 1)] + [
    ("full", d, (n_a, n_b)) for d in range(2, 7) for n_a in range(1, d) for n_b in range(1, d)
]


@pytest.mark.parametrize("model, limit", [("effective", 2000), ("effective", 14), ("full", 2000)])
def test_ground_solver_matches_a_fresh_solve_at_every_grid_point(model, limit, monkeypatch):
    # one solver from H(0) and c, called at each gamma, against ground_space
    # of the operator built at that gamma: effective d <= 10 and every N
    # (every block dense at limit 2000, blocks of 14 states and more on
    # real Lanczos at limit 14), full d <= 6 with odd and even N_A, N_B
    # (Perron and Lieb "sector" blocks, and "whole" for N_A != N_B with an
    # even count and for U = 10 < 2 gamma at x = 60)
    monkeypatch.setattr(solve, "DENSE_LIMIT", limit)
    for _, d, n in (c for c in GRID_CASES if c[0] == model):
        base = _sector_case(model, d, n, 0.0)
        solver = GroundSolver(base, gamma_coupling(base.basis))
        for x in GRID_X:
            case = (model, d, n, x, limit)
            want = ground_space(_sector_case(model, d, n, x))
            got = solver(x * (1e-3 if model == "effective" else 0.1))
            scale = max(1.0, abs(want.energy))
            assert got.degeneracy == want.degeneracy, case
            assert got.path == want.path, case
            assert abs(got.energy - want.energy) < 1e-12 * scale, case
            diff = np.abs(_ground_projector(got) - _ground_projector(want)).max()
            assert diff < 1e-12 * scale, case


def test_ground_solver_rejects_a_coupling_of_another_size():
    op = build_effective_hamiltonian(ModelParams(j=1.0, u=1e3, gamma=0.0, d=6, n=2))
    with pytest.raises(ValueError, match="coupling shape"):
        GroundSolver(op, np.zeros(op.dim + 1))


def test_a_coupling_that_breaks_the_translation_is_solved_whole():
    # H(0) commutes with T, the coupling (a site potential) does not: no
    # certificate covers the family, so every point is solved whole and no
    # block is built
    op = build_effective_hamiltonian(ModelParams(j=1.0, u=1e3, gamma=4e-3, d=6, n=3))
    site = (op.basis.states & 1).astype(float)
    with mock.patch.object(fock._SectorTables, "hop_block", side_effect=AssertionError("block built")):
        for gamma in (0.0, 0.7e-3):
            _assert_whole_path_matches_whole_operator(op, site, gamma, case=gamma)
    assert GroundSolver(op, gamma_coupling(op.basis)).path == "sector"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_effective_ground_state_is_positive(data):
    # Perron-Frobenius: every off-diagonal element is -Jbar < 0 and the
    # graph is connected, so the phase-fixed ground state is positive
    d = data.draw(st.integers(2, 10))
    n = data.draw(st.integers(1, d - 1))
    x = data.draw(st.floats(0.0, 20.0))
    op = build_effective_hamiltonian(ModelParams(j=1.0, u=1e3, gamma=x * 1e-3, d=d, n=n))
    for limit in (solve.DENSE_LIMIT, 14):
        with mock.patch.object(solve, "DENSE_LIMIT", limit):
            amp = ground_space(op).state.amplitudes
        assert amp.real.min() >= -1e-14
        assert np.abs(amp.imag).max() <= 1e-14


@pytest.mark.parametrize("kind, r", [("two_fermion", 0), ("two_fermion", 1), ("two_pair", 0)])
def test_chain_diagonals_equal_elementwise_reads(kind, r):
    # chain_bound_amplitudes reads the chain from its parts: D, and the
    # off-diagonals -t * phase below and its conjugate above; the same
    # values, bit for bit, as the assembled matrix's elements
    p = ModelParams(j=1.0, u=3.0, gamma=3.0, d=10, n=2)
    chain = build_relative_chain(kind, p, r=r, cutoff=400)  # 801 or 400 sites
    csr, n = chain.to_csr(), chain.dim
    lower = -chain.hopping * chain.basis.phase
    assert np.array_equal(chain.diagonal, csr.diagonal())
    assert np.array_equal(np.full(n - 1, lower), [csr[i + 1, i] for i in range(n - 1)])
    assert np.array_equal(np.full(n - 1, lower.conjugate()), [csr[i, i + 1] for i in range(n - 1)])


CHAIN_CASES = [(kind, r, cutoff) for kind in ("two_fermion", "two_pair") for r in (0, 3) for cutoff in (3, 5, 400)]


@pytest.mark.parametrize("kind, r, cutoff", CHAIN_CASES)
def test_relative_chains_take_the_banded_path(kind, r, cutoff):
    # real (r = 0) and complex (r != 0) tridiagonal chains: the levels and
    # the ground projector of dense eigh, also with a diagonal gamma term.
    # The solver takes the band from the construction: the unit hop has
    # entries on the first off-diagonals only, and is Hermitian
    p = ModelParams(j=1.0, u=3.0, gamma=3.0, d=10, n=2)
    chain = build_relative_chain(kind, p, r=r, cutoff=cutoff)
    hop = chain.basis.hop().tocoo()
    assert hop.nnz == 2 * (chain.dim - 1) and np.all(np.abs(hop.row - hop.col) == 1)
    assert abs(hop - hop.conj().T).max() == 0
    site = np.arange(chain.dim) % 3 == 0
    for gamma in (0.0, 0.7):
        got = GroundSolver(chain, site)(gamma)
        evals, evecs = np.linalg.eigh(chain.to_csr().toarray() + gamma * np.diag(site))
        scale = max(1.0, abs(evals[0]))
        assert (got.path, got.dims, got.degeneracy) == ("banded", (chain.dim,), 1)
        assert got.vectors.dtype == (np.complex128 if r else np.float64)
        assert np.abs(got.levels - evals[: got.levels.size]).max() < 1e-12 * scale
        assert got.levels.size == min(solve.LEVELS, chain.dim)
        want = np.outer(evecs[:, 0], evecs[:, 0].conj())
        assert np.abs(_ground_projector(got) - want).max() < 1e-12 * scale
        assert got.residual < solve.RESIDUAL_TOL * scale


def test_banded_path_past_the_dense_limit_and_on_tiny_chains():
    # 2401 sites, above DENSE_LIMIT: banded, not ARPACK, and the bound
    # state of the infinite line (its tail 2^-1200 underflows)
    chain = build_relative_chain("two_fermion", ModelParams(j=1.0, u=3.0, gamma=0.0, d=10, n=1), cutoff=1200)
    gs = ground_space(chain)
    assert (gs.path, gs.dims) == ("banded", (2401,))
    assert abs(gs.energy - analytic_two_fermion(1.0, 3.0).energy) < 1e-12 * 5.0
    assert np.isfinite(gs.vectors).all() and gs.residual < solve.RESIDUAL_TOL * 5.0
    # one state; two states with a complex hop; two degenerate states, each
    # built from its parts D, t and phase
    for matrix, parts, energy, degeneracy in (([[2.0]], ([2.0], 0.0, 1.0), 2.0, 1),
                                              ([[1.0, 1j], [-1j, 1.0]], ([1.0, 1.0], 1.0, 1j), 0.0, 1),
                                              ([[1.0, 0.0], [0.0, 1.0]], ([1.0, 1.0], 0.0, 1.0), 1.0, 2)):
        diagonal, hopping, phase = parts
        op = SparseOperator(ChainBasis("test", tuple(range(len(matrix))), phase), diagonal, hopping)
        assert np.array_equal(op.to_csr().toarray(), matrix)
        gs = ground_space(op)
        assert (gs.path, gs.degeneracy) == ("banded", degeneracy)
        assert abs(gs.energy - energy) < 1e-14
        assert np.array_equal(gs.levels, np.linalg.eigvalsh(matrix))


def test_banded_solves_the_2401_site_chain_at_every_count():
    # why _banded stays on stemr: on this chain scipy's stebz/stein driver
    # returns NaN vectors at counts 2, 5, 9, 12 and 13 (and 10 more up to
    # 40) but finite ones at 4 = LEVELS (scipy 1.17.1, OpenBLAS 0.3.30), so
    # the LEVELS solve above alone would not catch a switch to it
    chain = build_relative_chain("two_fermion", ModelParams(j=1.0, u=3.0, gamma=0.0, d=10, n=1), cutoff=1200)
    band = solve._band(chain)
    for count in range(1, 14):
        evals, vecs = solve._banded(band, chain.diagonal, count)
        assert evals.shape == (count,) and np.isfinite(vecs).all(), count
        residual = np.linalg.norm(chain.apply(vecs) - vecs * evals, axis=0).max()
        assert residual < solve.RESIDUAL_TOL * max(1.0, abs(evals[0])), count


def test_banded_path_refuses_chains_past_its_capacity(monkeypatch):
    # stemr allocates an n x n float64 Z: n^2 is held to MAX_BASIS_STATES
    # (n <= 4096, 128 MB), and a 50000-site chain (18.6 GiB) is refused
    # before anything is solved; the 2401-site chain above still solves
    monkeypatch.setattr(solve.la, "eigh_tridiagonal", mock.Mock(side_effect=AssertionError("solved")))
    p = ModelParams(j=1.0, u=3.0, gamma=3.0, d=10, n=2)
    assert GroundSolver(build_relative_chain("two_pair", p, cutoff=4096)).dims == (4096,)
    for cutoff in (4097, 50000):
        with pytest.raises(fock.CapacityError, match=f"chain of {cutoff} sites"):
            GroundSolver(build_relative_chain("two_pair", p, cutoff=cutoff))


def test_a_nan_ground_vector_fails_the_residual_check(monkeypatch):
    chain = build_relative_chain("two_pair", ModelParams(j=1.0, u=2.0, gamma=3.0, d=10, n=2), cutoff=50)
    tridiagonal = solve.la.eigh_tridiagonal
    nan_vectors = np.full((50, solve.LEVELS), np.nan)
    monkeypatch.setattr(solve.la, "eigh_tridiagonal", lambda *a, **kw: (tridiagonal(*a, **kw)[0], nan_vectors))
    with pytest.raises(solve.ConvergenceError, match="residual nan"):
        ground_space(chain)


# ------------------------------------------ spin-reflection positivity (Lieb)

LIEB_SIZES = [(4, 2), (6, 2), (7, 2), (8, 2), (6, 4), (7, 4), (8, 4)]
LIEB_COUPLINGS = {1000.0: (0.0, 6.0, 30.0), 5.0: (0.0, 6.0, 12.0)}  # U/J: gamma U / J^2, all with U > 2 gamma


def _sector_levels(h, projectors):
    """(level, K, vector) of the two lowest levels of every momentum block
    P_K^H h P_K of the assembled matrix h, solved by eigh."""
    out = []
    for k, proj in projectors.items():
        evals, evecs = la.eigh((proj.conj().T @ h @ proj).toarray(), subset_by_index=[0, min(1, proj.shape[1] - 1)])
        out += [(e, k, proj @ v) for e, v in zip(evals, evecs.T)]
    return sorted(out, key=lambda level: level[0])


@pytest.mark.parametrize("d, n", LIEB_SIZES)
def test_spin_reflection_positivity_certifies_the_even_n_full_model(d, n):
    # the oracle: the assembled matrix in the oracle's momentum sectors
    # K = 0..d/2 (a real matrix has the levels of -K at K), each solved by
    # eigh.  Its ground state is unique, at K = 0, even under the bare
    # reflection R, and as the matrix W of amplitudes W[alpha, beta] of
    # |alpha>_A |beta>_B it is symmetric and positive semidefinite with
    # Tr W > 0, each to 1e-9 (eigh's vector is good to about
    # eps * |H| / gap, and the gap is 1.1e-7 at (8, 4), x = 30).  The
    # solver, built as a sweep builds it and from the operator at gamma,
    # takes "sector" with the one block of K = 0 states even under R and
    # S (the group oracle's columns) and gives that E0 to 1e-12
    basis = fock.full_basis(d, n, n)
    projectors = {k: momentum_projector(basis, k) for k in range(d // 2 + 1)}
    reflected, side = reflection(basis), basis.masks_a.size
    for u, xs in LIEB_COUPLINGS.items():
        base = build_full_hamiltonian(ModelParams(j=1.0, u=u, gamma=0.0, d=d, n=n))
        coupling = gamma_coupling(basis)
        solver = GroundSolver(base, coupling)
        assert (solver.path, solver.dims) == ("sector", (_even_size(basis),))
        for x in xs:
            case, gamma = (d, n, u, x), x / u
            (energy, k, psi), (second, *_) = _sector_levels(base.to_csr() + gamma * sp.diags(coupling), projectors)[:2]
            assert k == 0 and second - energy > 1e-10, case
            psi = psi * abs(psi[np.argmax(abs(psi))]) / psi[np.argmax(abs(psi))]
            assert np.abs(psi.imag).max() < 1e-9 and np.abs(psi[reflected] - psi).max() < 1e-9, case
            w = psi.real.reshape(side, side)
            w *= np.sign(np.trace(w))
            assert np.trace(w) > 0 and np.abs(w - w.T).max() < 1e-9 and np.linalg.eigvalsh(w).min() > -1e-9, case
            for got in (solver(gamma), ground_space(build_full_hamiltonian(
                    ModelParams(j=1.0, u=u, gamma=gamma, d=d, n=n)))):
                assert (got.path, got.dims, got.degeneracy) == ("sector", solver.dims, 1), case
                assert abs(got.energy - energy) <= 1e-12 * abs(energy), case


def test_an_indefinite_interaction_is_solved_whole_or_refused():
    # U/J = 2 and gamma U / J^2 = 3, so 2 gamma = 3 > U: at (4, 2) the
    # ground state lies at K = d/2, and the call solves the whole operator
    # as the assembled matrix does; at (8, 4) the whole operator, 4900
    # states, is refused before its dense copy exists, and ``path_at``
    # gives each call's path, or that refusal, without solving
    gamma = 1.5
    base = build_full_hamiltonian(ModelParams(j=1.0, u=2.0, gamma=0.0, d=4, n=2))
    solver = GroundSolver(base, gamma_coupling(base.basis))
    assert (solver.path, solver.path_at(0.0), solver.path_at(gamma)) == ("sector", "sector", "whole")
    got = solver(gamma)
    energy, vectors = _whole_operator_dense(base, gamma * gamma_coupling(base.basis))
    assert (got.path, got.dims, got.degeneracy) == ("whole", (36,), vectors.shape[1])
    assert abs(got.energy - energy) < 1e-12 * abs(energy)
    assert np.abs(_ground_projector(got) - vectors @ vectors.conj().T).max() < 1e-12
    half = momentum_projector(base.basis, 2)
    assert np.abs(np.linalg.norm(half.conj().T @ vectors, axis=0) - 1).max() < 1e-12
    base = build_full_hamiltonian(ModelParams(j=1.0, u=2.0, gamma=0.0, d=8, n=4))
    solver = GroundSolver(base, gamma_coupling(base.basis))
    at_gamma = build_full_hamiltonian(ModelParams(j=1.0, u=2.0, gamma=gamma, d=8, n=4))
    assert solver.path_at(0.0) == "sector"
    with mock.patch.object(solve, "_dense", side_effect=AssertionError("allocated")):
        for solve_it in (lambda: solver.path_at(gamma), lambda: solver(gamma), lambda: ground_space(at_gamma)):
            with pytest.raises(fock.CapacityError, match="4900 states, needs 4900\\^2 > 16777216"):
                solve_it()


def test_the_lieb_certificate_reads_every_builder_operator_and_no_other():
    # the certificate re-forms D from the (U, gamma) the builder records,
    # so every even-N full operator built at U > 2 gamma is "sector", also
    # above half filling with gamma inside D, where every state has an
    # on-site pair and a bond and D's bits do not fix U and gamma (44100
    # states at (10, 6), one 1181-state block); the same D without that
    # record, or with a record it does not reproduce, is solved whole
    for d, n in [(3, 2), (5, 4), (6, 4), (7, 4), (7, 6), (8, 6)]:
        for u in (1000.0, 37.3, 5.0):
            for x in (0.5, 3.7, 6.0, 12.0, 30.0):
                if u > 2 * x / u:
                    op = build_full_hamiltonian(ModelParams(j=1.0, u=u, gamma=x / u, d=d, n=n))
                    assert GroundSolver(op, gamma_coupling(op.basis)).path == "sector", (d, n, u, x)
    op = build_full_hamiltonian(ModelParams(j=1.0, u=1e3, gamma=0.03, d=10, n=6))
    assert (ground_space(op).path, ground_space(op).dims) == ("sector", (1181,))
    op = build_full_hamiltonian(ModelParams(j=1.0, u=10.0, gamma=0.6, d=4, n=2))
    for couplings in (None, (10.0, 0.0), (10.0 + 1e-12, 0.6)):
        bare = SparseOperator(op.basis, op.diagonal, op.hopping, couplings)
        _assert_whole_path_matches_whole_operator(bare, case=couplings)
    assert ground_space(op).path == "sector"


def test_the_even_n_lanczos_block_starts_from_the_paired_columns(monkeypatch):
    # full (8, 4) and (10, 4), their 181- and 1181-state blocks on real
    # Lanczos (DENSE_LIMIT = 14): the start vector is the indicator of
    # the columns whose representative is paired (mask_a == mask_b),
    # whose orbits hold paired states only, each with an entry > 0, and
    # it overlaps the ground vector with the sign of Tr W > 0 (W its
    # amplitudes as a matrix).  The solve gives dense eigh's E0 on the
    # block to 1e-12 and its ground vector to 1e-9 (the next level is
    # 8e-5 above E0 at (8, 4), gamma U / J^2 = 6)
    monkeypatch.setattr(solve, "DENSE_LIMIT", 14)
    for d, n, x in ((8, 4, 6.0), (10, 4, 10.5)):
        base = build_full_hamiltonian(ModelParams(j=1.0, u=1e3, gamma=0.0, d=d, n=n))
        solver = GroundSolver(base, gamma_coupling(base.basis))
        proj, block, reps, eigensolver = solver._block
        assert (solver.dims, _eigensolver(solver)) == ((_even_size(base.basis),), solve._arpack), d
        start = eigensolver.keywords["start"]
        states = base.basis.states[reps]
        paired = states[:, 0] == states[:, 1]
        assert 0 < paired.sum() < reps.size and np.array_equal(start, paired / math.sqrt(paired.sum())), d
        columns = proj[:, paired].tocoo()
        members = base.basis.states[columns.row]
        assert np.array_equal(members[:, 0], members[:, 1]) and columns.data.min() > 0, d
        want, vectors = solve._dense(block, (base.diagonal + x * 1e-3 * solver._coupling)[reps], solve.LEVELS)
        ground = proj @ vectors[:, 0]
        side = base.basis.masks_a.size
        assert np.trace(ground.reshape(side, side)) * (start @ vectors[:, 0]) > 0, d
        got = solver(x * 1e-3)
        assert abs(got.energy - want[0]) <= 1e-12 * abs(want[0]) and got.degeneracy == 1, d
        overlap = np.vdot(got.vectors[:, 0], ground)
        assert np.abs(got.vectors[:, 0] * overlap / abs(overlap) - ground).max() < 1e-9, d


WHOLE_SIZES = LIEB_SIZES + [(5, 1), (6, 3), (7, 3), (8, 3), (7, 5)]


@pytest.mark.parametrize("d, n", WHOLE_SIZES)
def test_even_blocks_give_the_whole_operators_energy(d, n):
    # the Lieb sizes above and odd-N (Perron) ones at U/J = 1000,
    # gamma U / J^2 = 10.5: E0 of the block even under T, R and S equals
    # the lowest eigenvalue of a dense eigh of the whole operator to
    # 1e-12, and the lifted ground vector is invariant under the signed
    # T, the bare R and the bare S
    op = build_full_hamiltonian(ModelParams(j=1.0, u=1e3, gamma=10.5e-3, d=d, n=n))
    got = ground_space(op)
    want = la.eigh(op.to_csr().toarray(), eigvals_only=True, subset_by_index=[0, 0])[0]
    assert (got.path, got.dims, got.degeneracy) == ("sector", (_even_size(op.basis),), 1)
    assert abs(got.energy - want) <= 1e-12 * abs(want)
    _translation_invariant(op, got)
    for index in (reflection(op.basis), op.basis.swap_index()):
        assert np.abs(got.vectors[index] - got.vectors).max() < 1e-12
