"""Ground-state solvers plus the closed-form bound-state solutions of the
two-fermion and two-pair relative chains."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse.linalg as spla

from .fock import StateVector, fix_phase, full_basis, pair_basis, project_to_pair_sector
from .model import (
    ModelParams,
    SparseOperator,
    build_effective_hamiltonian,
    build_full_hamiltonian,
)

DENSE_LIMIT = 2000
RESIDUAL_TOL = 1e-10
EQUIVALENCE_LEVELS = 4


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge; carries the residual."""


@dataclass(frozen=True)
class GroundSpace:
    """Lowest eigenvalue with an orthonormal basis of its eigenspace, and
    every eigenvalue the solver computed."""

    energy: float
    vectors: np.ndarray  # shape (dim, degeneracy), columns orthonormal
    basis: object
    levels: np.ndarray  # ascending: the whole spectrum (dense) or the Ritz values (ARPACK)

    @property
    def degeneracy(self) -> int:
        return self.vectors.shape[1]

    @property
    def state(self) -> StateVector:
        """The first ground vector, phase-fixed."""
        return StateVector(self.basis, fix_phase(self.vectors[:, 0]))


@dataclass(frozen=True)
class BoundStateSolution:
    """Geometric bound state amplitude ~ r0^|s| with its energy."""

    r0: float
    energy: float
    bound: bool
    limit_case: bool = False

    def amplitude(self, s) -> np.ndarray:
        """Unnormalized coefficient rule s -> r0^|s|."""
        return np.power(self.r0, np.abs(np.asarray(s, dtype=float)))


def ground_space(op: SparseOperator, tol_deg: float = 1e-9) -> GroundSpace:
    """Lowest eigenvalue and all eigenvectors within tol_deg of it.

    Dense below DENSE_LIMIT; Lanczos (ARPACK, deterministic uniform start
    vector, 12 Ritz values) above.  The degeneracy window tol_deg and the
    residual bound RESIDUAL_TOL both scale with max(1, |E0|); each
    selected vector is checked against its own eigenvalue, so levels
    split by less than the window stay in the ground space.
    """
    n = op.dim
    if n < 1:
        raise ValueError("empty basis")
    if n < DENSE_LIMIT:
        evals, evecs = np.linalg.eigh(op.to_dense())
    else:
        v0 = np.full(n, 1.0 / math.sqrt(n))
        try:
            evals, evecs = spla.eigsh(op.to_csr(), k=min(12, n - 1), which="SA", v0=v0, tol=0)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(f"ARPACK did not converge: {exc}") from exc
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
    e0 = evals[0]
    scale = max(1.0, abs(e0))
    sel = evals <= e0 + tol_deg * scale
    if n >= DENSE_LIMIT and sel.all():
        # every Ritz value degenerate with the minimum: space not resolved
        raise ConvergenceError("degenerate window exceeds the computed spectrum")
    # re-orthonormalize (eigh already orthonormal; cheap safeguard)
    vecs, _ = np.linalg.qr(np.asarray(evecs[:, sel], dtype=complex))
    res = np.linalg.norm(op.to_csr() @ vecs - vecs * evals[sel], axis=0).max()
    if res >= RESIDUAL_TOL * scale:
        raise ConvergenceError(f"residual {res:g} above tolerance")
    return GroundSpace(float(e0), vecs, op.basis, evals)


def ground_state_vector(op: SparseOperator, **kw) -> StateVector:
    return ground_space(op, **kw).state


# ------------------------------------------------------------- closed forms

def analytic_two_fermion(j: float, u: float) -> BoundStateSolution:
    """Relative-coordinate bound state of one A-B pair on the infinite line:
    r0 = (sqrt(U^2 + 16 J^2) - U) / 4J, energy -sqrt(U^2 + 16 J^2)."""
    if j < 0 or u < 0:
        raise ValueError("need J, U >= 0")
    if j == 0:
        return BoundStateSolution(0.0, -u, bound=u > 0, limit_case=True)
    disc = math.sqrt(u * u + 16.0 * j * j)
    r0 = (disc - u) / (4.0 * j)
    return BoundStateSolution(r0, -disc, bound=r0 < 1.0)


def analytic_two_pair(jbar: float, gamma: float) -> BoundStateSolution:
    """Bound state of two adjacent pairs under the effective model; exists
    only for gamma > 2*Jbar."""
    if jbar <= 0:
        raise ValueError("need Jbar > 0")
    if gamma < 0:
        raise ValueError("need gamma >= 0")
    if gamma <= 2.0 * jbar:
        r0 = float("nan") if gamma <= jbar else jbar / (gamma - jbar)
        return BoundStateSolution(r0, float("nan"), bound=False)
    r0 = jbar / (gamma - jbar)
    energy = (4.0 * gamma * jbar - 4.0 * jbar**2 - 2.0 * gamma**2) / (gamma - jbar)
    return BoundStateSolution(r0, energy, bound=True)


def chain_bound_amplitudes(chain: SparseOperator, energy: float) -> np.ndarray:
    """Eigenvector of a tridiagonal relative chain at a bound-state energy.

    Dense eigensolvers resolve eigenvector components only to absolute
    machine precision, so a geometric tail r0^s drowns in noise once
    r0^s ~ 1e-16.  Backward recurrence from the open end(s) toward the
    potential site is stable in the growing direction and keeps uniform
    *relative* accuracy at every site; the halves are matched at the
    potential site and the result normalized.
    """
    dense = chain.to_csr()
    n = chain.dim
    diag = dense.diagonal()
    lower = np.array([dense[i + 1, i] for i in range(n - 1)])
    upper = np.array([dense[i, i + 1] for i in range(n - 1)])
    kind = getattr(chain.basis, "kind", "")
    anchor = chain.basis.sites.index(0) if kind == "two_fermion" else 0

    def backward(start, stop):
        # indices start -> stop (descending), recurrence toward the anchor
        x = np.zeros(n, dtype=complex)
        x[start] = 1.0
        if start == stop:
            return x
        x[start - 1] = (energy - diag[start]) / lower[start - 1] * x[start]
        for i in range(start - 1, stop, -1):
            x[i - 1] = ((energy - diag[i]) * x[i] - upper[i] * x[i + 1]) / lower[i - 1]
            if abs(x[i - 1]) > 1e250:
                x[stop:start + 1] /= abs(x[i - 1])
        return x

    def forward(start, stop):
        x = np.zeros(n, dtype=complex)
        x[start] = 1.0
        if start == stop:
            return x
        x[start + 1] = (energy - diag[start]) / upper[start] * x[start]
        for i in range(start + 1, stop):
            x[i + 1] = ((energy - diag[i]) * x[i] - lower[i - 1] * x[i - 1]) / upper[i]
            if abs(x[i + 1]) > 1e250:
                x[start:stop + 1] /= abs(x[i + 1])
        return x

    right = backward(n - 1, anchor)
    right /= right[anchor]  # anchor is the bound-state peak
    if anchor == 0:
        vec = right
    else:
        left = forward(0, anchor)
        vec = left / left[anchor]
        vec[anchor:] = right[anchor:]
    return vec / np.linalg.norm(vec)


# ----------------------------------------------------- finite-chain bound test

def geometric_tail(amplitudes: np.ndarray, tail_fraction: float = 0.25):
    """Fit |amp| ~ r^s over the trailing fraction of a chain eigenvector.

    Returns (r_fit, tail_mass).  A bound state decays geometrically with
    r < 1 and carries negligible tail mass; threshold cases are left to
    the caller.
    """
    amp = np.abs(np.asarray(amplitudes))
    n = amp.size
    m = max(3, int(n * tail_fraction))
    tail = amp[n - m:]
    tail_mass = float(np.sum(tail**2))
    good = tail > 1e-280
    if good.sum() < 2:
        return 0.0, tail_mass
    logs = np.log(tail[good])
    xs = np.arange(n - m, n)[good]
    slope = np.polyfit(xs, logs, 1)[0]
    return float(np.exp(slope)), tail_mass


def is_bound(amplitudes: np.ndarray, r_tol: float = 1e-3, mass_tol: float = 1e-8) -> bool:
    r_fit, tail_mass = geometric_tail(amplitudes)
    return tail_mass < mass_tol and r_fit < 1.0 - r_tol


# ------------------------------------------------------ full vs effective model

@dataclass(frozen=True)
class EquivalenceReport:
    effective_energies: np.ndarray
    full_energies: np.ndarray  # pair-sector levels, dropped constant restored
    fidelity: Optional[float]
    degenerate: bool
    constant: float


def spectral_equivalence_check(params: ModelParams) -> EquivalenceReport:
    """Compare the EQUIVALENCE_LEVELS lowest effective-model energies against
    the lowest levels of the full model (with the dropped constant
    -N(U + 4J^2/U) restored) and report the weight of the full ground
    state's normalized pair-sector part in the effective ground space."""
    if params.u < 100.0 * params.j:
        raise ValueError("spectral equivalence requires U/J >= 100")
    n = params.pair_count()
    constant = -n * (params.u + 4.0 * params.j**2 / params.u)

    if params.j == 0:
        return EquivalenceReport(
            effective_energies=np.array([]),
            full_energies=np.array([]),
            fidelity=None,
            degenerate=True,
            constant=constant,
        )

    pbasis = pair_basis(params.d, n)
    eff = ground_space(build_effective_hamiltonian(params, pbasis))
    full = ground_space(build_full_hamiltonian(params, full_basis(params.d, n, n)))

    projected = project_to_pair_sector(full.state, pbasis)
    pnorm = projected.norm
    if pnorm == 0.0:
        fid = 0.0
    else:
        overlaps = eff.vectors.conj().T @ projected.amplitudes
        fid = float(np.sum(np.abs(overlaps) ** 2)) / pnorm**2

    k = min(EQUIVALENCE_LEVELS, len(eff.levels), len(full.levels))
    return EquivalenceReport(
        effective_energies=eff.levels[:k],
        full_energies=full.levels[:k] - constant,
        fidelity=fid,
        degenerate=False,
        constant=constant,
    )
