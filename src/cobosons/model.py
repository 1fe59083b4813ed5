"""Extended Hubbard Hamiltonian, its hard-core pair reduction, and the
relative-coordinate chains, all as Hermitian sparse operators."""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .fock import (
    BasisMismatchError,
    FullBasis,
    PairBasis,
    StateVector,
    full_basis,
    move,
    occupations,
    pair_basis,
)

HERMITICITY_TOL = 1e-14


@dataclass(frozen=True)
class ModelParams:
    """Energies J, U, gamma and lattice content; boundary is periodic."""

    j: float
    u: float
    gamma: float
    d: int
    n: Optional[int] = None
    n_a: Optional[int] = None
    n_b: Optional[int] = None

    def __post_init__(self):
        for name in ("j", "u", "gamma"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.d < 2:
            raise ValueError(f"need d >= 2, got {self.d}")

    @property
    def jbar(self) -> float:
        if self.u == 0:
            raise ValueError("jbar undefined for U = 0")
        return 2.0 * self.j**2 / self.u

    @property
    def gammabar(self) -> float:
        return 2.0 * (self.gamma - self.jbar)

    def pair_count(self) -> int:
        if self.n is not None:
            return self.n
        if self.n_a is not None and self.n_a == self.n_b:
            return self.n_a
        raise ValueError("pair count undefined without N (or N_A == N_B)")


@dataclass(frozen=True)
class ChainBasis:
    """Relative-coordinate chain sites, in order."""

    kind: str
    sites: tuple

    @property
    def size(self) -> int:
        return len(self.sites)


class SparseOperator:
    """Hermitian operator assembled from (row, col, value) triplets;
    duplicates are summed and zeros dropped."""

    def __init__(self, basis, rows, cols, vals):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=complex)
        n = basis.size
        mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        mat.sum_duplicates()
        mat.eliminate_zeros()
        dev = abs(mat - mat.getH())
        if dev.nnz and dev.max() >= HERMITICITY_TOL:
            raise ValueError(f"operator not Hermitian (max dev {dev.max():g})")
        self.basis = basis
        self._csr = mat

    @property
    def dim(self) -> int:
        return self.basis.size

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def to_csr(self) -> sp.csr_matrix:
        return self._csr

    def matvec(self, psi: StateVector) -> StateVector:
        if psi.basis is not self.basis and psi.basis != self.basis:
            raise BasisMismatchError("operator and state live in different bases")
        return StateVector(psi.basis, self._csr @ psi.amplitudes)

    def expectation(self, psi: StateVector) -> complex:
        if psi.basis is not self.basis and psi.basis != self.basis:
            raise BasisMismatchError("operator and state live in different bases")
        return complex(np.vdot(psi.amplitudes, self._csr @ psi.amplitudes))


# ---------------------------------------------------------------- hopping

def _operator(basis, mat) -> SparseOperator:
    coo = mat.tocoo()
    return SparseOperator(basis, coo.row, coo.col, coo.data)


def _hop(masks: np.ndarray, d: int, wrap_sign) -> sp.csr_matrix:
    """sum_k (c^dag_k c_{k+1} + h.c.) on one species' ascending masks.

    With the canonical ascending mode order a nearest-neighbour hop
    passes no other particle, except across the periodic bond (d-1, 0),
    where it passes all n - 1 others: wrap_sign = (-1)^(n-1) for
    fermions, +1 for hard-core pairs.
    """
    rows, cols, vals = [], [], []
    for k in range(d):
        kp = (k + 1) % d
        sign = wrap_sign if kp == 0 else 1
        for src, dst in ((kp, k), (k, kp)):
            from_idx, to_idx = move(masks, src, dst)
            rows.append(to_idx)
            cols.append(from_idx)
            vals.append(np.full(from_idx.size, float(sign)))
    dim = masks.size
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )


# ------------------------------------------------------------- full Hubbard

def build_full_hamiltonian(params: ModelParams, basis: Optional[FullBasis] = None):
    """H = J*H0 + U*Hp + gamma*Hnn on the two-species basis.

    The basis is the mask_a-major product of the species bases, so the
    hopping is the Kronecker sum of the two single-species hops.
    """
    if basis is None:
        if params.n_a is None or params.n_b is None:
            n = params.pair_count()
            basis = full_basis(params.d, n, n)
        else:
            basis = full_basis(params.d, params.n_a, params.n_b)
    d = params.d
    masks_a, masks_b = basis.masks_a, basis.masks_b
    occ_a, occ_b = occupations(masks_a, d), occupations(masks_b, d)
    # nearest-neighbour attraction, both orientations (A at k with B at
    # k+1, and B at k with A at k+1, periodic) so that projecting onto
    # the pair subspace gives -2*gamma per occupied bond
    bonds = occ_a @ np.roll(occ_b, -1, axis=1).T + np.roll(occ_a, -1, axis=1) @ occ_b.T
    diag = -params.u * (occ_a @ occ_b.T) - params.gamma * bonds
    hop_a = _hop(masks_a, d, (-1) ** (basis.n_a - 1))
    hop_b = _hop(masks_b, d, (-1) ** (basis.n_b - 1))
    # kronsum(B, A) = kron(I_a, B) + kron(A, I_b): index i_a * dim_b + i_b
    hop = sp.kronsum(hop_b, hop_a)
    return _operator(basis, sp.diags(diag.ravel()) - params.j * hop)


# -------------------------------------------------------- effective pair model

def build_effective_hamiltonian(params: ModelParams, basis: Optional[PairBasis] = None):
    """Strong-coupling pair model: hopping -2J^2/U and nearest-neighbour
    attraction -(2*gamma - 4J^2/U); the N-dependent constant is dropped."""
    if params.u == 0:
        raise ValueError("effective model undefined for U = 0")
    if basis is None:
        basis = pair_basis(params.d, params.pair_count())
    # 2*gamma - 4J^2/U == gammabar, so the pair model closes over the bars
    return build_effective_from_bars(params.d, basis.n, params.jbar, params.gammabar, basis)


def build_effective_from_bars(d, n, jbar, gammabar, basis: Optional[PairBasis] = None):
    """Pair model directly from the renormalized couplings Jbar, gammabar."""
    if basis is None:
        basis = pair_basis(d, n)
    occ = occupations(basis.states, d)
    bonds = np.sum(occ & np.roll(occ, -1, axis=1), axis=1)
    return _operator(basis, sp.diags(-gammabar * bonds) - jbar * _hop(basis.states, d, 1))


# ------------------------------------------------------------ relative chains

def build_relative_chain(kind: str, params: ModelParams, r: int = 0, cutoff: int = 200):
    """Relative-coordinate chain after separating the centre-of-mass label r.

    two_fermion: sites s in [-S, S], hopping -J(1 + e^{+-i 2 pi r / d}),
    on-site -U at s = 0.  two_pair: sites s in [1, S], hopping with
    Jbar = 2J^2/U in place of J, on-site -gammabar at s = 1.  Open ends
    emulate the infinite line; convergence is checked in the cutoff.
    """
    if cutoff < 3:
        raise ValueError(f"cutoff must be >= 3, got {cutoff}")
    phase = cmath.exp(2j * cmath.pi * r / params.d)
    if kind == "two_fermion":
        sites = tuple(range(-cutoff, cutoff + 1))
        hop = -params.j * (1 + phase)
        diag = {0: -params.u}
    elif kind == "two_pair":
        sites = tuple(range(1, cutoff + 1))
        hop = -params.jbar * (1 + phase)
        diag = {1: -params.gammabar}
    else:
        raise ValueError(f"unknown chain kind {kind!r}")
    basis = ChainBasis(kind, sites)
    pos = {s: i for i, s in enumerate(sites)}
    rows, cols, vals = [], [], []
    for s, i in pos.items():
        if s in diag:
            rows.append(i)
            cols.append(i)
            vals.append(diag[s])
        if s + 1 in pos:
            j = pos[s + 1]
            rows += [j, i]
            cols += [i, j]
            vals += [hop, hop.conjugate()]
    return SparseOperator(basis, rows, cols, vals)
