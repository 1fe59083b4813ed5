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
    """Hermitian operator on a basis.

    ``SparseOperator(basis, matrix)`` keeps the CSR matrix built from the
    assembled sparse ``matrix``; duplicates are summed and zeros dropped.
    ``SparseOperator.from_parts(basis, diagonal, hopping)`` is a builder
    operator diag(diagonal) - hopping * basis.hop() and keeps its two
    parts (``diagonal``, ``hopping``; both None on an assembled operator).
    ``to_csr()`` assembles its CSR matrix when it is first asked for, the
    same matrix ``SparseOperator(basis, ...)`` would keep.  The matrix is
    float64 unless some entry has a nonzero imaginary part, and
    complex128 then."""

    diagonal = hopping = None

    def __init__(self, basis, matrix):
        n = basis.size
        mat = _canonical(matrix)
        if mat.shape != (n, n):
            raise ValueError(f"matrix shape {mat.shape} does not match basis size {n}")
        dev = abs(mat - mat.getH())
        if dev.nnz and dev.max() >= HERMITICITY_TOL:
            raise ValueError(f"operator not Hermitian (max dev {dev.max():g})")
        self.basis = basis
        self._csr = mat

    @classmethod
    def from_parts(cls, basis, diagonal, hopping: float) -> "SparseOperator":
        """diag(diagonal) - hopping * basis.hop(), Hermitian because both
        parts are real and the unit hop is exactly symmetric by
        construction (``fock._hop``)."""
        diagonal = np.asarray(diagonal)
        if diagonal.shape != (basis.size,):
            raise ValueError(f"diagonal shape {diagonal.shape} does not match basis size {basis.size}")
        if not (np.isrealobj(diagonal) and np.isrealobj(hopping)):
            raise ValueError("operator not Hermitian (complex diagonal or hopping)")
        op = cls.__new__(cls)
        op.basis, op.diagonal, op.hopping, op._csr = basis, diagonal.astype(float), float(hopping), None
        op.diagonal.setflags(write=False)
        return op

    @property
    def dim(self) -> int:
        return self.basis.size

    def to_csr(self) -> sp.csr_matrix:
        if self._csr is None:
            self._csr = _canonical(sp.diags(self.diagonal) - self.hopping * self.basis.hop())
        return self._csr

    def apply(self, vecs: np.ndarray) -> np.ndarray:
        """H @ vecs for a vector or a (dim, k) array; a builder operator
        applies its parts, diagonal * vecs - hopping * (hop @ vecs)."""
        if self.hopping is None:
            return self._csr @ vecs
        diagonal = self.diagonal if vecs.ndim == 1 else self.diagonal[:, None]
        return diagonal * vecs - self.hopping * (self.basis.hop() @ vecs)

    def expectation(self, psi: StateVector) -> complex:
        if psi.basis is not self.basis and psi.basis != self.basis:
            raise BasisMismatchError("operator and state live in different bases")
        return complex(np.vdot(psi.amplitudes, self.apply(psi.amplitudes)))


def _canonical(matrix) -> sp.csr_matrix:
    """A CSR copy of ``matrix`` with duplicates summed and zeros dropped,
    float64 unless some entry has a nonzero imaginary part."""
    mat = sp.csr_matrix(matrix, copy=True)  # summed and pruned in place below
    mat.sum_duplicates()
    mat.eliminate_zeros()
    if np.iscomplexobj(mat) and not mat.data.imag.any():
        mat.data = mat.data.real.copy()  # astype(float) would warn about the imaginary part
    return mat.astype(complex if np.iscomplexobj(mat) else float, copy=False)


# ------------------------------------------------------------- full Hubbard

def build_full_hamiltonian(params: ModelParams, basis: Optional[FullBasis] = None):
    """H = J*H0 + U*Hp + gamma*Hnn on the two-species basis, from the
    basis's hop (the Kronecker sum of the two species hops), on-site pair
    count and bond count."""
    if basis is None:
        if params.n_a is None or params.n_b is None:
            n = params.pair_count()
            basis = full_basis(params.d, n, n)
        else:
            basis = full_basis(params.d, params.n_a, params.n_b)
    diag = -params.u * basis.onsite() - params.gamma * basis.bonds()
    return SparseOperator.from_parts(basis, diag, params.j)


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
    return SparseOperator.from_parts(basis, -gammabar * basis.bonds(), jbar)


# ------------------------------------------------------- the gamma direction

def gamma_coupling(basis) -> np.ndarray:
    """c with H(gamma) = H(0) + gamma * diag(c) for the Hamiltonian of
    ``basis``: -2 * bonds for the pair model (gammabar = 2(gamma - Jbar)),
    -bonds for the full model (``basis.bonds()``)."""
    bonds = basis.bonds().astype(float)
    return -2.0 * bonds if isinstance(basis, PairBasis) else -bonds


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
        site, onsite = 0, -params.u
    elif kind == "two_pair":
        sites = tuple(range(1, cutoff + 1))
        hop = -params.jbar * (1 + phase)
        site, onsite = 1, -params.gammabar
    else:
        raise ValueError(f"unknown chain kind {kind!r}")
    diag = np.zeros(len(sites))
    diag[sites.index(site)] = onsite
    off = np.full(len(sites) - 1, hop)
    # H[s+1, s] = hop below the diagonal, its conjugate above
    mat = sp.diags([off, diag, off.conj()], [-1, 0, 1], dtype=complex)
    return SparseOperator(ChainBasis(kind, sites), mat)
