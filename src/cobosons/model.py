"""Extended Hubbard Hamiltonian, its hard-core pair reduction, and the
relative-coordinate chains, all as Hermitian sparse operators."""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .fock import (
    MAX_BASIS_STATES,
    BasisMismatchError,
    CapacityError,
    PairBasis,
    StateVector,
    full_basis,
    pair_basis,
)


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
    """Relative-coordinate chain sites, in order, and the phase of its hop."""

    kind: str
    sites: tuple
    phase: complex

    @property
    def size(self) -> int:
        return len(self.sites)

    def hop(self) -> sp.csr_matrix:
        """The unit hop: ``phase`` on the subdiagonal (site i to i + 1), its
        conjugate above; float64 when the phase is real; built per call."""
        off = np.full(self.size - 1, complex(self.phase))
        off = off if self.phase.imag else off.real
        return sp.diags([off, off.conj()], [-1, 1], shape=(self.size,) * 2, format="csr")


class SparseOperator:
    """diag(diagonal) - hopping * basis.hop() on a PairBasis, FullBasis or
    ChainBasis, kept as its two real, finite parts (``diagonal`` read-only
    float64, ``hopping`` a float); Hermitian because the unit hop is by
    construction (``fock._hop``, ``ChainBasis.hop``).  ``to_csr()``
    assembles the CSR matrix, zeros dropped: float64 unless the hop is
    complex, and complex128 then.  ``couplings`` is the (U, gamma) that
    ``build_full_hamiltonian`` formed the diagonal from (``full_diagonal``),
    and None on every other operator."""

    def __init__(self, basis, diagonal, hopping: float, couplings: Optional[tuple] = None):
        diagonal = np.asarray(diagonal)
        if diagonal.shape != (basis.size,):
            raise ValueError(f"diagonal shape {diagonal.shape} does not match basis size {basis.size}")
        if not (np.isrealobj(diagonal) and np.isrealobj(hopping)):
            raise ValueError("operator not Hermitian (complex diagonal or hopping)")
        if not (np.isfinite(diagonal).all() and np.isfinite(hopping)):
            raise ValueError("operator parts must be finite (inf or NaN in the diagonal or hopping)")
        self.basis, self.diagonal, self.hopping = basis, diagonal.astype(float), float(hopping)
        self.couplings = couplings
        self.diagonal.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.size

    def to_csr(self) -> sp.csr_matrix:
        csr = sp.diags(self.diagonal) - self.hopping * self.basis.hop()
        csr.eliminate_zeros()
        return csr

    def apply(self, vecs: np.ndarray) -> np.ndarray:
        """H @ vecs for a vector or a (dim, k) array, from the parts:
        diagonal * vecs - hopping * (hop @ vecs)."""
        diagonal = self.diagonal if vecs.ndim == 1 else self.diagonal[:, None]
        return diagonal * vecs - self.hopping * (self.basis.hop() @ vecs)

    def expectation(self, psi: StateVector) -> complex:
        if psi.basis is not self.basis and psi.basis != self.basis:
            raise BasisMismatchError("operator and state live in different bases")
        return complex(np.vdot(psi.amplitudes, self.apply(psi.amplitudes)))


# ------------------------------------------------------------- full Hubbard

def full_diagonal(basis, u: float, gamma: float) -> np.ndarray:
    """D = -U * onsite - gamma * bonds of the full model on ``basis``: the
    one place its bits are formed, by the builder and again by the
    spin-reflection certificate (``solve._lieb_couplings``)."""
    return -u * basis.onsite() - gamma * basis.bonds()


def build_full_hamiltonian(params: ModelParams):
    """H = J*H0 + U*Hp + gamma*Hnn on the shared two-species basis of
    (d, N_A, N_B), N_A = N_B = N when ``params`` gives N, from the basis's
    hop (the Kronecker sum of the two species hops), on-site pair count
    and bond count; the operator records (U, gamma) as ``couplings``."""
    if params.n_a is None or params.n_b is None:
        n = params.pair_count()
        basis = full_basis(params.d, n, n)
    else:
        basis = full_basis(params.d, params.n_a, params.n_b)
    diag = full_diagonal(basis, params.u, params.gamma)
    return SparseOperator(basis, diag, params.j, (params.u, params.gamma))


# -------------------------------------------------------- effective pair model

def build_effective_hamiltonian(params: ModelParams):
    """Strong-coupling pair model on the shared pair basis of (d, N):
    hopping -2J^2/U and nearest-neighbour attraction -(2*gamma - 4J^2/U);
    the N-dependent constant is dropped."""
    if params.u == 0:
        raise ValueError("effective model undefined for U = 0")
    # 2*gamma - 4J^2/U == gammabar, so the pair model closes over the bars
    return build_effective_from_bars(params.d, params.pair_count(), params.jbar, params.gammabar)


def build_effective_from_bars(d, n, jbar, gammabar):
    """Pair model on the shared pair basis of (d, N) directly from the
    renormalized couplings Jbar, gammabar."""
    basis = pair_basis(d, n)
    return SparseOperator(basis, -gammabar * basis.bonds(), jbar)


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
    emulate the infinite line; convergence is checked in the cutoff.  The
    hopping h is kept as t = |h| and phase = -h / t (1 when t = 0).
    """
    if cutoff < 3:
        raise ValueError(f"cutoff must be >= 3, got {cutoff}")
    if kind == "two_fermion":
        first, last, site, onsite, scale = -cutoff, cutoff, 0, -params.u, params.j
    elif kind == "two_pair":
        first, last, site, onsite, scale = 1, cutoff, 1, -params.gammabar, params.jbar
    else:
        raise ValueError(f"unknown chain kind {kind!r}")
    if last - first + 1 > MAX_BASIS_STATES:
        raise CapacityError(f"a {kind} chain of cutoff {cutoff} has {last - first + 1} sites, above {MAX_BASIS_STATES}")
    sites = tuple(range(first, last + 1))
    hop = -scale * (1 + cmath.exp(2j * cmath.pi * r / params.d))
    t = abs(hop)
    diag = np.zeros(len(sites))
    diag[site - first] = onsite
    return SparseOperator(ChainBasis(kind, sites, -hop / t if t else 1.0), diag, t)
