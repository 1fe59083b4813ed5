"""Ground-state solvers plus the closed-form bound-state solutions of the
two-fermion and two-pair relative chains."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as la
import scipy.linalg.cython_lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fock import (
    MAX_BASIS_STATES,
    CapacityError,
    FullBasis,
    PairBasis,
    StateVector,
    fix_phase,
    project_to_pair_sector,
)
from .model import (
    ModelParams,
    SparseOperator,
    build_effective_hamiltonian,
    build_full_hamiltonian,
)

DENSE_LIMIT = 2000  # "momenta" blocks from this size go to ARPACK
SECTOR_DENSE_LIMIT = 350  # "sector" blocks from this size go to real Lanczos (see GroundSolver)
RESIDUAL_TOL = 1e-10
LEVELS = 4  # eigenpairs per block solve; all of them when the window holds every one
ARPACK_LEVELS = 12  # Ritz values per "momenta" ARPACK block (see _arpack)
# Dense eigensolves below this size run on one BLAS thread (see _serial_blas).
SERIAL_BLAS_BELOW = 512


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge; carries the residual."""


@dataclass(frozen=True)
class GroundSpace:
    """Lowest eigenvalue with an orthonormal basis of its eigenspace, every
    eigenvalue the solver computed, and how they were computed.

    ``GroundSolver`` solves blocks of the operator: one block on "sector"
    (the reflection-even K = 0 block when the operator commutes with the
    site reflection, else the K = 0 block), every momentum block on
    "momenta" and the whole chain on "banded".  ``path`` names the path.
    Each block is solved for its LEVELS (4) lowest levels, ARPACK_LEVELS
    (12) on a "momenta" ARPACK block, or for all of them when the degeneracy
    window holds every one.  ``levels`` are the union of those levels,
    ascending, cut to the lowest LEVELS on "momenta"; on "sector" that is
    at most LEVELS levels unless the window held them all.  ``residual``
    is the largest |H v - e v| over the ground vectors, each against its
    own eigenvalue e and the whole operator.  ``momenta`` is the momentum
    K (in units of 2 pi / d) of the block of each ground vector, all 0 on
    "sector", None on "banded".  ``dims`` is the dimension of every block
    solved, in order of K.
    """

    energy: float
    vectors: np.ndarray  # shape (dim, degeneracy), columns orthonormal
    basis: object
    levels: np.ndarray  # ascending: the lowest LEVELS eigenvalues of each block, or all of them
    path: str
    residual: float
    momenta: Optional[tuple]
    dims: tuple

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


def _window(evals: np.ndarray, tol_deg: float) -> np.ndarray:
    """Mask of the levels within tol_deg * max(1, |E0|) of the lowest."""
    return evals <= evals[0] + tol_deg * max(1.0, abs(evals[0]))


@functools.cache
def _blas_thread_setter():
    """``openblas_set_num_threads_local`` of scipy.linalg's OpenBLAS: it
    sets that library's thread count and returns the previous one.  None
    with another BLAS or OpenBLAS older than 0.3.27."""
    try:
        set_threads = ctypes.CDLL(scipy.linalg.cython_lapack.__file__).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], ctypes.c_int
    return set_threads


@contextlib.contextmanager
def _serial_blas(serial: bool = True):
    """scipy's OpenBLAS on one thread inside the block when ``serial``, its
    count restored after.  The one thread rule of the solver: every ARPACK
    solve, and every dense solve below SERIAL_BLAS_BELOW, runs under it;
    everything else runs at the library's count.  ARPACK's Lanczos steps
    are too small to share: on two vCPUs a 21-point sweep at effective
    d = 20, N = 8 (real Lanczos on the 3260-state block) took 0.80 s wall
    and 0.80-0.96 s CPU on one thread, against 1.07-1.13 s wall and
    1.6-2.2 s CPU on two, and one at d = 24, N = 8 6.4 s wall and 6.5 s
    CPU against 6.6 s and 11.7 s.  Dense ``eigh`` joins the threads
    once per column of its tridiagonal reduction, so below
    SERIAL_BLAS_BELOW a second thread gains little (1.04x at 300 states,
    1.14x at 504) and makes each join wait for a core that another
    process may hold; above it gains 1.2x-1.7x."""
    set_threads = _blas_thread_setter() if serial else None
    if set_threads is None:
        yield
        return
    previous = set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def _dense(block: sp.csr_matrix, diagonal: np.ndarray, count: int) -> tuple:
    """The count lowest eigenpairs of the real block + diag(diagonal), on a
    dense copy.  One BLAS thread below SERIAL_BLAS_BELOW (``_serial_blas``)."""
    a = block.toarray()
    a.flat[::a.shape[0] + 1] += diagonal
    with _serial_blas(a.shape[0] < SERIAL_BLAS_BELOW):
        return la.eigh(a, subset_by_index=None if count == a.shape[0] else [0, count - 1])


def _band(op: SparseOperator) -> tuple:
    """(|e|, gauge) of a chain -t * hop with subdiagonal e = -t * phase
    (``ChainBasis.hop``): the diagonal gauge G = diag(prod_{j<i} e_j / |e_j|)
    makes G^H (-t * hop) G real symmetric with subdiagonal |e|, so one real
    tridiagonal solve serves real and complex chains."""
    e = -op.hopping * op.basis.phase
    sub = np.full(op.dim - 1, e if e.imag else e.real)
    size = np.abs(sub)
    unit = sub / size if e else np.ones_like(sub)
    return size, np.concatenate([[1], np.cumprod(unit)])


def _banded(band: tuple, diagonal: np.ndarray, count: int) -> tuple:
    """The count lowest eigenpairs of a chain, from its band (``_band``)
    and its diagonal; the vectors u of the real tridiagonal matrix give
    the chain's as G u.  LAPACK's MRRR driver (``stemr``) computes them:
    the band solver's index selection (``stebz``, then ``stein``'s inverse
    iteration) returns NaN vectors once a bound-state tail underflows, at
    some counts only: at 2401 sites with r0 = 1/2 at counts 2, 5, 9, 12
    and 13, not at 4 (scipy 1.17.1, OpenBLAS 0.3.30)."""
    size, gauge = band
    select = {} if count == diagonal.size else {"select": "i", "select_range": (0, count - 1)}
    evals, vecs = la.eigh_tridiagonal(diagonal, size, lapack_driver="stemr", **select)
    return evals, gauge[:, None] * vecs


def _arpack(block: sp.csr_matrix, diagonal: np.ndarray, count: int) -> tuple:
    """The count lowest Ritz pairs of the real block + diag(diagonal) by
    real Lanczos (ARPACK ``eigsh``) from the deterministic uniform start
    vector, which overlaps the positive Perron vector of a "sector" block,
    ascending, under ``_serial_blas``.  ``eigsh`` needs count < n: a larger
    count is a degenerate window that ARPACK cannot hold.  Every ARPACK
    failure is a ``ConvergenceError``.  The ARPACK_LEVELS Ritz values of a
    "momenta" block can still miss copies of a level degenerate inside
    the block."""
    n = block.shape[0]
    if count >= n:
        raise ConvergenceError("degenerate window exceeds the computed spectrum")
    mat = block + sp.diags(diagonal) if diagonal.any() else block
    v0 = np.full(n, 1.0 / math.sqrt(n))
    try:
        with _serial_blas():
            evals, evecs = spla.eigsh(mat, k=count, which="SA", v0=v0, tol=0)
    except spla.ArpackError as exc:
        raise ConvergenceError(f"ARPACK failed: {exc}") from exc
    order = np.argsort(evals)
    return evals[order], evecs[:, order]


def _certify(op: SparseOperator, coupling: np.ndarray) -> tuple:
    """(path, even) of a builder operator diag(D) - t * hop with the
    coupling c on a PairBasis or FullBasis, from D, t, c and the signs of
    the one-site translation T.  The hop is symmetric, invariant under T
    and the bare site reflection R, and connected by construction
    (``fock._hop``), so D and c decide the symmetries: ValueError when T
    moves either.  "sector" when every sign of T is +1, which makes every
    hop entry > 0, and t > 0 or dim = 1: then every off-diagonal of
    -t * hop is < 0 on a connected graph; ``even`` when R fixes D and c
    too.  Otherwise "momenta", whose real blocks (``hop_block``) need R
    to fix D and c: ValueError when it moves either."""
    index, sign = op.basis.translation_table()

    def fixed(perm) -> bool:
        return np.array_equal(op.diagonal[perm], op.diagonal) and np.array_equal(coupling[perm], coupling)

    if not fixed(index):
        raise ValueError("no solver path: the operator or the coupling breaks the lattice translation")
    even = fixed(op.basis.reflection_index())
    if np.all(sign == 1) and (op.dim == 1 or op.hopping > 0):
        return "sector", even
    if not even:
        raise ValueError("no solver path: the operator or the coupling breaks the site reflection")
    return "momenta", False


class GroundSolver:
    """Ground spaces of op + gamma * diag(coupling), op = diag(D) - t * hop.

    ``__init__`` does everything that does not depend on gamma and keeps
    the blocks to solve, K -> (P or None, block, reps, eigensolver,
    count): the block at gamma is block + diag((D + gamma *
    coupling)[reps]), and the eigensolver and its count, fixed here by the
    block's structure and size, take (block, diagonal, count) and return
    the count lowest eigenpairs.
    tol_deg must be finite and > 0.  There are three paths:
    - "sector", at any size, for an operator on a PairBasis or FullBasis
      that, with its coupling, commutes exactly with the one-site
      translation T, when Perron-Frobenius makes its ground state the
      unique positive vector at every gamma (``_certify``).  That vector is
      fixed by every basis permutation that commutes with the operator, so
      one block is kept: the reflection-even K = 0 block
      (``basis.even_projector()``) when the operator and the coupling are
      exactly invariant under the bare site reflection R too
      (``fock.reflection``), else the K = 0 block;
    - "momenta", at any size, for any other such operator that, with its
      coupling, is exactly invariant under R too: P_K =
      ``basis.projector(K)`` for every K = 0..d/2 with a column, times the
      gauge W that makes the block real for 0 < K < d/2
      (``fock._real_gauge``); a lattice operator is real, so its -K blocks
      are the conjugates of the +K ones;
    - "banded", on a ChainBasis (the relative chains), which has no
      lattice translation: the whole operator is the one block, its band
      (``_band``, from t and the chain's phase) with no P and every site
      as reps.  ``_banded`` allocates n x n, so n^2 is held to
      MAX_BASIS_STATES (``CapacityError``).
    A lattice block -t * P^H hop P (``basis.hop_block(K, even)``, which
    returns (P, P^H hop P, reps), the block real on every path) has the
    gamma term diag(coupling[reps]), exact because the coupling is
    constant on each orbit and, on "momenta", fixed by R.  An operator or
    a coupling that breaks T, or on "momenta" R, raises ``ValueError``
    before any block exists.  The tables of the unit
    hop and its symmetries are built once per sector; the checks of the
    operator's own parts (``_certify``) run in every ``__init__``.

    The eigensolvers, each for count = LEVELS (4) unless stated:
    - "banded": ``_banded``;
    - "sector": ``_dense`` below SECTOR_DENSE_LIMIT states, real Lanczos
      (``_arpack``) from it.  The limit is where Lanczos wins, measured at
      count 4 on one BLAS thread, best of 7, over gamma U / J^2 = 1, 6,
      10.5 and 18.125 on a 2-vCPU machine: the 280-state block of
      effective d = 16, N = 6 took 3.2-3.4 ms dense against 3.0-4.5 ms,
      324 states (d = 19, N = 5) 3.4-4.0 ms against 2.8-4.4 ms, and 375
      states (d = 16, N = 7) 6.7-7.8 ms against 3.6-5.7 ms; at 600 states
      dense took 17-22 ms against 4-10 ms;
    - "momenta": ``_dense`` below DENSE_LIMIT, ``_arpack`` from it for
      ARPACK_LEVELS (12) Ritz values: ARPACK can miss copies of a
      level degenerate inside one block, and fewer Ritz values miss more.

    A call ``solver(gamma)`` forms D + gamma * coupling once and runs one
    loop: solve each block for its count lowest levels, or for all of
    them when the degeneracy window holds every level returned; apply the
    window to the union of the levels, lift the vectors inside it with
    their P, and check each against its own eigenvalue and the whole
    operator at that gamma (``op.apply``).  The window tol_deg and the
    residual bound RESIDUAL_TOL both scale with max(1, |E0|), so levels
    split by less than the window stay in the ground space.  A block's own
    bound E + tol_deg * max(1, |E|) increases with its lowest level E, so
    when the block's highest computed level lies outside it, it lies
    outside the window of the whole operator too: no level of the window
    is left uncomputed.
    """

    def __init__(self, op: SparseOperator, coupling=None, tol_deg: float = 1e-9):
        n = op.dim
        if n < 1:
            raise ValueError("empty basis")
        if not (math.isfinite(tol_deg) and tol_deg > 0):
            raise ValueError(f"tolerance must be finite and > 0, got {tol_deg}")
        self.basis, self.tol_deg, self._op = op.basis, tol_deg, op
        self._coupling = np.zeros(n) if coupling is None else np.asarray(coupling, dtype=float)
        if self._coupling.shape != (n,):
            raise ValueError(f"coupling shape {self._coupling.shape} does not match basis size {n}")
        if not isinstance(op.basis, (PairBasis, FullBasis)):
            if n * n > MAX_BASIS_STATES:
                raise CapacityError(f"a chain of {n} sites needs {n}^2 > {MAX_BASIS_STATES} eigenvector entries")
            self.path = "banded"
            self._blocks = {0: (None, _band(op), slice(None), _banded, LEVELS)}
        else:
            self.path, even = _certify(op, self._coupling)
            sector = self.path == "sector"
            ks = (0,) if sector else range(op.basis.d // 2 + 1)
            limit = SECTOR_DENSE_LIMIT if sector else DENSE_LIMIT
            iterative = (_arpack, LEVELS if sector else ARPACK_LEVELS)
            blocks = {k: op.basis.hop_block(k, even) for k in ks}
            self._blocks = {k: (proj, hop * -op.hopping, reps, *(iterative if reps.size >= limit else (_dense, LEVELS)))
                            for k, (proj, hop, reps) in blocks.items() if reps.size}
        self.dims = tuple(self._coupling[reps].size for _, _, reps, *_ in self._blocks.values())

    def __call__(self, gamma: float = 0.0) -> GroundSpace:
        """Lowest eigenvalue and all eigenvectors within tol_deg of it, of
        op + gamma * diag(coupling)."""
        tol_deg = self.tol_deg
        diagonal = self._op.diagonal + gamma * self._coupling
        solved = {}  # K -> (P, levels, block vectors, conjugated)
        for k, (proj, block, reps, eigensolver, count) in self._blocks.items():
            shift = diagonal[reps]
            evals, evecs = eigensolver(block, shift, min(count, shift.size))
            if evals.size < shift.size and _window(evals, tol_deg).all():
                evals, evecs = eigensolver(block, shift, shift.size)
            solved[k] = (proj, evals, evecs, False)
            if 0 < k < self.basis.d - k:  # only momentum blocks have K > 0
                solved[self.basis.d - k] = (proj, evals, evecs, True)
        # the union of the levels, sorted stably by level and then by K
        ks = np.concatenate([np.full(s[1].size, k) for k, s in solved.items()])
        slots = np.concatenate([np.arange(s[1].size) for s in solved.values()])
        evals = np.concatenate([s[1] for s in solved.values()])
        order = np.lexsort((ks, evals))
        evals, ks, slots = evals[order], ks[order], slots[order]
        sel = _window(evals, tol_deg)
        cols = []
        for k, slot in zip(ks[sel], slots[sel]):
            proj, _, evecs, conjugated = solved[k]
            vec = evecs[:, slot] if proj is None else proj @ evecs[:, slot]
            cols.append(vec.conj() if conjugated else vec)
        # re-orthonormalize (eigh already orthonormal; cheap safeguard)
        vecs, _ = np.linalg.qr(np.asarray(np.column_stack(cols), dtype=complex))
        scale = max(1.0, abs(evals[0]))
        hv = self._op.apply(vecs)
        if gamma:
            hv = hv + (gamma * self._coupling)[:, None] * vecs
        res = float(np.linalg.norm(hv - vecs * evals[sel], axis=0).max())
        if not res < RESIDUAL_TOL * scale:  # a NaN residual fails too
            raise ConvergenceError(f"residual {res:g} above tolerance")
        momenta = None if self.path == "banded" else tuple(int(k) for k in ks[sel])
        levels = evals[:LEVELS] if self.path == "momenta" else evals
        return GroundSpace(float(evals[0]), vecs, self.basis, levels, self.path, res, momenta, self.dims)


def ground_space(op: SparseOperator, tol_deg: float = 1e-9) -> GroundSpace:
    """Lowest eigenvalue and all eigenvectors within tol_deg of it, solved
    on the path ``GroundSolver`` picks for ``op``."""
    return GroundSolver(op, tol_deg=tol_deg)(0.0)


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
    n = chain.dim
    kind = getattr(chain.basis, "kind", "")
    anchor = chain.basis.sites.index(0) if kind == "two_fermion" else 0
    if not chain.hopping:  # the sites decouple: the potential site alone
        vec = np.zeros(n, dtype=complex)
        vec[anchor] = 1.0
        return vec
    diag, lower = chain.diagonal, -chain.hopping * chain.basis.phase
    lower = lower if lower.imag else lower.real
    upper = lower.conjugate()

    def toward(diag, lower, upper, stop):
        # x[n-1] = 1 and rows n-1 .. stop+1 of (h - E) x = 0, recurring
        # from the open end n-1 down to ``stop``
        x = np.zeros(n, dtype=complex)
        x[n - 1] = 1.0
        if stop == n - 1:
            return x
        x[n - 2] = (energy - diag[n - 1]) / lower * x[n - 1]
        for i in range(n - 2, stop, -1):
            x[i - 1] = ((energy - diag[i]) * x[i] - upper * x[i + 1]) / lower
            if abs(x[i - 1]) > 1e250:
                x[stop:] /= abs(x[i - 1])
        return x

    right = toward(diag, lower, upper, anchor)
    right /= right[anchor]  # anchor is the bound-state peak
    if anchor == 0:
        vec = right
    else:
        # the same recurrence on the mirrored chain, from site 0 up
        left = toward(diag[::-1], upper, lower, n - 1 - anchor)[::-1]
        vec = left / left[anchor]
        vec[anchor:] = right[anchor:]
    return vec / np.linalg.norm(vec)


# ------------------------------------------------------ full vs effective model

@dataclass(frozen=True)
class EquivalenceReport:
    effective_energies: np.ndarray
    full_energies: np.ndarray  # pair-sector levels, dropped constant restored
    fidelity: Optional[float]
    degenerate: bool
    constant: float


def spectral_equivalence_check(params: ModelParams) -> EquivalenceReport:
    """Compare the LEVELS lowest effective-model energies against
    the lowest levels of the full model (with the dropped constant
    -N(U + 4J^2/U) restored) and report the weight of the full ground
    state's normalized pair-sector part in the effective ground space.

    The levels are each model's ``GroundSpace.levels``.  A model solved on
    the sector path has K = 0 levels only, so when just one of the two
    models took it only E0 is compared: a certified model's ground level
    lies at K = 0, so its lowest K = 0 level is its E0."""
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

    eff = ground_space(build_effective_hamiltonian(params))
    full = ground_space(build_full_hamiltonian(params))

    projected = project_to_pair_sector(full.state, eff.basis)
    pnorm = projected.norm
    if pnorm == 0.0:
        fid = 0.0
    else:
        overlaps = eff.vectors.conj().T @ projected.amplitudes
        fid = float(np.sum(np.abs(overlaps) ** 2)) / pnorm**2

    same_sectors = (eff.path == "sector") == (full.path == "sector")
    k = min(LEVELS if same_sectors else 1, len(eff.levels), len(full.levels))
    return EquivalenceReport(
        effective_energies=eff.levels[:k],
        full_energies=full.levels[:k] - constant,
        fidelity=fid,
        degenerate=False,
        constant=constant,
    )
