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
    full_diagonal,
    gamma_coupling,
)

DENSE_LIMIT = 350  # lattice blocks from this size go to real Lanczos (see GroundSolver)
RESIDUAL_TOL = 1e-10
LEVELS = 4  # eigenpairs per block solve; all of them when the window holds every one


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge; carries the residual."""


@dataclass(frozen=True)
class GroundSpace:
    """Lowest eigenvalue with an orthonormal basis of its eigenspace, every
    eigenvalue the solver computed, and how they were computed.

    ``path`` names the path ``GroundSolver`` took: "sector" (one certified
    K = 0 block), "banded" (a chain) or "whole".  ``levels`` are the LEVELS
    (4) lowest levels of the block solved, ascending, or all of them when
    the degeneracy window held every one.  ``residual`` is the largest
    |H v - e v| over the ground vectors, each against its own eigenvalue e
    and the whole operator.  ``dims`` is (the dimension of the block,).
    ``vectors`` are float64 wherever the block and P are real: on
    "sector", on "whole" and on a chain with a real hop (r = 0); complex128
    on a chain with a complex hop (r != 0).
    """

    energy: float
    vectors: np.ndarray  # (dim, degeneracy), orthonormal columns; float64 unless the operator is complex
    basis: object
    levels: np.ndarray  # ascending: the lowest LEVELS eigenvalues of the block, or all of them
    path: str
    residual: float
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
def _serial_blas():
    """scipy's OpenBLAS on one thread inside the block, its count restored
    after: every ARPACK and every dense eigensolve runs under it.  Their
    steps are too small to share: on two vCPUs a 21-point sweep at
    effective d = 20, N = 8 (real Lanczos on the 3260-state block) took
    0.80 s wall and 0.80-0.96 s CPU on one thread, against 1.07-1.13 s
    wall and 1.6-2.2 s CPU on two, and one at d = 24, N = 8 6.4 s wall
    and 6.5 s CPU against 6.6 s and 11.7 s.  Dense ``eigh`` joins the
    threads once per column of its tridiagonal reduction, so a second
    thread gains little on a sector block, below DENSE_LIMIT (1.04x at
    300 states), and makes each join wait for a core that another
    process may hold.  Only a "whole" solve reaches the sizes where it
    gained 1.2x-1.7x (from 512 states: J = 0, a Lieb call with
    U <= 2 |gamma|, a hand-built operator), and no sweep does."""
    set_threads = _blas_thread_setter()
    if set_threads is None:
        yield
        return
    previous = set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def _dense(block: sp.csr_matrix, diagonal: np.ndarray, count: int, dense=None, work=None) -> tuple:
    """The count lowest eigenpairs of the real block + diag(diagonal), by
    ``eigh`` in place on a Fortran-order n x n array, on one BLAS thread
    (``_serial_blas``).  ``GroundSolver`` binds to a sector block
    ``dense``, the block as that array, and ``work``, one buffer of its
    shape: a call copies ``dense`` into ``work``, adds the diagonal and
    lets ``eigh`` overwrite it, so it allocates no n x n array.  Unbound
    (the whole operator, formed at each call) the array is made from
    ``block``."""
    if dense is None:
        work = block.toarray(order="F")
    else:
        np.copyto(work, dense)
    n = work.shape[0]
    work.ravel(order="F")[:: n + 1] += diagonal  # a view: work is Fortran-contiguous
    with _serial_blas():
        return la.eigh(work, overwrite_a=True, subset_by_index=None if count == n else [0, count - 1])


def _inverse_step(block: sp.csr_matrix, diagonal: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """(block + diag(diagonal))^-1 vecs on a dense copy: one step of
    inverse iteration, which the QR in ``GroundSolver.__call__``
    normalizes.  Dense ``eigh`` vectors of the whole operator are good to
    about eps * |H| / gap, with the gap to the next level of any symmetry
    sector (3.8e-5 at effective d = 10, N = 5, Jbar = -1, gammabar = 12,
    where that put the ground projector 1.25e-10 off); the step at the
    window's width below E0 refines them to about eps * |H|."""
    a = block.toarray()
    a.flat[:: a.shape[0] + 1] += diagonal
    return np.linalg.solve(a, vecs)


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


def _arpack(block: sp.csr_matrix, diagonal: np.ndarray, count: int, start: np.ndarray) -> tuple:
    """The count lowest Ritz pairs of the real block + diag(diagonal) by
    real Lanczos (ARPACK ``eigsh``) from the deterministic vector
    ``start`` (``_start``, which overlaps the ground vector of a certified
    block), ascending, under ``_serial_blas``.  ``eigsh`` needs count < n:
    a larger count is a degenerate window that ARPACK cannot hold.  Every
    ARPACK failure is a ``ConvergenceError``."""
    n = block.shape[0]
    if count >= n:
        raise ConvergenceError("degenerate window exceeds the computed spectrum")
    mat = block + sp.diags(diagonal) if diagonal.any() else block
    try:
        with _serial_blas():
            evals, evecs = spla.eigsh(mat, k=count, which="SA", v0=start, tol=0)
    except spla.ArpackError as exc:
        raise ConvergenceError(f"ARPACK failed: {exc}") from exc
    order = np.argsort(evals)
    return evals[order], evecs[:, order]


def _start(basis, reps: np.ndarray) -> np.ndarray:
    """The normalized indicator of the block columns whose representative
    is paired (mask_a == mask_b; every column on a PairBasis or when none
    is).  It overlaps every certified ground vector: a Perron vector is
    positive, and a Lieb one has weight Tr W > 0 on the paired states,
    whose orbits under T, R and S hold paired states only, each with
    sign +1 (``docs/decisions.md`` §6)."""
    paired = np.ones(reps.size, dtype=bool)
    if isinstance(basis, FullBasis):
        i_a, i_b = np.divmod(reps, basis.masks_b.size)
        paired = basis.masks_a[i_a] == basis.masks_b[i_b]
        paired = paired if paired.any() else ~paired
    return paired / math.sqrt(paired.sum())


def _lieb_couplings(op: SparseOperator, coupling: np.ndarray) -> Optional[tuple]:
    """(U, gamma, kappa) when D is ``full_diagonal(basis, U, gamma)`` for
    the (U, gamma) the operator records (``build_full_hamiltonian``) and
    the coupling is kappa * ``gamma_coupling(basis)`` (-kappa * bonds),
    both re-formed and compared bit for bit, on a FullBasis with
    N_A = N_B and t > 0; else None.  kappa is read on the state with the
    most bonds.  D's rounding does not fix U and gamma above half
    filling, where every state has both an on-site pair and a bond, so
    they are not read back from D's bits."""
    basis = op.basis
    if not (isinstance(basis, FullBasis) and basis.n_a == basis.n_b and op.hopping > 0 and op.couplings):
        return None
    (u, gamma), unit = op.couplings, gamma_coupling(basis)
    most = np.argmin(unit)
    kappa = float(coupling[most]) / float(unit[most]) if unit[most] else 0.0
    if np.array_equal(full_diagonal(basis, u, gamma), op.diagonal) and np.array_equal(kappa * unit, coupling):
        return float(u), float(gamma), kappa
    return None


def _certify(op: SparseOperator, coupling: np.ndarray) -> tuple:
    """(path, reflect, swap, lieb) of a builder operator diag(D) - t * hop
    with the coupling c on a PairBasis or FullBasis.  The hop is
    symmetric, invariant under T, the bare site reflection R and (with
    N_A = N_B) the bare species swap S, and connected by construction
    (``fock._hop``), so D, t, c and the signs of T decide:
    - "sector" by Perron-Frobenius, at every gamma: D and c fixed by T,
      every sign of T +1 (then every hop entry is > 0), and t > 0 or
      dim = 1;
    - "sector" by spin-reflection positivity, at each gamma with
      U > 2 |gamma_0 + kappa * gamma|: ``lieb`` = (U, gamma_0, kappa)
      from ``_lieb_couplings``;
    - "whole" otherwise.
    Either certificate makes the ground state even under every one of
    these symmetries that commutes with the operator, so the block keeps
    R (``reflect``) when R fixes D and c, and S (``swap``, a FullBasis
    with N_A = N_B) when S does (``docs/decisions.md`` §6)."""
    basis = op.basis
    index, sign = basis.translation_table()

    def fixed(perm) -> bool:
        return np.array_equal(op.diagonal[perm], op.diagonal) and np.array_equal(coupling[perm], coupling)

    lieb = None
    if not (fixed(index) and np.all(sign == 1) and (op.dim == 1 or op.hopping > 0)):
        lieb = _lieb_couplings(op, coupling)
        if lieb is None:
            return "whole", False, False, None
    swap = isinstance(basis, FullBasis) and basis.n_a == basis.n_b and fixed(basis.swap_index())
    return "sector", fixed(basis.reflection_index()), swap, lieb


def _hold_square(n: int, chain: bool) -> None:
    """CapacityError when the n x n array that ``_banded`` or ``_dense``
    of a whole operator allocates exceeds MAX_BASIS_STATES entries
    (n > 4096, 128 MB)."""
    if n * n > MAX_BASIS_STATES:
        what = f"a chain of {n} sites" if chain else f"an operator that no certificate covers, of {n} states,"
        raise CapacityError(f"{what} needs {n}^2 > {MAX_BASIS_STATES} matrix entries")


class GroundSolver:
    """Ground spaces of op + gamma * diag(coupling), op = diag(D) - t * hop.

    ``__init__`` does everything that does not depend on gamma and keeps
    at most one block, (P or None, block, reps, eigensolver): the block at
    gamma is block + diag((D + gamma * coupling)[reps]), and the
    eigensolver, fixed by the block's structure and size, takes (block,
    diagonal, count) and returns the count lowest eigenpairs.  tol_deg
    must be finite and > 0.  The paths (``docs/decisions.md`` §4, §6):
    - "sector", at any size, when a certificate (``_certify``) makes the
      ground state unique and places it in one block of
      ``basis.hop_block(reflect, swap)``: the K = 0 states, even under
      the site reflection R when R fixes the operator and the coupling,
      and under the species swap S when S does.  Perron-Frobenius holds
      at every gamma; spin-reflection positivity (the even-N full model)
      at each gamma with U > 2 |gamma_0 + kappa * gamma|, and a call
      outside that range solves the whole operator, path "whole".  The
      gamma term of the block is diag(coupling[reps]), exact because the
      coupling is constant on each orbit.  ``_dense`` below DENSE_LIMIT
      states, bound to the block's dense copy and a work buffer, real
      Lanczos (``_arpack``, from ``_start``) from it: where Lanczos wins
      at count 4 on one BLAS thread (README "Ground solver");
    - "banded", on a ChainBasis (the relative chains): the whole chain,
      its band (``_band``) with no P and every site as reps, by
      ``_banded``;
    - "whole", for an operator that no certificate covers: -t * hop with
      no P and every state as reps, formed at each call, by ``_dense``
      unbound, its window vectors refined by ``_inverse_step``.
    ``_banded`` and ``_dense`` of a whole operator allocate n x n, so n^2
    is held to MAX_BASIS_STATES (``CapacityError``) before anything is
    built: in ``__init__``, or at the call that falls back to "whole".
    The tables of the unit hop and its symmetries are built once per
    sector; the checks of the operator's own parts run in every
    ``__init__``.

    A call ``solver(gamma)`` forms D + gamma * coupling once, solves the
    block for its LEVELS (4) lowest levels, or for all of them when the
    degeneracy window holds every level returned, applies the window,
    lifts the vectors inside it with P, and checks each against its own
    eigenvalue and the whole operator at that gamma (``op.apply``).  The
    vectors stay real wherever the block and P are (``GroundSpace``), so
    the residual reads the int8 hop at 8 bytes per entry.  The
    window tol_deg and the residual bound RESIDUAL_TOL both scale with
    max(1, |E0|), so levels split by less than the window stay in the
    ground space.
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
        self._block, self._lieb = None, None
        if not isinstance(op.basis, (PairBasis, FullBasis)):
            _hold_square(n, chain=True)
            self.path, self._block = "banded", (None, _band(op), slice(None), _banded)
        else:
            self.path, reflect, swap, self._lieb = _certify(op, self._coupling)
            if self.path == "whole":
                _hold_square(n, chain=False)
            else:
                proj, hop, reps = op.basis.hop_block(reflect, swap)
                block = hop * -op.hopping
                if reps.size < DENSE_LIMIT:
                    # the dense copy and the work buffer, Fortran-order, in one
                    # allocation: as two, their release with each solver let
                    # malloc trim the heap and fault the pages in again, about
                    # 520 more minor faults per effective d = 16, N = 6 sweep
                    kept = np.empty(block.shape + (2,), order="F")
                    kept[:, :, 0] = block.toarray()
                    eigensolver = functools.partial(_dense, dense=kept[:, :, 0], work=kept[:, :, 1])
                else:
                    eigensolver = functools.partial(_arpack, start=_start(op.basis, reps))
                self._block = (proj, block, reps, eigensolver)
        self.dims = (n,) if self._block is None else (self._coupling[self._block[2]].size,)

    def _whole(self) -> tuple:
        """The block record of the whole operator: -t * hop, no P, every
        state as reps, solved by ``_dense``."""
        _hold_square(self._op.dim, chain=False)
        return None, self.basis.hop() * -self._op.hopping, slice(None), _dense

    def __call__(self, gamma: float = 0.0) -> GroundSpace:
        """Lowest eigenvalue and all eigenvectors within tol_deg of it, of
        op + gamma * diag(coupling)."""
        tol_deg = self.tol_deg
        path, block = self.path, self._block
        if self._lieb is not None:
            u, gamma_0, kappa = self._lieb
            if not u > 2.0 * abs(gamma_0 + kappa * gamma):
                path, block = "whole", None
        proj, matrix, reps, eigensolver = self._whole() if block is None else block
        diagonal = self._op.diagonal + gamma * self._coupling
        shift = diagonal[reps]
        evals, evecs = eigensolver(matrix, shift, min(LEVELS, shift.size))
        if evals.size < shift.size and _window(evals, tol_deg).all():
            evals, evecs = eigensolver(matrix, shift, shift.size)
        sel = _window(evals, tol_deg)
        scale = max(1.0, abs(evals[0]))
        vecs = evecs[:, sel] if proj is None else proj @ evecs[:, sel]
        if path == "whole":  # below E0 by the window's width, and strictly below it
            below = min(evals[0] - tol_deg * scale, np.nextafter(evals[0], -np.inf))
            vecs = _inverse_step(matrix, shift - below, vecs)
        # orthonormal columns: the refined ones, and a cheap safeguard on the rest
        vecs, _ = np.linalg.qr(vecs)
        hv = self._op.apply(vecs)
        if gamma:
            hv = hv + (gamma * self._coupling)[:, None] * vecs
        res = float(np.linalg.norm(hv - vecs * evals[sel], axis=0).max())
        if not res < RESIDUAL_TOL * scale:  # a NaN residual fails too
            raise ConvergenceError(f"residual {res:g} above tolerance")
        return GroundSpace(float(evals[0]), vecs, self.basis, evals, path, res, (shift.size,))


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

    The levels are each model's ``GroundSpace.levels``: of the
    reflection-even K = 0 block for the effective model, and of the
    K = 0 block even under the reflection and the species swap for the
    full model, at every N."""
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

    k = min(LEVELS, len(eff.levels), len(full.levels))
    return EquivalenceReport(
        effective_energies=eff.levels[:k],
        full_energies=full.levels[:k] - constant,
        fidelity=fid,
        degenerate=False,
        constant=constant,
    )
