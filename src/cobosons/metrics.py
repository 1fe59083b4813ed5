"""Composite-boson quality measures: Schmidt spectrum and purity, the chi
ladder factors (closed form and explicit-construction oracle), the
square-norm separability test, fidelities, the single-pair reduced density
matrix, g2 correlations, and the partition energy ledger.

The chi oracles work in exact rational arithmetic; floating point enters
only through eigensolving and fidelities.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .ansatz import Partition, build_partition_state
from .fock import (
    MAX_BASIS_STATES,
    BasisMismatchError,
    CapacityError,
    PairBasis,
    StateVector,
    popcount,
)
from .model import SparseOperator, build_effective_from_bars
from .solve import GroundSpace


# ----------------------------------------------------------- Schmidt spectrum

@dataclass(frozen=True)
class SchmidtSpectrum:
    """Squared singular values of the two-species amplitude matrix."""

    lambdas: np.ndarray  # non-increasing, sums to 1

    @property
    def purity(self) -> float:
        return float(np.sum(self.lambdas**2))


def schmidt_spectrum(matrix: np.ndarray) -> SchmidtSpectrum:
    mat = np.asarray(matrix, dtype=complex)
    nrm = np.linalg.norm(mat)
    if nrm == 0.0:
        raise ValueError("zero amplitude matrix has no Schmidt spectrum")
    if abs(nrm - 1.0) > 1e-12:
        warnings.warn("amplitude matrix not normalized; renormalizing")
        mat = mat / nrm
    svals = np.linalg.svd(mat, compute_uv=False)
    lams = np.sort(svals**2)[::-1]
    return SchmidtSpectrum(lams / lams.sum())


# ------------------------------------------------------------- chi factors

def chi_closed(d: int, n: int, m: int = 1) -> Fraction:
    """Closed-form chi_N^(M) = prod_{i=1..N} (d - N M + i) / d^N.

    For M = 1 this is d! / (d^N (d-N)!).  Zero when N M > d.
    """
    if d < 1 or n < 1 or m < 1:
        raise ValueError("need d, N, M >= 1")
    if n * m > d:
        return Fraction(0)
    num = 1
    for i in range(1, n + 1):
        num *= d - n * m + i
    return Fraction(num, d**n)


def chi_oracle_steps(d: int, m: int = 1):
    """chi_N^(M) for N = 1, 2, ..., d // M in turn, from the explicit norms
    of the block-creation states (sum_k B_k)^N |0>, one expansion step
    per entry.

    Blocks of M adjacent pairs are laid on the open chain (start sites
    0..d-M), matching the stars-and-bars count behind the closed form;
    see the wrap-around note in the README.  Each step keeps the occupied
    masks and their integer amplitudes (multiples of d^{-N/2}); adding a
    block to every mask it does not overlap and merging equal masks (a
    sort and ``np.add.reduceat``) gives the next step.  An amplitude
    counts ordered block sequences, so it is below (d-M+1)^N: int64 while
    that bound stays below 2^63, Python ints from the first step where it
    does not.  A step with more than ``fock.MAX_BASIS_STATES`` candidates
    (masks * (d-M+1)) raises ``CapacityError`` before it is built, after
    every entry before it has been yielded.
    """
    if d < 1 or m < 1:
        raise ValueError("need d, N, M >= 1")
    if d > 24:
        raise CapacityError(f"oracle capacity is d <= 24, got {d}")
    starts = d - m + 1
    blocks = ((1 << m) - 1) << np.arange(starts, dtype=np.int64)
    masks = np.zeros(1, dtype=np.int64)
    amps = np.ones(1, dtype=np.int64)
    for n in range(1, d // m + 1):
        if masks.size * starts > MAX_BASIS_STATES:
            raise CapacityError(f"chi oracle step N = {n} at d = {d}, M = {m} has "
                                f"{masks.size * starts} candidates, above {MAX_BASIS_STATES}")
        if starts**n >= 2**63:
            amps = amps.astype(object)
        free = [(masks & block) == 0 for block in blocks]
        grown = np.concatenate([masks[sel] | block for sel, block in zip(free, blocks)])
        order = np.argsort(grown, kind="stable")
        grown, weights = grown[order], np.concatenate([amps[sel] for sel in free])[order]
        first = np.flatnonzero(np.r_[True, grown[1:] != grown[:-1]])
        masks, amps = grown[first], np.add.reduceat(weights, first)
        values, counts = np.unique(amps, return_counts=True)
        norm_sq = sum(int(v) ** 2 * int(c) for v, c in zip(values, counts))
        yield Fraction(norm_sq, d**n * math.factorial(n))


def chi_oracle_series(d: int, n_max: int, m: int = 1) -> tuple:
    """(chi_1^(M), ..., chi_{n_max}^(M)) from one expansion
    (``chi_oracle_steps``); the entries with N M > d are 0."""
    if n_max < 1:
        raise ValueError("need d, N, M >= 1")
    series = tuple(itertools.islice(chi_oracle_steps(d, m), n_max))
    return series + (Fraction(0),) * (n_max - len(series))


def chi_oracle(d: int, n: int, m: int = 1) -> Fraction:
    """chi_N^(M) from the explicit norm of the N-fold block-creation state:
    the last entry of ``chi_oracle_series(d, n, m)``, and 0 without an
    expansion when N M > d."""
    if d < 1 or n < 1 or m < 1:
        raise ValueError("need d, N, M >= 1")
    if d > 24:
        raise CapacityError(f"oracle capacity is d <= 24, got {d}")
    if n * m > d:
        return Fraction(0)
    return chi_oracle_series(d, n, m)[-1]


# ------------------------------------------------------------- ladder report

@dataclass(frozen=True)
class LadderReport:
    d: int
    m: int
    chis: tuple  # Fractions, index N = 0 .. n_max + 1
    alpha_sq: tuple  # Fractions chi_N / chi_{N-1}, N = 1 .. n_max
    eps_norms: tuple  # Fractions <eps_N|eps_N>, N = 1 .. n_max


def ratio_lower_bound(d: int, n: int, m: int) -> Fraction:
    """Lower bound on chi_{N+1}^(M) / chi_N^(M):
    (1 - (N+1)(M-1)/d) * (1 - M/(d+1-NM))^N."""
    return (1 - Fraction((n + 1) * (m - 1), d)) * (1 - Fraction(m, d + 1 - n * m)) ** n


def ladder_report(d: int, n_max: int, m: int = 1) -> LadderReport:
    if n_max * m > d:
        raise ValueError(f"need N_max*M <= d, got {n_max}*{m} > {d}")
    chis = tuple(chi_closed(d, n, m) if n else Fraction(1) for n in range(n_max + 2))
    alpha_sq = tuple(chis[n] / chis[n - 1] for n in range(1, n_max + 1))
    eps = []
    for n in range(1, n_max + 1):
        val = 1 - n * chis[n] / chis[n - 1] + (n - 1) * chis[n + 1] / chis[n]
        if m == 1 and val != 0:
            raise AssertionError(f"epsilon norm must vanish for M=1, got {val}")
        eps.append(val)
    return LadderReport(d, m, chis, alpha_sq, tuple(eps))


# ---------------------------------------------------------- square-norm test

@dataclass(frozen=True)
class SquareNormReport:
    norm_sq: float
    omega_star: Optional[float]  # only for a declared product structure
    factor_count: Optional[int]


def _apply_string(mask: int, modes, sign: int):
    for k in reversed(modes):
        bit = 1 << k
        if mask & bit:
            return None
        if popcount(mask & (bit - 1)) & 1:
            sign = -sign
        mask |= bit
    return mask, sign


def _combine_factors(factors):
    strings = [(1.0, ())]
    for factor in factors:
        strings = [
            (c0 * c1, modes0 + tuple(modes1))
            for c0, modes0 in strings
            for c1, modes1 in factor
        ]
    return strings


def square_norm_test(strings=None, factors=None) -> SquareNormReport:
    """Norm of c^dag 2 |0> for a creation operator given as a weighted sum
    of fermionic creation strings (mode tuples, single species).

    With a declared s-fold product structure (``factors``: one string list
    per factor, disjoint modes, each normalized) the overlap weight
    omega_star is also returned, so norm_sq = 2^s (1 - omega_star) can be
    checked against the explicit construction.
    """
    if (strings is None) == (factors is None):
        raise ValueError("give exactly one of strings / factors")
    omega_star = None
    count = None
    if factors is not None:
        count = len(factors)
        used = set()
        survive = 1.0
        for factor in factors:
            weight = sum(abs(c) ** 2 for c, _ in factor)
            if abs(weight - 1.0) > 1e-10:
                raise ValueError("each factor must be normalized")
            modes = set(itertools.chain.from_iterable(m for _, m in factor))
            if modes & used:
                raise ValueError("factors must act on disjoint modes")
            used |= modes
            overlap = sum(
                abs(c1) ** 2 * abs(c2) ** 2
                for c1, m1 in factor
                for c2, m2 in factor
                if set(m1) & set(m2)
            )
            survive *= 1.0 - overlap
        omega_star = 1.0 - survive
        strings = _combine_factors(factors)

    all_modes = set(itertools.chain.from_iterable(m for _, m in strings))
    if len(all_modes) > 32:
        raise ValueError(f"capacity is 32 modes, got {len(all_modes)}")

    amp = {}
    for c1, m1 in strings:
        for c2, m2 in strings:
            res = _apply_string(0, m2, 1)
            if res is None:
                continue
            res = _apply_string(res[0], m1, res[1])
            if res is None:
                continue
            mask, sign = res
            amp[mask] = amp.get(mask, 0.0) + sign * c1 * c2
    norm_sq = float(sum(abs(a) ** 2 for a in amp.values()))
    return SquareNormReport(norm_sq, omega_star, count)


# ------------------------------------------------------------------ fidelity

def fidelity(psi: StateVector, target) -> float:
    """|<target|psi>|^2 for a vector target, squared projection norm for a
    ground space; invariant under global phases.  The ground-space overlaps
    are an einsum, not a BLAS product: OpenBLAS threads that product on a
    vector of about 1e5 states, where on two vCPUs it ran 8x slower and
    left a thread spinning for about 50 ms after each call, and its last
    digits followed the thread count."""
    if isinstance(target, GroundSpace):
        if not (target.basis is psi.basis or target.basis == psi.basis):
            raise BasisMismatchError("state and ground space bases differ")
        return float(np.sum(np.abs(np.einsum("ik,i->k", target.vectors.conj(), psi.amplitudes)) ** 2))
    if not (target.basis is psi.basis or target.basis == psi.basis):
        raise BasisMismatchError("states live in different bases")
    return float(abs(np.vdot(target.amplitudes, psi.amplitudes)) ** 2)


# --------------------------------------------------- single-pair density matrix

def single_pair_rdm(psi: StateVector) -> np.ndarray:
    """rho^(1)_{ij} = <psi| eta_i^dag eta_j |psi> / N on the pair basis."""
    basis = psi.basis
    if not isinstance(basis, PairBasis):
        raise BasisMismatchError("single-pair RDM is defined on the pair basis")
    if basis.n == 0:
        raise ValueError(f"single-pair RDM needs N >= 1 pairs, got a zero-pair state on d = {basis.d}")
    # eta_i^dag eta_j joins the (N-1)-pair rest m to a pair at j or at i:
    # rho_ij = sum_m conj(A[m, i]) A[m, j] / N with A[m, k] = psi(m | 1 << k),
    # and 0 where m holds k (the basis's gather table points past the end)
    amp = np.append(psi.amplitudes, 0)[basis.rdm_gather()]
    return amp.conj().T @ amp / basis.n


def single_pair_purity(psi: StateVector):
    """Returns (rdm, P1) with P1 = Tr[(rho^(1))^2]."""
    rho = single_pair_rdm(psi)
    return rho, float(np.sum(np.abs(rho) ** 2))


# ---------------------------------------------------------------- g2 function

def g2(psi: StateVector, i: int, j: int) -> float:
    """Normal-ordered pair correlation
    <eta_i^dag eta_j^dag eta_j eta_i> / (<n_i><n_j>), from raw expectation
    values (never from closed forms).  Hard-core pairs cannot share a
    site, so the on-site value g2(psi, i, i) is 0.  The occupation sums
    are einsums, not BLAS dot products: OpenBLAS threads a dot product of
    about 1e5 states, and its last digit then followed the thread count
    (effective d = 20, N = 8)."""
    basis = psi.basis
    if not isinstance(basis, PairBasis):
        raise BasisMismatchError("g2 is defined on the pair basis")
    d, n = basis.d, basis.n
    if not (0 <= i < d and 0 <= j < d):
        raise ValueError(f"sites ({i}, {j}) outside [0, d={d})")
    occ = basis.occupation()
    prob = np.abs(psi.amplitudes) ** 2
    occ_i = float(np.einsum("k,k->", prob, occ[:, i]))
    occ_j = float(np.einsum("k,k->", prob, occ[:, j]))
    occ_ij = float(np.einsum("k,k->", prob, occ[:, i] & occ[:, j])) if i != j else 0.0
    if occ_i == 0.0 or occ_j == 0.0:
        raise ValueError("zero mean occupation; g2 undefined")
    if abs(occ_i - n / d) > 1e-8 or abs(occ_j - n / d) > 1e-8:
        warnings.warn("state is not translation invariant; <n_i> != N/d")
    return occ_ij / (occ_i * occ_j)


# --------------------------------------------------------------- energy ledger

@dataclass(frozen=True)
class EnergyLedger:
    n: int
    jbar: float
    gammabar: float
    entries: tuple  # (M, energy) for M = 1 .. N
    threshold_bars: Fraction  # gammabar/Jbar at the M=1 / M=N crossing
    threshold_gamma_u: Fraction  # same point as gamma*U/J^2

    def energy(self, m: int) -> float:
        return dict(self.entries)[m]


def ledger_energy(n: int, m: int, jbar: float, gammabar: float) -> float:
    """<M+1+...+1|H_eff|M+1+...+1> under the non-adjacency assumption:
    -(M-1)*gammabar - 2*(N - M + delta_{M,1})*Jbar."""
    delta = 1 if m == 1 else 0
    return -(m - 1) * gammabar - 2.0 * (n - m + delta) * jbar


def energy_ledger(n: int, jbar: float, gammabar: float) -> EnergyLedger:
    if n < 2:
        raise ValueError("ledger needs N >= 2")
    entries = tuple((m, ledger_energy(n, m, jbar, gammabar)) for m in range(1, n + 1))
    thr = Fraction(2 * n, n - 1)
    return EnergyLedger(n, jbar, gammabar, entries, thr, 2 + thr)


@dataclass(frozen=True)
class LedgerDeviation:
    d: int
    partition: Partition
    exact: float
    predicted: float


def ledger_vs_exact_check(d, n, partition, jbar, gammabar) -> LedgerDeviation:
    """Exact <H_eff> on the constructed partition state vs the ledger value
    -2 r Jbar - (N - k) gammabar (r singleton parts, k parts total)."""
    if not isinstance(partition, Partition):
        partition = Partition(tuple(partition))
    if partition.total != n:
        raise ValueError(f"partition {partition} does not sum to N={n}")
    state, _ = build_partition_state(d, partition)
    h_eff = build_effective_from_bars(d, n, jbar, gammabar)
    exact = h_eff.expectation(state).real
    r = sum(1 for m in partition.parts if m == 1)
    k = len(partition.parts)
    predicted = -2.0 * r * jbar - (n - k) * gammabar
    return LedgerDeviation(d, partition, exact, predicted)
