"""Per-configuration loop references for the vectorized library code.

Each function regenerates its result one basis configuration at a time
from the elementary bitmask and fermion-operator rules, independently of
the bit-move kernel the library uses.  Tests compare the library against
them.
"""

import itertools
import math

import numpy as np

from cobosons.fock import StateVector, create_string, popcount
from cobosons.model import SparseOperator


def _bonds(m1: int, m2: int, d: int) -> int:
    """Number of k with bit k of m1 and bit k+1 (mod d) of m2 set."""
    full = (1 << d) - 1
    m2_shift = ((m2 >> 1) | (m2 << (d - 1))) & full
    return popcount(m1 & m2_shift)


def full_hamiltonian_oracle(params, basis) -> SparseOperator:
    """Full model, every hopping element and its sign from create_string."""
    d = params.d
    rows, cols, vals = [], [], []
    for col, cfg in enumerate(basis.states):
        ma, mb = cfg
        rows.append(col)
        cols.append(col)
        bonds = _bonds(ma, mb, d) + _bonds(mb, ma, d)
        vals.append(-params.u * popcount(ma & mb) - params.gamma * bonds)
        for species, mask in (("a", ma), ("b", mb)):
            for k in range(d):
                kp = (k + 1) % d
                for src, dst in ((kp, k), (k, kp)):
                    if not (mask >> src) & 1 or (mask >> dst) & 1:
                        continue  # create_string would annihilate; skipped for speed
                    res = create_string(cfg, [(species + "+", dst), (species + "-", src)])
                    if res is None:
                        continue
                    new, sign = res
                    rows.append(basis.index[new])
                    cols.append(col)
                    vals.append(-params.j * sign)
    return SparseOperator(basis, rows, cols, vals)


def matvec_effective_free(params, psi: StateVector) -> StateVector:
    """Matrix-free application of the effective Hamiltonian, regenerating
    entries from the bitmask rules; must agree with the stored operator."""
    basis = psi.basis
    d = params.d
    jbar = params.jbar
    vnn = 2.0 * params.gamma - 4.0 * params.j**2 / params.u
    full = (1 << d) - 1
    out = np.zeros(basis.size, dtype=complex)
    amp = psi.amplitudes
    for i, mask in enumerate(basis.states):
        a = amp[i]
        if a == 0:
            continue
        mask_shift = ((mask >> 1) | (mask << (d - 1))) & full
        out[i] += -vnn * popcount(mask & mask_shift) * a
        for k in range(d):
            kp = (k + 1) % d
            for src, dst in ((kp, k), (k, kp)):
                if (mask >> src) & 1 and not (mask >> dst) & 1:
                    new = (mask & ~(1 << src)) | (1 << dst)
                    out[basis.index[new]] += -jbar * a
    return StateVector(basis, out)


def effective_hamiltonian_oracle(params, basis) -> SparseOperator:
    """Effective model assembled column by column from matvec_effective_free."""
    unit = np.eye(basis.size)
    dense = np.column_stack(
        [matvec_effective_free(params, StateVector(basis, e)).amplitudes for e in unit]
    )
    rows, cols = np.nonzero(dense)
    return SparseOperator(basis, rows, cols, dense[rows, cols])


def single_pair_rdm_loop(psi: StateVector) -> np.ndarray:
    """rho^(1)_{ij} = <psi| eta_i^dag eta_j |psi> / N, one mask at a time."""
    basis = psi.basis
    d, n = basis.d, basis.n
    amp = psi.amplitudes
    rho = np.zeros((d, d), dtype=complex)
    for idx, mask in enumerate(basis.states):
        a = amp[idx]
        if a == 0:
            continue
        for j in range(d):
            if not (mask >> j) & 1:
                continue
            rho[j, j] += abs(a) ** 2
            removed = mask & ~(1 << j)
            for i in range(d):
                if i != j and not (mask >> i) & 1:
                    new = removed | (1 << i)
                    rho[i, j] += np.conj(amp[basis.index[new]]) * a
    return rho / n


def g2_loop(psi: StateVector, i: int, j: int) -> float:
    """Normal-ordered pair g2, one mask at a time (0 on site)."""
    basis = psi.basis
    prob = np.abs(psi.amplitudes) ** 2
    occ_i = occ_j = occ_ij = 0.0
    for idx, mask in enumerate(basis.states):
        bi = (mask >> i) & 1
        bj = (mask >> j) & 1
        occ_i += bi * prob[idx]
        occ_j += bj * prob[idx]
        if i != j:
            occ_ij += bi * bj * prob[idx]
    return occ_ij / (occ_i * occ_j)


def chi_direct_expansion(lambdas, n: int) -> float:
    """Brute-force subset expansion of e_N; oracle for chi_from_lambdas."""
    total = 0.0
    for subset in itertools.combinations(range(len(lambdas)), n):
        prod = 1.0
        for k in subset:
            prod *= lambdas[k]
        total += prod
    return math.factorial(n) * total
