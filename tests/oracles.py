"""Per-configuration loop references for the vectorized library code.

Each function regenerates its result one basis configuration at a time
from the elementary bitmask and fermion-operator rules, independently of
the bit-move kernel the library uses.  Tests compare the library against
them.
"""

import itertools
import math

import numpy as np

from cobosons.fock import FullBasis, PairBasis, StateVector, create_string, popcount
from cobosons.model import SparseOperator


def configs(basis) -> list:
    """The basis configurations as Python ints (pair) or (mask_a, mask_b)
    tuples (full), in basis order."""
    if isinstance(basis, FullBasis):
        return [tuple(row) for row in basis.states.tolist()]
    return basis.states.tolist()


def index_of(basis) -> dict:
    """{configuration: position}, built from the basis states alone."""
    return {cfg: i for i, cfg in enumerate(configs(basis))}


def _bonds(m1: int, m2: int, d: int) -> int:
    """Number of k with bit k of m1 and bit k+1 (mod d) of m2 set."""
    full = (1 << d) - 1
    m2_shift = ((m2 >> 1) | (m2 << (d - 1))) & full
    return popcount(m1 & m2_shift)


def full_hamiltonian_oracle(params, basis) -> SparseOperator:
    """Full model, every hopping element and its sign from create_string."""
    d = params.d
    index = index_of(basis)
    rows, cols, vals = [], [], []
    for col, cfg in enumerate(configs(basis)):
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
                    rows.append(index[new])
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
    index = index_of(basis)
    out = np.zeros(basis.size, dtype=complex)
    amp = psi.amplitudes
    for i, mask in enumerate(configs(basis)):
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
                    out[index[new]] += -jbar * a
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
    index = index_of(basis)
    rho = np.zeros((d, d), dtype=complex)
    for idx, mask in enumerate(configs(basis)):
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
                    rho[i, j] += np.conj(amp[index[new]]) * a
    return rho / n


def g2_loop(psi: StateVector, i: int, j: int) -> float:
    """Normal-ordered pair g2, one mask at a time (0 on site)."""
    basis = psi.basis
    prob = np.abs(psi.amplitudes) ** 2
    occ_i = occ_j = occ_ij = 0.0
    for idx, mask in enumerate(configs(basis)):
        bi = (mask >> i) & 1
        bj = (mask >> j) & 1
        occ_i += bi * prob[idx]
        occ_j += bj * prob[idx]
        if i != j:
            occ_ij += bi * bj * prob[idx]
    return occ_ij / (occ_i * occ_j)


def _shift_mask(mask: int, shift: int, d: int) -> int:
    shift %= d
    full = (1 << d) - 1
    return ((mask << shift) | (mask >> (d - shift))) & full if shift else mask


def translate_loop(state: StateVector, shift: int) -> StateVector:
    """Cyclic site shift k -> k + shift (mod d), one configuration at a
    time, with a (-1)^(n-1) sign per wrapped mode within each species."""
    basis = state.basis
    d = basis.d
    shift %= d
    index = index_of(basis)
    amp = np.zeros(basis.size, dtype=complex)
    if isinstance(basis, PairBasis):
        for i, mask in enumerate(configs(basis)):
            amp[index[_shift_mask(mask, shift, d)]] = state.amplitudes[i]
        return StateVector(basis, amp)
    sign_a = -1 if (basis.n_a - 1) & 1 else 1
    sign_b = -1 if (basis.n_b - 1) & 1 else 1
    top = (1 << d) - (1 << (d - shift)) if shift else 0
    for i, (ma, mb) in enumerate(configs(basis)):
        sign = sign_a ** popcount(ma & top) * sign_b ** popcount(mb & top)
        new = (_shift_mask(ma, shift, d), _shift_mask(mb, shift, d))
        amp[index[new]] = sign * state.amplitudes[i]
    return StateVector(basis, amp)


def embed_pair_state_loop(state: StateVector, full) -> StateVector:
    """Pair-basis state written into the full basis, mask by mask."""
    index = index_of(full)
    amp = np.zeros(full.size, dtype=complex)
    for i, mask in enumerate(configs(state.basis)):
        amp[index[(mask, mask)]] = state.amplitudes[i]
    return StateVector(full, amp)


def project_to_pair_sector_loop(state: StateVector, pair) -> StateVector:
    """Doubly-occupied amplitudes of a full-basis state, mask by mask."""
    index = index_of(state.basis)
    amp = np.array([state.amplitudes[index[(m, m)]] for m in configs(pair)], dtype=complex)
    return StateVector(pair, amp)


def chi_direct_expansion(lambdas, n: int) -> float:
    """Brute-force subset expansion of e_N; oracle for chi_from_lambdas."""
    total = 0.0
    for subset in itertools.combinations(range(len(lambdas)), n):
        prod = 1.0
        for k in subset:
            prod *= lambdas[k]
        total += prod
    return math.factorial(n) * total
