"""Per-configuration loop references for the vectorized library code.

Each function regenerates its result one basis configuration at a time
from the elementary bitmask and fermion-operator rules, independently of
the bit-move kernel the library uses.  Tests compare the library against
them.

The scalar fermion operators act on ``(mask_a, mask_b)`` tuples of ints,
with the library's canonical ordering: all a-type creation operators in
ascending mode order, then all b-type ones in ascending mode order.
"""

import cmath
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import root
from scipy.sparse.csgraph import connected_components

from cobosons.fock import (
    FullBasis,
    PairBasis,
    StateVector,
    _SectorTables,
    fix_phase,
    full_basis,
    popcount,
    translation,
)


# ------------------------------------------------------- scalar fermion operators

def _lower_sign(mask: int, k: int) -> int:
    return -1 if popcount(mask & ((1 << k) - 1)) & 1 else 1


def fermion_a_create(cfg, k: int):
    """a^dag_k on (mask_a, mask_b); returns ((mask_a', mask_b), sign) or None."""
    ma, mb = cfg
    bit = 1 << k
    if ma & bit:
        return None
    return (ma | bit, mb), _lower_sign(ma, k)


def fermion_a_annihilate(cfg, k: int):
    ma, mb = cfg
    bit = 1 << k
    if not ma & bit:
        return None
    return (ma & ~bit, mb), _lower_sign(ma, k)


def fermion_b_create(cfg, k: int):
    """b^dag_k; crosses the whole a-string, hence the popcount(mask_a) factor."""
    ma, mb = cfg
    bit = 1 << k
    if mb & bit:
        return None
    sign = _lower_sign(mb, k) * (-1 if popcount(ma) & 1 else 1)
    return (ma, mb | bit), sign


def fermion_b_annihilate(cfg, k: int):
    ma, mb = cfg
    bit = 1 << k
    if not mb & bit:
        return None
    sign = _lower_sign(mb, k) * (-1 if popcount(ma) & 1 else 1)
    return (ma, mb & ~bit), sign


def create_string(cfg, ops) -> tuple:
    """Apply a product of elementary operators, rightmost first.

    ``ops`` is a sequence of ("a+"|"a-"|"b+"|"b-", k) pairs written in
    operator order (leftmost first).  Returns (cfg, sign) or None if the
    string annihilates the configuration.
    """
    table = {
        "a+": fermion_a_create,
        "a-": fermion_a_annihilate,
        "b+": fermion_b_create,
        "b-": fermion_b_annihilate,
    }
    sign = 1
    for name, k in reversed(ops):
        res = table[name](cfg, k)
        if res is None:
            return None
        cfg, s = res
        sign *= s
    return cfg, sign


# ---------------------------------------------------------------- references


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


def canonical_csr(matrix) -> sp.csr_matrix:
    """A CSR copy of ``matrix`` with duplicates summed and zeros dropped,
    float64 unless some entry has a nonzero imaginary part."""
    mat = sp.csr_matrix(matrix, copy=True)  # summed and pruned in place below
    mat.sum_duplicates()
    mat.eliminate_zeros()
    if np.iscomplexobj(mat) and not mat.data.imag.any():
        mat.data = mat.data.real.copy()  # astype(float) would warn about the imaginary part
    return mat.astype(complex if np.iscomplexobj(mat) else float, copy=False)


def full_hamiltonian_oracle(params, basis) -> sp.csr_matrix:
    """Full model, every hopping element and its sign from create_string,
    as a canonical CSR matrix (``canonical_csr``)."""
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
    return canonical_csr(sp.coo_matrix((vals, (rows, cols)), shape=(basis.size,) * 2))


def relative_chain_oracle(kind: str, params, r: int, cutoff: int) -> sp.csr_matrix:
    """The relative chain of ``build_relative_chain`` assembled from its
    three diagonals, hop h = -J(1 + e^{i 2 pi r / d}) (Jbar on two_pair)
    below the main one and its conjugate above, as a canonical CSR
    matrix (``canonical_csr``)."""
    phase = cmath.exp(2j * cmath.pi * r / params.d)
    if kind == "two_fermion":
        sites, hop, site, onsite = list(range(-cutoff, cutoff + 1)), -params.j * (1 + phase), 0, -params.u
    else:
        sites, hop, site, onsite = list(range(1, cutoff + 1)), -params.jbar * (1 + phase), 1, -params.gammabar
    diag = np.zeros(len(sites))
    diag[sites.index(site)] = onsite
    off = np.full(len(sites) - 1, hop)
    return canonical_csr(sp.diags([off, diag, off.conj()], [-1, 0, 1], dtype=complex))


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


def effective_hamiltonian_oracle(params, basis) -> sp.csr_matrix:
    """Effective model assembled column by column from matvec_effective_free,
    as a canonical CSR matrix (``canonical_csr``)."""
    unit = np.eye(basis.size)
    dense = np.column_stack(
        [matvec_effective_free(params, StateVector(basis, e)).amplitudes for e in unit]
    )
    return canonical_csr(dense)


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


def partition_configs_loop(d: int, parts) -> set:
    """Every configuration of the block-creation product of ``parts``:
    each block of m adjacent sites (periodic) placed one at a time on the
    sites the earlier blocks left free."""
    configs = {0}
    for m in parts:
        blocks = [_shift_mask((1 << m) - 1, k, d) for k in range(d)]
        configs = {c | b for c in configs for b in blocks if not c & b}
    return configs


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


def chi_from_lambdas(lambdas, n: int) -> float:
    """chi_N of a generic bi-fermion with Schmidt coefficients lambda_k:
    N! times the elementary symmetric polynomial e_N(lambda)."""
    e = np.zeros(n + 1)
    e[0] = 1.0
    for lam in lambdas:
        e[1:] = e[1:] + lam * e[:-1]
    return math.factorial(n) * float(e[n])


def chi_direct_expansion(lambdas, n: int) -> float:
    """Brute-force subset expansion of e_N; oracle for chi_from_lambdas."""
    total = 0.0
    for subset in itertools.combinations(range(len(lambdas)), n):
        prod = 1.0
        for k in subset:
            prod *= lambdas[k]
        total += prod
    return math.factorial(n) * total


def chi_oracle_dict(d: int, n: int, m: int = 1) -> Fraction:
    """chi_N^(M) from the explicit norm of the N-fold block-creation state.

    Blocks of M adjacent pairs are laid on the open chain (start sites
    0..d-M), matching the stars-and-bars count behind the closed form;
    see the wrap-around note in the README.  Exact integer arithmetic:
    amplitudes are integer multiples of d^{-N/2}.
    """
    if d < 1 or n < 1 or m < 1:
        raise ValueError("need d, N, M >= 1")
    if d > 24:
        raise ValueError(f"oracle capacity is d <= 24, got {d}")
    if n * m > d:
        return Fraction(0)
    coeffs = {0: 1}
    for _ in range(n):
        new = {}
        for mask, c in coeffs.items():
            for k in range(d - m + 1):
                block = ((1 << m) - 1) << k
                if mask & block == 0:
                    key = mask | block
                    new[key] = new.get(key, 0) + c
        coeffs = new
    norm_sq = sum(c * c for c in coeffs.values())
    return Fraction(norm_sq, d**n * math.factorial(n))


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


def orbit_projector(index: np.ndarray, d: int) -> sp.csr_matrix:
    """(dim, orbits) isometry whose columns are the normalized uniform sums
    over the orbits of the one-site translation with permutation ``index``:
    the K = 0 states when every sign of that translation is +1.  An orbit
    is labelled by its smallest basis index."""
    dim = index.size
    rep = pos = np.arange(dim)
    for _ in range(d - 1):
        pos = index[pos]
        rep = np.minimum(rep, pos)
    _, orbit, size = np.unique(rep, return_inverse=True, return_counts=True)
    return sp.csr_matrix((1.0 / np.sqrt(size[orbit]), (np.arange(dim), orbit)), shape=(dim, size.size))


class Orbits(NamedTuple):
    """The orbits of the one-site translation T|i> = sign[i] |index[i]>,
    labelled by their representatives r, the smallest basis index on each:
    ``reps`` ascending with the period p of each in ``size``; state i lies
    on orbit ``orbit[i]``, and T^m |i> = to_rep[i] |r> for the first shift
    m that reaches r; ``period_sign[o]`` is s_p in T^p |r> = s_p |r>."""

    reps: np.ndarray
    size: np.ndarray
    orbit: np.ndarray
    to_rep: np.ndarray
    period_sign: np.ndarray


def translation_orbits(index: np.ndarray, sign: np.ndarray, d: int) -> Orbits:
    """Every state walked once around its orbit of the one-site
    translation, the orbits labelled by ``np.unique``.  (The library's
    former ``fock.translation_orbits``.)"""
    dim = index.size
    signed = np.any(sign != 1)
    rep = pos = np.arange(dim)
    acc = to_rep = np.ones(dim)
    for _ in range(1, d):
        if signed:
            acc = acc * sign[pos]
        pos = index[pos]
        if signed:
            to_rep = np.where(pos < rep, acc, to_rep)
        rep = np.minimum(rep, pos)
    reps, orbit, size = np.unique(rep, return_inverse=True, return_counts=True)
    # T^p |r> = sign[r] T^(p-1) |index[r]> = sign[r] to_rep[index[r]] |r>
    period_sign = sign[reps] * to_rep[index[reps]]
    return Orbits(reps, size, orbit, to_rep, period_sign)


def hop_block_former(basis, reflect: bool, swap: bool) -> tuple:
    """(P, P^T hop P, reps) of ``basis.hop_block(reflect, swap)`` by the
    library's former route: the orbits of ``translation_orbits``, the
    cosets of the flips merged over them, and the representatives read
    back from P's CSC form, the first row of each column."""
    orbits = translation_orbits(*basis.translation_table(), basis.d)
    flips = [basis.reflection_index()] if reflect else []
    if swap:
        flips.append(basis.swap_index())
    rep, sign = orbits.reps[orbits.orbit], orbits.to_rep.copy()
    odd = orbits.period_sign[orbits.orbit] < 0
    cosets = []
    for flip in flips:
        cosets += [flip] + [flip[c] for c in cosets]
    for c in cosets:
        other, other_sign = orbits.reps[orbits.orbit[c]], orbits.to_rep[c]
        odd |= (other == rep) & (other_sign != sign)
        np.copyto(sign, other_sign, where=other < rep)
        np.minimum(rep, other, out=rep)
    size = np.bincount(rep, minlength=rep.size)
    keep = (size > 0) & ~odd
    kept = keep[rep]
    rep, sign = rep[kept], sign[kept]
    sign /= np.sqrt(size[rep])
    column = np.cumsum(keep, dtype=np.int32) - 1
    indptr = np.zeros(kept.size + 1, dtype=np.int32)
    np.cumsum(kept, out=indptr[1:])
    proj = sp.csr_matrix((sign, column[rep], indptr), shape=(kept.size, int(column[-1]) + 1))
    csc = proj.tocsc()  # its indices ascend within each column
    first = csc.indptr[:-1]
    reps = csc.indices[first]
    block = basis.hop()[reps] @ proj
    block.data /= np.repeat(csc.data[first], np.diff(block.indptr))
    return proj, (block + block.T) * 0.5, reps


def zero_momentum_projector(orbits: Orbits) -> sp.csr_matrix:
    """(dim, states) isometry P onto the K = 0 sector, T P = P: the
    orbits with s_p = +1, each with the real amplitude
    to_rep[i] / sqrt(p) on its state i; columns follow the
    representatives in ascending order.  With every sign +1 it is the
    uniform orbit sum.  (The library's former ``Orbits.projector``.)"""
    keep = orbits.period_sign > 0
    rows = np.flatnonzero(keep[orbits.orbit])
    amp = orbits.to_rep / np.sqrt(orbits.size[orbits.orbit])
    cols = (np.cumsum(keep) - 1)[orbits.orbit[rows]]
    return sp.csr_matrix((amp[rows], (rows, cols)), shape=(orbits.orbit.size, int(keep.sum())))


def even_projector(basis) -> sp.csr_matrix:
    """(dim, orbits) isometry onto the normalized orbit sums of the group
    of T and the bare site reflection R: the representative of a state
    is min(trep[i], trep[R[i]]), with trep its translation-orbit
    representative.  Columns follow the representatives in ascending
    order.  (The library's former ``even_projector()``, sign-free: on a
    basis whose T has signs -1 it is not the even sector.)"""
    orbits = translation_orbits(*basis.translation_table(), basis.d)
    rep = orbits.reps[orbits.orbit]
    rep = np.minimum(rep, rep[basis.reflection_index()])
    _, orbit, size = np.unique(rep, return_inverse=True, return_counts=True)
    return sp.csr_matrix((1.0 / np.sqrt(size[orbit]), (np.arange(rep.size), orbit)),
                         shape=(rep.size, size.size))


def reversed_bits(mask: int, d: int) -> int:
    """The bits of ``mask`` mirrored, k -> d - 1 - k."""
    return sum(1 << (d - 1 - k) for k in range(d) if mask >> k & 1)


def generator_keys(basis) -> list:
    """(reflect, swap) of every block ``hop_block`` builds on a basis: the
    species swap needs a FullBasis with N_A = N_B."""
    swaps = (False, True) if isinstance(basis, FullBasis) and basis.n_a == basis.n_b else (False,)
    return [(reflect, swap) for reflect in (False, True) for swap in swaps]


def group_images(basis, cfg, reflect: bool, swap: bool) -> list:
    """(configuration, sign) of g|cfg> for every element g = S^s R^r T^m
    of the group of the signed one-site translation T, the bare site
    reflection R (when ``reflect``) and the bare species swap S (when
    ``swap``): up to 4d elements, each applied by the per-configuration
    rules, T^m with the (-1)^(n-1)-per-wrapped-mode sign of
    ``translate_loop``, R reversing the bits of every mask and S
    exchanging the two masks."""
    d, full = basis.d, isinstance(basis, FullBasis)
    images = []
    for m in range(d):
        top = (1 << d) - (1 << (d - m)) if m else 0
        if full:
            (ma, mb), sign = cfg, 1
            sign = (-1) ** ((basis.n_a - 1) * popcount(ma & top) + (basis.n_b - 1) * popcount(mb & top))
            moved = (_shift_mask(ma, m, d), _shift_mask(mb, m, d))
        else:
            moved, sign = _shift_mask(cfg, m, d), 1
        for r in range(1 + reflect):
            image = moved
            if r:
                image = tuple(reversed_bits(x, d) for x in image) if full else reversed_bits(image, d)
            images.append((image, sign))
            if swap:
                images.append((image[::-1], sign))
    return images


def group_projector(basis, reflect: bool, swap: bool) -> sp.csr_matrix:
    """(dim, states) isometry onto the states even under every element of
    the group of ``group_images``, one orbit at a time by brute force: the
    orbit of its smallest index r is the set of g|r> over all elements,
    and it has a column only when no element reaches a state with two
    signs, so that no element of r's stabilizer carries -1.  The column
    puts sign / sqrt(size) on each state g|r> = sign |i>; columns follow
    r in ascending order."""
    index = index_of(basis)
    seen = np.zeros(basis.size, dtype=bool)
    rows, vals, cols, columns = [], [], [], 0
    for r, cfg in enumerate(configs(basis)):
        if seen[r]:
            continue
        orbit, odd = {}, False
        for image, sign in group_images(basis, cfg, reflect, swap):
            odd |= orbit.setdefault(index[image], sign) != sign
        seen[list(orbit)] = True
        if odd:
            continue
        for i, sign in orbit.items():
            rows.append(i)
            vals.append(sign / math.sqrt(len(orbit)))
            cols.append(columns)
        columns += 1
    return sp.csr_matrix((vals, (rows, cols)), shape=(basis.size, columns))


def momentum_projector(basis, K: int) -> sp.csr_matrix:
    """(dim, states) complex isometry onto momentum sector K of the signed
    one-site translation T (``translation(basis, 1)``), one orbit at a
    time: an orbit with smallest index r and period p, T^m |r> = c_m
    |i_m>, belongs to sector K when exp(-2 pi i K p / d) c_p = 1, and its
    column puts c_m exp(-2 pi i K m / d) / sqrt(p) on i_m, so that
    T P_K = exp(2 pi i K / d) P_K."""
    index, sign = translation(basis, 1)
    d = basis.d
    rows, vals, cols, columns = [], [], [], 0
    for r in range(index.size):
        orbit, coeff, pos, c = [], [], r, 1.0
        while not orbit or pos != r:
            orbit.append(pos)
            coeff.append(c)
            c, pos = c * sign[pos], int(index[pos])
        if min(orbit) != r or abs(cmath.exp(-2j * cmath.pi * K * len(orbit) / d) * c - 1) > 1e-9:
            continue
        for m, (i, cm) in enumerate(zip(orbit, coeff)):
            rows.append(i)
            vals.append(cm * cmath.exp(-2j * cmath.pi * K * m / d) / math.sqrt(len(orbit)))
            cols.append(columns)
        columns += 1
    return sp.csr_matrix((vals, (rows, cols)), shape=(index.size, columns), dtype=complex)


def build_c_sr_loop(d: int, s: int, r: int, power: int = 1) -> StateVector:
    """(c^dag_{s,r})^N |0> applied one bilinear a^dag_k b^dag_{k+s} at a
    time to a dict of configurations, normalized and phase-fixed."""
    coeffs = {(0, 0): 1.0 + 0.0j}
    scale = 1.0 / math.sqrt(d)
    for _ in range(power):
        new = {}
        for cfg, c in coeffs.items():
            for k in range(d):
                res = fermion_b_create(cfg, (k + s) % d)
                if res is None:
                    continue
                mid, s1 = res
                res = fermion_a_create(mid, k)
                if res is None:
                    continue
                out, s2 = res
                phase = cmath.exp(2j * cmath.pi * k * r / d)
                new[out] = new.get(out, 0.0) + c * s1 * s2 * phase * scale
        coeffs = new
    basis = full_basis(d, power, power)
    cfgs = np.array(list(coeffs), dtype=np.int64).reshape(-1, 2)
    amp = np.zeros(basis.size, dtype=complex)
    amp[basis.rank(cfgs[:, 0], cfgs[:, 1])] = list(coeffs.values())
    return StateVector(basis, fix_phase(amp / np.linalg.norm(amp)))


# ------------------------------------------------- structure of an operator

class Facts(NamedTuple):
    """Exact structure of a CSR operator h on a basis, from ``facts``.
    Off a lattice basis (no ``translation_table``) the four symmetry
    facts are False, and ``swap`` is False off a FullBasis with
    N_A = N_B.  A fact about the stored off-diagonal entries holds
    when there are none."""

    symmetric: bool  # h == h^H entry for entry
    translation: bool  # T h T^-1 == h for the signed one-site translation T
    reflection: bool  # R h R^T == h for the bare site reflection R
    swap: bool  # S h S^T == h for the bare species swap S (a FullBasis with N_A = N_B)
    sign_free: bool  # every sign of T is +1
    real: bool
    positive: bool  # real, and every stored off-diagonal entry > 0
    negative: bool  # real, and every stored off-diagonal entry < 0
    connected: bool  # the graph of the stored entries has one component
    banded: bool  # every stored entry on the main or first off-diagonals

    @property
    def perron(self) -> bool:
        """Whether the ground state is unique, positive and at K = 0: by
        Perron-Frobenius when h is real with every off-diagonal element
        < 0 and a connected graph, and invariant under a sign-free T."""
        return self.translation and self.sign_free and self.negative and self.connected


def _same(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """Whether two canonical CSR matrices are equal entry for entry."""
    return all(np.array_equal(getattr(a, x), getattr(b, x)) for x in ("indptr", "indices", "data"))


def _invariant(h: sp.csr_matrix, coo: sp.coo_matrix, index: np.ndarray, sign=None) -> bool:
    """Whether the permutation |i> -> sign[i] |index[i]> leaves h exactly
    unchanged.  Each entry h[r, c] moves to (index[r], index[c]) with the
    factor sign[r] * sign[c] (``coo`` is h with its entries in the same
    order); the moved rows are gathered, their columns sorted, and the
    result compared array by array with h, whose CSR form is canonical.
    O(nnz)."""
    data = h.data if sign is None or np.all(sign == 1) else h.data * (sign[coo.row] * sign[coo.col])
    inverse = np.empty_like(index)
    inverse[index] = np.arange(index.size)
    moved = sp.csr_matrix((data, index[h.indices], h.indptr), shape=h.shape)[inverse]
    moved.sort_indices()
    return _same(moved, h)


def facts(h: sp.csr_matrix, basis) -> Facts:
    """The ``Facts`` of the canonical CSR operator h on ``basis``, each
    exact and O(nnz), read off the matrix alone: the oracle for what the
    solver takes from the construction of the hop and from an operator's
    own parts."""
    coo = h.tocoo()
    adjoint = h.conj().T.tocsr()
    adjoint.sort_indices()
    real = not np.iscomplexobj(h)
    off = coo.data[coo.row != coo.col]
    lattice = isinstance(basis, _SectorTables)
    index, sign = basis.translation_table() if lattice else (None, None)
    graph = sp.csr_matrix((np.ones(h.nnz), h.indices, h.indptr), shape=h.shape)  # every stored entry an edge
    return Facts(
        symmetric=_same(adjoint, h),
        translation=lattice and _invariant(h, coo, index, sign),
        reflection=lattice and _invariant(h, coo, basis.reflection_index()),
        swap=isinstance(basis, FullBasis) and basis.n_a == basis.n_b and _invariant(h, coo, basis.swap_index()),
        sign_free=lattice and bool(np.all(sign == 1)),
        real=real,
        positive=real and bool(np.all(off > 0)),
        negative=real and bool(np.all(off < 0)),
        connected=connected_components(graph, directed=False, return_labels=False) == 1,
        banded=bool(np.all(np.abs(coo.row - coo.col) <= 1)),
    )


# ------------------------------------------------------------- N-string energy

def string_energy(jbar: float, gammabar: float, n: int) -> float:
    """K = 0 energy of the bound string of n hard-core pairs on the
    infinite chain with hopping -Jbar and nearest-neighbour attraction
    -gammabar > 2 Jbar: the ferromagnetic XXZ chain with exchange 2 Jbar
    and anisotropy cosh(eta) = gammabar / (2 Jbar) (H. Bethe, Z. Phys.
    71, 205 (1931)),

        E_n = 2 Jbar sinh(eta) (cosh(n eta) - 1) / sinh(n eta) - n gammabar.

    On a ring of d sites the lowest level approaches it as the string's
    tail around the ring vanishes."""
    if not gammabar > 2.0 * jbar > 0.0:
        raise ValueError("need gammabar > 2 Jbar > 0")
    eta = math.acosh(gammabar / (2.0 * jbar))
    return 2.0 * jbar * math.sinh(eta) * (math.cosh(n * eta) - 1.0) / math.sinh(n * eta) - n * gammabar


# ---------------------------------------------------- Bethe-ansatz energy

BETHE_MAX_DELTA = 0.9  # bethe_energy refuses a larger anisotropy


def _bethe_residual(k: np.ndarray, d: int, quantum: np.ndarray, delta: float) -> np.ndarray:
    """d k_j - 2 pi I_j - sum_{l != j} theta(k_j, k_l), the Bethe equations
    of ``bethe_energy`` at anisotropy delta."""
    half_diff, half_sum = (k[:, None] - k[None, :]) / 2.0, (k[:, None] + k[None, :]) / 2.0
    theta = 2.0 * np.arctan2(-delta * np.sin(half_diff), np.cos(half_sum) - delta * np.cos(half_diff))
    np.fill_diagonal(theta, 0.0)
    return d * k - quantum - theta.sum(axis=1)


def bethe_energy(d: int, n: int, jbar: float, gammabar: float) -> float:
    """Ground energy of n hard-core pairs on a ring of d sites with hopping
    -Jbar and nearest-neighbour attraction -gammabar, from the Bethe ansatz
    of the XXZ chain with anisotropy Delta = gammabar / (2 Jbar) (M.
    Karbach and G. Mueller, Computers in Physics 11, 36 (1997),
    arXiv:cond-mat/9809162).  With I_j = j - (n + 1)/2, j = 1..n,
    half-integers for even n, the ground state's real momenta k_j solve

        d k_j = 2 pi I_j + sum_{l != j} theta(k_j, k_l),
        theta(k, q) = 2 atan2(-Delta sin((k - q)/2),
                              cos((k + q)/2) - Delta cos((k - q)/2)),

    and E0 = -2 Jbar sum_j cos k_j.  At Delta = 0, theta = 0: free
    fermions.  The solve continues in Delta from 0 in adaptive steps, from
    a linear predictor; a step is kept only when the equations hold to
    1e-12 d and no k_j moved more than 0.01 (2 pi / d) from the predictor,
    so that the roots stay on the ground-state branch.  Near Delta = 1 the
    roots collapse toward 0 and the solve can land on another branch, so
    it refuses Delta outside [-1, BETHE_MAX_DELTA] with ValueError."""
    if not jbar > 0.0:
        raise ValueError("need Jbar > 0")
    delta = gammabar / (2.0 * jbar)
    if not -1.0 <= delta <= BETHE_MAX_DELTA:
        raise ValueError(f"need -1 <= Delta <= {BETHE_MAX_DELTA}, got {delta}")
    quantum = 2.0 * math.pi * (np.arange(1, n + 1) - (n + 1) / 2.0)
    k, slope, at, step = quantum / d, np.zeros(n), 0.0, 0.05
    while at != delta:
        to = at + math.copysign(min(step, abs(delta - at)), delta - at)
        guess = k + slope * (to - at)
        found = root(_bethe_residual, guess, args=(d, quantum, to)).x
        if (np.abs(_bethe_residual(found, d, quantum, to)).max() <= 1e-12 * d
                and np.abs(found - guess).max() <= 0.02 * math.pi / d):
            slope, k, at, step = (found - k) / (to - at), found, to, 2.0 * step
        else:
            step /= 2.0
            if step < 1e-7:
                raise RuntimeError(f"Bethe continuation stalled at Delta = {at}")
    return float(-2.0 * jbar * np.cos(k).sum())
