"""Bitmask Fock bases for hard-core pairs and spinful two-species fermions.

Bit ``k`` of a mask set means site ``k`` is occupied.  A basis keeps its
masks as read-only ascending int64 arrays, one per species, and ``rank``
finds masks in them by binary search; a full basis is mask_a-major, so a
configuration's index is ``i_a * len(masks_b) + i_b``.  The scalar fermion
operators act on ``(mask_a, mask_b)`` tuples of ints.  The canonical
operator ordering for the full sector is: all a-type creation operators in
ascending mode order, then all b-type ones in ascending mode order.  All
fermionic signs below follow from that convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_PAIR_SITES = 30
MAX_FULL_SITES = 16
MAX_BASIS_STATES = 1 << 24  # 128 MB of int64 masks, or 256 MB of complex amplitudes


class BasisMismatchError(ValueError):
    """Two objects that must share a basis do not."""


class CapacityError(ValueError):
    """Requested basis exceeds the supported size."""


def popcount(x: int) -> int:
    return int(x).bit_count()


def _check_size(what: str, d: int, max_sites: int, **counts) -> None:
    """Validate d and the particle counts, then the basis dimension, before
    anything is enumerated."""
    if d > max_sites:
        raise CapacityError(f"{what} supports d <= {max_sites}, got {d}")
    if d < 1:
        raise ValueError(f"need at least one site, got d={d}")
    for label, n in counts.items():
        if n < 0 or n > d:
            raise ValueError(f"{label}={n} outside [0, d={d}]")
    dim = math.prod(math.comb(d, n) for n in counts.values())
    if dim > MAX_BASIS_STATES:
        raise CapacityError(f"{what} d={d} {counts} has {dim} states, above {MAX_BASIS_STATES}")


def _rank(masks: np.ndarray, query) -> np.ndarray:
    """Positions of ``query`` in the ascending array ``masks``; KeyError
    if any queried mask is not in it."""
    query = np.asarray(query, dtype=np.int64)
    idx = np.searchsorted(masks, query)
    missing = masks[np.minimum(idx, masks.size - 1)] != query
    if np.any(missing):
        raise KeyError(f"mask {int(query[missing].flat[0]):#x} not in basis")
    return idx


@dataclass(frozen=True)
class PairBasis:
    """All C(d, n) bitmasks with n hard-core pairs on d sites, ascending.
    Bases compare and hash by (d, n) only."""

    d: int
    n: int
    states: np.ndarray = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.states.size

    def rank(self, masks) -> np.ndarray:
        return _rank(self.states, masks)


@dataclass(frozen=True)
class FullBasis:
    """All C(d,n_a)*C(d,n_b) two-species configurations, mask_a major and
    mask_b minor.  Bases compare and hash by (d, n_a, n_b) only."""

    d: int
    n_a: int
    n_b: int
    masks_a: np.ndarray = field(repr=False, compare=False)
    masks_b: np.ndarray = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.masks_a.size * self.masks_b.size

    @property
    def states(self) -> np.ndarray:
        """(size, 2) array of the (mask_a, mask_b) rows in basis order."""
        return np.column_stack([
            np.repeat(self.masks_a, self.masks_b.size),
            np.tile(self.masks_b, self.masks_a.size),
        ])

    def rank(self, masks_a, masks_b) -> np.ndarray:
        return _rank(self.masks_a, masks_a) * self.masks_b.size + _rank(self.masks_b, masks_b)


def _masks(d: int, n: int) -> np.ndarray:
    """Ascending masks with n of d bits set.  Pascal's rule: the c-bit masks
    on sites [0, k] are those on [0, k), then the (c-1)-bit ones plus bit k."""
    by_count = [np.zeros(1, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * n
    for k in range(d):
        by_count = [by_count[0]] + [
            np.concatenate([by_count[c], by_count[c - 1] | (1 << k)]) for c in range(1, n + 1)
        ]
    out = by_count[n]
    out.setflags(write=False)
    return out


def pair_basis(d: int, n: int) -> PairBasis:
    _check_size("pair basis", d, MAX_PAIR_SITES, N=n)
    return PairBasis(d, n, _masks(d, n))


def full_basis(d: int, n_a: int, n_b: int) -> FullBasis:
    _check_size("full basis", d, MAX_FULL_SITES, N_A=n_a, N_B=n_b)
    return FullBasis(d, n_a, n_b, _masks(d, n_a), _masks(d, n_b))


# ------------------------------------------------------ vectorized bit moves

def occupations(masks: np.ndarray, d: int) -> np.ndarray:
    """(dim, d) 0/1 array: entry [i, k] is bit k of the int64 mask ``masks[i]``."""
    return (masks[:, None] >> np.arange(d)) & 1


def move(masks: np.ndarray, src: int, dst: int) -> tuple:
    """Move one particle from site ``src`` to ``dst`` in every mask of the
    ascending int64 array ``masks`` where that is allowed (src occupied,
    dst empty).  Returns (from_idx, to_idx): positions of the old and the
    new masks in ``masks``."""
    allowed = (((masks >> src) & 1) == 1) & (((masks >> dst) & 1) == 0)
    from_idx = np.flatnonzero(allowed)
    return from_idx, _rank(masks, masks[from_idx] ^ ((1 << src) | (1 << dst)))


def rotate(masks, shift, d: int):
    """Cyclic site shift k -> k + shift (mod d) of the bits of ``masks``;
    broadcasts over int64 arrays of masks and of shifts."""
    shift = shift % d
    return ((masks << shift) | (masks >> (d - shift))) & ((1 << d) - 1)


# ----------------------------------------------------------------- operators

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


# --------------------------------------------------------------- state vector

def fix_phase(amp: np.ndarray) -> np.ndarray:
    """Global phase convention: the first amplitude above 1e-12 in basis
    order is made real positive."""
    idx = np.flatnonzero(np.abs(amp) > 1e-12)
    if idx.size:
        amp = amp * (abs(amp[idx[0]]) / amp[idx[0]])
    return amp


class StateVector:
    """Complex amplitudes over a basis; immutable after construction."""

    __slots__ = ("basis", "amplitudes")

    def __init__(self, basis, amplitudes):
        amp = np.ascontiguousarray(amplitudes, dtype=complex)
        if amp.shape != (basis.size,):
            raise ValueError(
                f"amplitude length {amp.shape} does not match basis size {basis.size}"
            )
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("non-finite amplitude")
        self.basis = basis
        self.amplitudes = amp
        self.amplitudes.setflags(write=False)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def normalized(self) -> bool:
        return abs(self.norm - 1.0) < 1e-12

    def unit(self) -> "StateVector":
        nrm = self.norm
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.basis, self.amplitudes / nrm)


def inner_product(psi: StateVector, phi: StateVector) -> complex:
    """<psi|phi>, conjugate-linear in the first argument."""
    if psi.basis is not phi.basis and psi.basis != phi.basis:
        raise BasisMismatchError("inner product between different bases")
    return complex(np.vdot(psi.amplitudes, phi.amplitudes))


# ---------------------------------------------------------------- translation

def _wrap_signs(masks: np.ndarray, n: int, shift: int, d: int) -> np.ndarray:
    """(-1)^((n-1) * w) per mask, w = number of its bits that wrap past d-1."""
    wrapped = occupations(masks, d)[:, d - shift:].sum(axis=1)
    return np.where((n - 1) * wrapped % 2, -1.0, 1.0)


def translate(state: StateVector, shift: int) -> StateVector:
    """Cyclic site shift k -> k + shift (mod d).

    On the full basis, creation operators whose mode wraps past d-1 are
    moved back to the front of their species string, giving a
    (-1)^(n-1)-per-wrapped-mode sign within each species.
    """
    basis = state.basis
    d = basis.d
    shift %= d
    amp = np.zeros(basis.size, dtype=complex)
    if isinstance(basis, PairBasis):
        amp[basis.rank(rotate(basis.states, shift, d))] = state.amplitudes
        return StateVector(basis, amp)
    ma, mb = basis.masks_a, basis.masks_b
    new = basis.rank(rotate(ma, shift, d)[:, None], rotate(mb, shift, d)[None, :])
    sign = np.multiply.outer(_wrap_signs(ma, basis.n_a, shift, d), _wrap_signs(mb, basis.n_b, shift, d))
    amp[new.ravel()] = sign.ravel() * state.amplitudes
    return StateVector(basis, amp)


# ------------------------------------------------------- pair/full embedding

def embed_pair_state(state: StateVector, full: FullBasis) -> StateVector:
    basis = state.basis
    if not isinstance(basis, PairBasis):
        raise BasisMismatchError("embedding expects a pair-basis state")
    if full.d != basis.d or full.n_a != basis.n or full.n_b != basis.n:
        raise BasisMismatchError("full basis incompatible with pair sector")
    amp = np.zeros(full.size, dtype=complex)
    amp[full.rank(basis.states, basis.states)] = state.amplitudes
    return StateVector(full, amp)


def project_to_pair_sector(state: StateVector, pair: PairBasis) -> StateVector:
    """Restriction of a full-basis state to doubly-occupied configurations."""
    basis = state.basis
    if not isinstance(basis, FullBasis):
        raise BasisMismatchError("projection expects a full-basis state")
    if pair.d != basis.d or basis.n_a != pair.n or basis.n_b != pair.n:
        raise BasisMismatchError("pair basis incompatible with full basis")
    return StateVector(pair, state.amplitudes[basis.rank(pair.states, pair.states)])
