"""Bitmask Fock bases for hard-core pairs and spinful two-species fermions.

Configurations are plain integers (pair sector) or ``(mask_a, mask_b)``
tuples (full sector).  Bit ``k`` set means site ``k`` is occupied by the
corresponding particle.  The canonical operator ordering for the full
sector is: all a-type creation operators in ascending mode order, then all
b-type creation operators in ascending mode order.  All fermionic signs
below follow from that convention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

MAX_PAIR_SITES = 30
MAX_FULL_SITES = 16


class BasisMismatchError(ValueError):
    """Two objects that must share a basis do not."""


class CapacityError(ValueError):
    """Requested basis exceeds the supported size."""


def popcount(x: int) -> int:
    return int(x).bit_count()


def _check_particle_count(d: int, n: int, label: str) -> None:
    if d < 1:
        raise ValueError(f"need at least one site, got d={d}")
    if n < 0 or n > d:
        raise ValueError(f"{label}={n} outside [0, d={d}]")


@dataclass(frozen=True)
class PairBasis:
    """All C(d, n) bitmasks with n hard-core pairs on d sites, ascending."""

    d: int
    n: int
    states: tuple = field(repr=False)
    index: dict = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class FullBasis:
    """All C(d,n_a)*C(d,n_b) two-species configurations, (mask_a, mask_b)
    sorted with mask_a major and mask_b minor."""

    d: int
    n_a: int
    n_b: int
    states: tuple = field(repr=False)
    index: dict = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.states)


def _masks(d: int, n: int) -> list:
    out = [sum(1 << k for k in occ) for occ in itertools.combinations(range(d), n)]
    out.sort()
    return out


def pair_basis(d: int, n: int) -> PairBasis:
    if d > MAX_PAIR_SITES:
        raise CapacityError(f"pair basis supports d <= {MAX_PAIR_SITES}, got {d}")
    _check_particle_count(d, n, "N")
    states = tuple(_masks(d, n))
    return PairBasis(d, n, states, {m: i for i, m in enumerate(states)})


def full_basis(d: int, n_a: int, n_b: int) -> FullBasis:
    if d > MAX_FULL_SITES:
        raise CapacityError(f"full basis supports d <= {MAX_FULL_SITES}, got {d}")
    _check_particle_count(d, n_a, "N_A")
    _check_particle_count(d, n_b, "N_B")
    states = tuple(
        (ma, mb) for ma in _masks(d, n_a) for mb in _masks(d, n_b)
    )
    return FullBasis(d, n_a, n_b, states, {s: i for i, s in enumerate(states)})


# ------------------------------------------------------ vectorized bit moves

def occupations(states, d: int) -> np.ndarray:
    """(dim, d) 0/1 array: entry [i, k] is bit k of mask ``states[i]``."""
    masks = np.asarray(states, dtype=np.int64)
    return (masks[:, None] >> np.arange(d)) & 1


def move(states, src: int, dst: int) -> tuple:
    """Move one particle from site ``src`` to ``dst`` in every mask of the
    ascending array ``states`` where that is allowed (src occupied, dst
    empty).  Returns (from_idx, to_idx): positions of the old and the new
    masks in ``states``."""
    masks = np.asarray(states, dtype=np.int64)
    allowed = (((masks >> src) & 1) == 1) & (((masks >> dst) & 1) == 0)
    from_idx = np.flatnonzero(allowed)
    moved = masks[from_idx] ^ ((1 << src) | (1 << dst))
    return from_idx, np.searchsorted(masks, moved)


# ----------------------------------------------------------------- operators

def pair_create(mask: int, k: int):
    """eta^dag_k; returns new mask or None (Pauli exclusion of pairs)."""
    bit = 1 << k
    if mask & bit:
        return None
    return mask | bit


def pair_annihilate(mask: int, k: int):
    bit = 1 << k
    if not mask & bit:
        return None
    return mask & ~bit


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


def from_dict(basis, coeffs: dict) -> StateVector:
    amp = np.zeros(basis.size, dtype=complex)
    for cfg, c in coeffs.items():
        amp[basis.index[cfg]] = c
    return StateVector(basis, amp)


def inner_product(psi: StateVector, phi: StateVector) -> complex:
    """<psi|phi>, conjugate-linear in the first argument."""
    if psi.basis is not phi.basis and psi.basis != phi.basis:
        raise BasisMismatchError("inner product between different bases")
    return complex(np.vdot(psi.amplitudes, phi.amplitudes))


# ---------------------------------------------------------------- translation

def _shift_mask(mask: int, shift: int, d: int) -> int:
    shift %= d
    full = (1 << d) - 1
    return ((mask << shift) | (mask >> (d - shift))) & full if shift else mask


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
        for i, mask in enumerate(basis.states):
            amp[basis.index[_shift_mask(mask, shift, d)]] = state.amplitudes[i]
        return StateVector(basis, amp)
    sign_a = -1 if (basis.n_a - 1) & 1 else 1
    sign_b = -1 if (basis.n_b - 1) & 1 else 1
    top = (1 << d) - (1 << (d - shift)) if shift else 0
    for i, (ma, mb) in enumerate(basis.states):
        sign = sign_a ** popcount(ma & top) * sign_b ** popcount(mb & top)
        new = (_shift_mask(ma, shift, d), _shift_mask(mb, shift, d))
        amp[basis.index[new]] = sign * state.amplitudes[i]
    return StateVector(basis, amp)


# ------------------------------------------------------- pair/full embedding

def embed_pair_state(state: StateVector, full: FullBasis) -> StateVector:
    basis = state.basis
    if not isinstance(basis, PairBasis):
        raise BasisMismatchError("embedding expects a pair-basis state")
    if full.d != basis.d or full.n_a != basis.n or full.n_b != basis.n:
        raise BasisMismatchError("full basis incompatible with pair sector")
    amp = np.zeros(full.size, dtype=complex)
    for i, mask in enumerate(basis.states):
        amp[full.index[(mask, mask)]] = state.amplitudes[i]
    return StateVector(full, amp)


def project_to_pair_sector(state: StateVector, pair: PairBasis) -> StateVector:
    """Restriction of a full-basis state to doubly-occupied configurations."""
    basis = state.basis
    if not isinstance(basis, FullBasis):
        raise BasisMismatchError("projection expects a full-basis state")
    if pair.d != basis.d or basis.n_a != pair.n or basis.n_b != pair.n:
        raise BasisMismatchError("pair basis incompatible with full basis")
    amp = np.array(
        [state.amplitudes[basis.index[(m, m)]] for m in pair.states], dtype=complex
    )
    return StateVector(pair, amp)
