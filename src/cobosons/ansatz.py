"""Composite-boson ansatz states as explicit vectors in the pair or full
basis.

All constructors fix the global phase with ``fock.fix_phase``: the first
amplitude above 1e-12 in basis order is real positive.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fock import (
    FullBasis,
    PairBasis,
    StateVector,
    _wrap_signs,
    fix_phase,
    full_basis,
    occupations,
    pair_basis,
    rotate,
)


@dataclass(frozen=True)
class Partition:
    """Decreasing part sizes M1 >= ... >= Mk >= 1 summing to N."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("partition needs at least one part")
        if any(m < 1 for m in self.parts):
            raise ValueError(f"parts must be >= 1: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be decreasing: {self.parts}")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "+".join(str(m) for m in self.parts)


def _unit(basis, amp: np.ndarray) -> StateVector:
    nrm = np.linalg.norm(amp)
    if nrm == 0.0:
        raise ValueError("construction annihilated to the zero vector")
    return StateVector(basis, fix_phase(amp / nrm))


# ----------------------------------------------------------- bi-fermion tower

def build_c_sr(d: int, s: int, r: int, power: int = 1) -> StateVector:
    """Normalized (c^dag_{s,r})^N |0> on FullBasis(d, N, N), where
    c^dag_{s,r} = d^{-1/2} sum_k e^{i 2 pi k r / d} a^dag_k b^dag_{k+s}.

    The bilinears commute, so each set of N modes k (an a-mask) gives one
    configuration, b-mask = the a-mask rotated by s, with amplitude
    (-1)^{N(N-1)/2} N! d^{-N/2} e^{i 2 pi r sum k / d} times the sign of
    sorting the rotated b string.  That sign is the translation's wrap
    sign ``_wrap_signs``; the common factor drops out in normalization.
    """
    if not (0 <= s < d and 0 <= r < d):
        raise ValueError(f"labels s={s}, r={r} outside [0, d)")
    if power < 1:
        raise ValueError("need power >= 1")
    basis = full_basis(d, power, power)
    masks = basis.masks_a
    phase = np.exp(2j * np.pi * (r * (occupations(masks, d) @ np.arange(d)) % d) / d)
    amp = np.zeros(basis.size, dtype=complex)
    amp[basis.rank(masks, rotate(masks, s, d))] = _wrap_signs(masks, power, s, d) * phase
    return _unit(basis, amp)


# ----------------------------------------------------------- two-pair states

def build_q_sr(d: int, s: int, r: int) -> StateVector:
    """Normalized q^dag_{s,r}|0> on PairBasis(d, 2):
    q^dag_{s,r} = d^{-1/2} sum_k e^{i 2 pi k r / d} eta^dag_k eta^dag_{k+s}.

    For s = d/2 the sum visits each configuration twice; the state is
    renormalized (and excluded from orthonormal-basis claims).
    """
    if d % 2:
        raise ValueError(f"need even d, got {d}")
    if s == 0:
        raise ValueError("s = 0 annihilates by Pauli exclusion of pairs")
    if not (1 <= s <= d // 2 and 0 <= r < d):
        raise ValueError(f"labels s={s}, r={r} outside range for d={d}")
    basis = pair_basis(d, 2)
    sites = np.arange(d)
    masks = (1 << sites) | (1 << (sites + s) % d)
    # Python complex arithmetic: numpy's complex division rounds differently
    phases = [cmath.exp(2j * cmath.pi * k * r / d) / math.sqrt(d) for k in range(d)]
    amp = np.zeros(basis.size, dtype=complex)
    np.add.at(amp, basis.rank(masks), phases)  # unbuffered: s = d/2 visits count twice
    if np.linalg.norm(amp) == 0.0:
        raise ValueError(f"q_(s={s}, r={r}) vanishes for d={d}")
    return _unit(basis, amp)


# --------------------------------------------------------------- block states

def build_block(d: int, m: int) -> StateVector:
    """Uniform superposition of the d cyclic contiguous M-site blocks: the
    one-part partition state |M>."""
    if not (1 <= m <= d):
        raise ValueError(f"block size M={m} outside [1, d={d}]")
    return build_partition_state(d, (m,))[0]


# ------------------------------------------------------------ partition states

def build_partition_state(d: int, partition) -> tuple:
    """State |M1+...+Mk> as the uniform superposition over every surviving
    configuration of the symbolic block-creation product.

    Pauli-annihilating block overlaps are dropped and the result is
    normalized numerically.  Returns (state, norm_factor_sq) where
    norm_factor_sq is the exact N^2 relating the normalized state to the
    raw d^{-k/2}-weighted product.  The amplitudes are real (float64).
    """
    if not isinstance(partition, Partition):
        partition = Partition(tuple(partition))
    n = partition.total
    if n > d:
        raise ValueError(f"partition total {n} exceeds d={d}")
    configs = np.zeros(1, dtype=np.int64)
    for m in (m for m in partition.parts if m > 1):
        blocks = rotate(np.int64((1 << m) - 1), np.arange(d), d)
        fits = (configs[:, None] & blocks) == 0
        configs = np.unique((configs[:, None] | blocks)[fits])
        if not configs.size:
            raise ValueError(f"partition {partition} annihilates on d={d}")
    basis = pair_basis(d, n)
    if partition.parts[-1] == 1:
        # the singletons fill any free sites: the configurations are the
        # masks that hold a placement of the larger blocks, found without
        # enumerating the up to C(d, d/2) partial placements on the way
        holds = np.zeros(basis.size, dtype=bool)
        for config in configs:
            holds |= (basis.states & config) == config
        configs = basis.states[holds]
    amp = np.zeros(basis.size)
    amp[basis.rank(configs)] = 1.0
    norm_factor_sq = Fraction(d ** len(partition.parts), configs.size)
    return _unit(basis, amp), norm_factor_sq
