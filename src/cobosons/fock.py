"""Bitmask Fock bases for hard-core pairs and spinful two-species fermions.

Bit ``k`` of a mask set means site ``k`` is occupied.  A basis keeps its
masks as read-only ascending int64 arrays, one per species, and ``rank``
finds masks in them by binary search; a full basis is mask_a-major, so a
configuration's index is ``i_a * len(masks_b) + i_b``.  ``pair_basis`` and
``full_basis`` hand out one shared basis per sector (the last sector asked
for of each kind), and a basis builds each of its sector tables (hop,
bonds, symmetry tables, projectors, the projected blocks of the hop) once,
on first use.  The canonical operator ordering for the full sector is: all
a-type creation operators in ascending mode order, then all b-type ones in
ascending mode order.  All fermionic signs below follow from that
convention.  The unit hop built from it is, by construction, exactly
symmetric, invariant under the signed translation and the bare site
reflection, and connected (``_hop``; ``docs/decisions.md`` §5).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

MAX_PAIR_SITES = 62  # int64 masks; rotate, _reverse and move keep bit 63 clear
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


def _read_only(table):
    """``table`` with its arrays made read-only when it is an array, a
    sparse matrix or a tuple of them; ``translation`` makes its own
    read-only where it is built."""
    if isinstance(table, tuple):
        for part in table:
            _read_only(part)
        return table
    arrays = (table.data, table.indices, table.indptr) if sp.issparse(table) else (table,)
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return table


def _table(build):
    """A sector table, ``basis.name(*key)``: ``build(basis, *key)`` runs on
    the first call with each key, and its read-only result is kept with
    the basis."""

    @functools.wraps(build)
    def kept(basis, *key):
        name = (build.__name__, *key)
        if name not in basis._tables:
            basis._tables[name] = _read_only(build(basis, *key))
        return basis._tables[name]

    return kept


class _SectorTables:
    """Tables that depend only on the sector (the kind of basis, d and the
    particle counts): the unit nearest-neighbour hop with its projected
    blocks, the bond counts, the one-site translation and the site
    reflection.  Nothing here depends on an operator."""

    @_table
    def hop_block(self, reflect: bool, swap: bool) -> tuple:
        """(P, P^T hop P, reps) for the isometry P onto the states even
        under the signed translation T, the bare site reflection R when
        ``reflect`` and the bare species swap S when ``swap``
        (``symmetric_projector``): the block real and exactly symmetric,
        reps[a] the representative of column a."""
        flips = [self.reflection_index()] if reflect else []
        if swap:
            flips.append(self.swap_index())
        proj, reps = symmetric_projector(*self.translation_table(), self.d, flips)
        return proj, _project(self.hop(), proj, reps), reps

    @_table
    def translation_table(self) -> tuple:
        """(index, sign) of the one-site translation (``translation``)."""
        return translation(self, 1)

    @_table
    def reflection_index(self) -> np.ndarray:
        """The bare site reflection (``reflection``)."""
        return reflection(self)


@dataclass(frozen=True)
class PairBasis(_SectorTables):
    """All C(d, n) bitmasks with n hard-core pairs on d sites, ascending.
    Bases compare and hash by (d, n) only."""

    d: int
    n: int
    states: np.ndarray = field(repr=False, compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.states.size

    def rank(self, masks) -> np.ndarray:
        return _rank(self.states, masks)

    @_table
    def occupation(self) -> np.ndarray:
        """(size, d) uint8 ``occupations`` of the states, filled one site
        at a time, without the int64 (size, d) array."""
        occ = np.empty((self.size, self.d), dtype=np.uint8)
        for k in range(self.d):
            occ[:, k] = (self.states >> k) & 1
        return occ

    @_table
    def bonds(self) -> np.ndarray:
        """Adjacent pairs (periodic) of every state."""
        occ = self.occupation()
        return np.sum(occ & np.roll(occ, -1, axis=1), axis=1, dtype=np.int64)

    @_table
    def hop(self) -> sp.csr_matrix:
        """sum_k (eta^dag_k eta_{k+1} + h.c.)."""
        return _hop(self.states, self.d, 1)

    @_table
    def rdm_gather(self) -> np.ndarray:
        """(C(d, n-1), d) gather table of the single-pair RDM: entry [m, k]
        is the index of the (n-1)-pair rest m plus a pair at k, and
        ``size`` where m holds k."""
        d = self.d
        _check_size("pair basis", d, MAX_PAIR_SITES, N=self.n - 1)
        rest = _masks(d, self.n - 1)
        table = np.full((rest.size, d), self.size, dtype=np.int64)
        for k in range(d):
            free = np.flatnonzero(((rest >> k) & 1) == 0)
            table[free, k] = self.rank(rest[free] | (1 << k))
        return table


@dataclass(frozen=True)
class FullBasis(_SectorTables):
    """All C(d,n_a)*C(d,n_b) two-species configurations, mask_a major and
    mask_b minor.  Bases compare and hash by (d, n_a, n_b) only."""

    d: int
    n_a: int
    n_b: int
    masks_a: np.ndarray = field(repr=False, compare=False)
    masks_b: np.ndarray = field(repr=False, compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    @_table
    def onsite(self) -> np.ndarray:
        """Doubly occupied sites of every configuration."""
        return (occupations(self.masks_a, self.d) @ occupations(self.masks_b, self.d).T).ravel()

    @_table
    def bonds(self) -> np.ndarray:
        """A at k with B at k+1 and B at k with A at k+1 (periodic), both
        orientations, so that projecting onto the pair subspace gives two
        per adjacent pair."""
        occ_a, occ_b = occupations(self.masks_a, self.d), occupations(self.masks_b, self.d)
        return (occ_a @ np.roll(occ_b, -1, axis=1).T + np.roll(occ_a, -1, axis=1) @ occ_b.T).ravel()

    @_table
    def hop(self) -> sp.csr_matrix:
        """The Kronecker sum of the species hops, each with wrap sign
        (-1)^(n-1): kronsum(B, A) = kron(I_a, B) + kron(A, I_b) has index
        i_a * dim_b + i_b."""
        hop_a = _hop(self.masks_a, self.d, (-1) ** (self.n_a - 1))
        hop_b = _hop(self.masks_b, self.d, (-1) ** (self.n_b - 1))
        return sp.kronsum(hop_b, hop_a).tocsr()

    @_table
    def swap_index(self) -> np.ndarray:
        """The bare species swap S|i_a, i_b> = |i_b, i_a> as the permutation
        ``index``, S|i> = |index[i]>; N_A = N_B only, where both species
        have the same masks."""
        if self.n_a != self.n_b:
            raise ValueError(f"no species swap with N_A = {self.n_a} != N_B = {self.n_b}")
        side = self.masks_a.size
        return np.arange(self.size).reshape(side, side).T.ravel()


def _masks(d: int, n: int) -> np.ndarray:
    """Ascending masks with n of d bits set.  Pascal's rule: the c-bit masks
    on sites [0, k] are those on [0, k), then the (c-1)-bit ones plus bit k.
    Above half filling the masks are the complements of the (d-n)-bit ones,
    which keeps the counts on the way below C(d, n) instead of near 2^d."""
    if 2 * n > d:
        out = np.ascontiguousarray((((1 << d) - 1) ^ _masks(d, d - n))[::-1])
        out.setflags(write=False)
        return out
    by_count = [np.zeros(1, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * n
    for k in range(d):
        by_count = [by_count[0]] + [
            np.concatenate([by_count[c], by_count[c - 1] | (1 << k)]) for c in range(1, n + 1)
        ]
    out = by_count[n]
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=1)
def _pair_sector(d: int, n: int) -> PairBasis:
    return PairBasis(d, n, _masks(d, n))


@functools.lru_cache(maxsize=1)
def _full_sector(d: int, n_a: int, n_b: int) -> FullBasis:
    return FullBasis(d, n_a, n_b, _masks(d, n_a), _masks(d, n_b))


def clear_shared_bases() -> None:
    """Drop every shared basis, and with it the tables built on it."""
    _pair_sector.cache_clear()
    _full_sector.cache_clear()


def pair_basis(d: int, n: int) -> PairBasis:
    """The shared PairBasis(d, n); the size check runs on every call."""
    _check_size("pair basis", d, MAX_PAIR_SITES, N=n)
    return _pair_sector(d, n)


def full_basis(d: int, n_a: int, n_b: int) -> FullBasis:
    """The shared FullBasis(d, n_a, n_b); the size check runs on every call."""
    _check_size("full basis", d, MAX_FULL_SITES, N_A=n_a, N_B=n_b)
    return _full_sector(d, n_a, n_b)


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


def _hop(masks: np.ndarray, d: int, wrap_sign) -> sp.csr_matrix:
    """sum_k (c^dag_k c_{k+1} + h.c.) on one species' ascending masks: the
    one hop kernel, for pairs and for each fermion species.

    With the canonical ascending mode order a nearest-neighbour hop
    passes no other particle, except across the periodic bond (d-1, 0),
    where it passes all n - 1 others: wrap_sign = (-1)^(n-1) for
    fermions, +1 for hard-core pairs.  Each bond is entered in both
    directions with one sign, so the hop is exactly symmetric; the
    translation and the reflection map bonds onto bonds, and the wrap sign
    is the sign the translation carries, so the hop commutes with both;
    and ring moves connect every mask with n bits.  The entries are int8,
    an eighth of the bytes of float64 entries, since a shared basis keeps
    the hop; a float coupling times the hop is float64 with the same
    values.  The indices are int32 (dim <= MAX_BASIS_STATES < 2^31), which
    halves the transient lists the CSR is built from.
    """
    rows, cols, vals = [], [], []
    for k in range(d):
        kp = (k + 1) % d
        sign = wrap_sign if kp == 0 else 1
        for src, dst in ((kp, k), (k, kp)):
            from_idx, to_idx = move(masks, src, dst)
            rows.append(to_idx.astype(np.int32))
            cols.append(from_idx.astype(np.int32))
            vals.append(np.full(from_idx.size, sign, dtype=np.int8))
    dim = masks.size
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )


def rotate(masks, shift, d: int):
    """Cyclic site shift k -> k + shift (mod d) of the bits of ``masks``;
    broadcasts over int64 arrays of masks and of shifts."""
    shift = shift % d
    return ((masks << shift) | (masks >> (d - shift))) & ((1 << d) - 1)


# --------------------------------------------------------------- state vector

def fix_phase(amp: np.ndarray) -> np.ndarray:
    """Global phase convention: the first amplitude above 1e-12 in basis
    order is made real positive."""
    idx = np.flatnonzero(np.abs(amp) > 1e-12)
    if idx.size:
        amp = amp * (abs(amp[idx[0]]) / amp[idx[0]])
    return amp


class StateVector:
    """Amplitudes over a basis, float64 when given real and complex128 when
    given complex; immutable after construction."""

    __slots__ = ("basis", "amplitudes")

    def __init__(self, basis, amplitudes):
        amp = np.ascontiguousarray(amplitudes, dtype=complex if np.iscomplexobj(amplitudes) else float)
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


def translation(basis, shift: int) -> tuple:
    """Cyclic site shift k -> k + shift (mod d) of every basis state:
    (index, sign) with T^shift |i> = sign[i] |index[i]>.

    On the full basis, creation operators whose mode wraps past d-1 are
    moved back to the front of their species string, giving a
    (-1)^(n-1)-per-wrapped-mode sign within each species; pair states
    carry sign +1.  Both arrays are read-only.
    """
    d = basis.d
    shift %= d
    if isinstance(basis, PairBasis):
        index, sign = basis.rank(rotate(basis.states, shift, d)), np.ones(basis.size)
    else:
        ma, mb = basis.masks_a, basis.masks_b
        index = basis.rank(rotate(ma, shift, d)[:, None], rotate(mb, shift, d)[None, :]).ravel()
        sign = np.multiply.outer(_wrap_signs(ma, basis.n_a, shift, d),
                                 _wrap_signs(mb, basis.n_b, shift, d)).ravel()
    index.setflags(write=False)
    sign.setflags(write=False)
    return index, sign


def _reverse(masks: np.ndarray, d: int) -> np.ndarray:
    """Bit reversal k -> d - 1 - k of every int64 mask."""
    out = np.zeros_like(masks)
    for k in range(d):
        out |= ((masks >> k) & 1) << (d - 1 - k)
    return out


def reflection(basis) -> np.ndarray:
    """Site reflection k -> d - 1 - k of every basis state, as the bare
    permutation R|i> = |index[i]> (no fermionic sign): ``index``."""
    d = basis.d
    if isinstance(basis, PairBasis):
        # the reversed masks are the basis masks in another order: sorted
        # first, they are found in one cache-friendly pass
        reversed_masks = _reverse(basis.states, d)
        order = np.argsort(reversed_masks)
        index = np.empty_like(order)
        index[order] = basis.rank(reversed_masks[order])
        return index
    index = basis.rank(_reverse(basis.masks_a, d)[:, None], _reverse(basis.masks_b, d)[None, :])
    return index.ravel()


def translate(state: StateVector, shift: int) -> StateVector:
    """T^shift applied to a state (see ``translation``), in its dtype."""
    index, sign = translation(state.basis, shift)
    amp = np.zeros_like(state.amplitudes)
    amp[index] = sign * state.amplitudes
    return StateVector(state.basis, amp)


def symmetric_projector(index: np.ndarray, sign: np.ndarray, d: int, flips) -> tuple:
    """(P, reps): the (dim, states) isometry P onto the states even under
    the group G of the signed one-site translation T|i> = sign[i] |index[i]>
    (``translation(basis, 1)``) and the bare permutations ``flips`` (index
    arrays), and reps[a] the representative of column a, int32.  The flips
    are commuting involutions, each with F T F = T or F T F = T^-1, signs
    included, so that every element of G is c T^m with c a product of
    flips, a coset.

    One walk over the d shifts gives each state i its translation-orbit
    representative trep[i], the smallest index on its T-orbit, and the
    sign to_rep[i] of T^m |i> = to_rep[i] |trep[i]> at the first shift m
    that reaches it.  A state's G-representative is the smallest of
    trep[c(i)] over the cosets c, and its sign is to_rep[c(i)] of a c that
    reaches it.  A G-orbit has a column only if no element that fixes its
    representative r carries a sign -1: T^p |r> = +|r> for the period p,
    and no two cosets reach the T-orbit of r with different signs.  The
    column puts sign / sqrt(size) on each of its size states, and columns
    follow the representatives in ascending order.  With no flips P is
    the K = 0 projector, and with every sign +1 the uniform orbit sum
    (``docs/decisions.md`` §6)."""
    dim = index.size
    signed = np.any(sign != 1)
    trep = pos = np.arange(dim)
    acc = to_rep = np.ones(dim)
    for _ in range(1, d):
        if signed:
            acc = acc * sign[pos]
        pos = index[pos]
        if signed:
            to_rep = np.where(pos < trep, acc, to_rep)
        trep = np.minimum(trep, pos)
    # T^p |r> = sign[r] T^(p-1) |index[r]> = sign[r] to_rep[index[r]] |r>
    # at a representative r; at every other state i the same product is
    # to_rep[i], so odd marks exactly the representatives with T^p |r> = -|r>
    odd = sign * to_rep[index] != to_rep
    rep, rep_sign = trep.copy(), to_rep.copy()
    cosets = []
    for flip in flips:
        cosets += [flip] + [flip[c] for c in cosets]
    # one coset at a time, in place, so that no (cosets, dim) array is held
    for c in cosets:
        other, other_sign = trep[c], to_rep[c]
        odd |= (other == rep) & (other_sign != rep_sign)
        np.copyto(rep_sign, other_sign, where=other < rep)
        np.minimum(rep, other, out=rep)
    # a representative r has rep[r] == r, and odd[r] holds every check of
    # its stabilizer; each kept state is the one entry of its row
    size = np.bincount(rep, minlength=dim)
    keep = (size > 0) & ~odd
    kept = keep[rep]
    rep, rep_sign = rep[kept], rep_sign[kept]
    rep_sign /= np.sqrt(size[rep])
    column = np.cumsum(keep, dtype=np.int32) - 1
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(kept, out=indptr[1:])
    proj = sp.csr_matrix((rep_sign, column[rep], indptr), shape=(dim, int(column[-1]) + 1))
    return proj, np.flatnonzero(keep).astype(np.int32)


def _project(h: sp.csr_matrix, proj: sp.csr_matrix, reps: np.ndarray) -> sp.csr_matrix:
    """P^T h P for a real isometry P whose columns have disjoint supports
    and span a subspace that h maps into itself, with reps[a] a row of
    column a (``symmetric_projector``).  Then h P = P (P^T h P), so
    (P^T h P)[a, b] = (h[reps[a]] P)[b] / P[reps[a], a]: only the rows of
    the representatives are read, and each is the one entry of its row of
    P.  The mean with the transpose makes the block exactly symmetric."""
    block = h[reps] @ proj
    block.data /= np.repeat(proj.data[proj.indptr[reps]], np.diff(block.indptr))
    return (block + block.T) * 0.5


# ------------------------------------------------------- pair/full embedding

def embed_pair_state(state: StateVector, full: FullBasis) -> StateVector:
    """A pair-basis state on the full basis (mask_a = mask_b), in its dtype."""
    basis = state.basis
    if not isinstance(basis, PairBasis):
        raise BasisMismatchError("embedding expects a pair-basis state")
    if full.d != basis.d or full.n_a != basis.n or full.n_b != basis.n:
        raise BasisMismatchError("full basis incompatible with pair sector")
    amp = np.zeros(full.size, dtype=state.amplitudes.dtype)
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
