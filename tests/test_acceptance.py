"""End-to-end acceptance suite.

Each test pins one physical statement at an explicit tolerance.  Two
assertions are knowingly red and kept honest rather than weakened; the
closed-form argument behind both is in docs/decisions.md:

* ``test_effective_model_energy_agreement``: at gamma = 0 the full and
  second-order effective models differ by ~56 J^4/U^3 here: the intrinsic
  fourth-order binding correction of 32 J^4/U^3 per pair, less ~8 J^4/U^3
  of pair-pair interaction on d = 6.  That is above the 10 J^4/U^3
  budget.  The three gamma > 0 points pass.
* ``test_two_block_square_norm_window``: two disjoint maximally
  entangled blocks of p Slater terms each give norm^2 = 4 (1 - 1/p)^2,
  which is 2.25 for the p = 4 blocks built here (3.0625 at p = 8), so the
  (3.5, 4) window is unreachable at that size (it opens at p >= 16).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cobosons import (
    ModelParams,
    analytic_two_fermion,
    analytic_two_pair,
    build_block,
    build_c_sr,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_partition_state,
    build_q_sr,
    build_relative_chain,
    chi_closed,
    chi_oracle,
    energy_ledger,
    fidelity,
    g2,
    ground_space,
    ladder_report,
    ledger_vs_exact_check,
    pair_basis,
    ratio_lower_bound,
    single_pair_purity,
    spectral_equivalence_check,
)
from cobosons.cli import main as cli_main
from cobosons.fock import project_to_pair_sector
from cobosons.metrics import ledger_energy
from oracles import chi_direct_expansion
from cobosons import chain_bound_amplitudes
from cobosons.solve import ground_state_vector, is_bound

CHAIN_CUTOFF = 400


def chain_ground(kind, params):
    chain = build_relative_chain(kind, params, r=0, cutoff=CHAIN_CUTOFF)
    energy = ground_space(chain).energy
    # tail-stable amplitudes: a dense eigenvector bottoms out at absolute
    # machine precision, far above the geometric tail at s ~ 20
    amp = chain_bound_amplitudes(chain, energy)
    return energy, np.abs(amp)


# 1 ------------------------------------------------------------------------

def test_two_fermion_bound_state():
    """Analytic r0 / energy vs the relative-chain solver, 20 random (J, U)."""
    rng = np.random.default_rng(20240815)
    for _ in range(20):
        j = rng.uniform(0.5, 2.0)
        u = rng.uniform(0.5, 20.0)
        sol = analytic_two_fermion(j, u)
        params = ModelParams(j=j, u=u, gamma=0.0, d=10, n=1)
        energy, amp = chain_ground("two_fermion", params)
        assert abs(energy - sol.energy) <= 1e-8 * abs(sol.energy)
        center = CHAIN_CUTOFF  # site s = 0
        for s in range(1, 21):
            ratio = amp[center + s + 1] / amp[center + s]
            assert abs(ratio - sol.r0) <= 1e-6


# 2 ------------------------------------------------------------------------

def test_two_pair_bound_state():
    """Two adjacent hard-core pairs: closed form vs chain; unbound flag."""
    j, u = 1.0, 2.0  # Jbar = 1
    for gamma_over_jbar in (2.5, 3.0, 5.0, 10.0):
        gamma = gamma_over_jbar
        sol = analytic_two_pair(1.0, gamma)
        params = ModelParams(j=j, u=u, gamma=gamma, d=10, n=2)
        energy, amp = chain_ground("two_pair", params)
        assert abs(energy - sol.energy) <= 1e-8 * abs(sol.energy)
        for s in range(1, 21):
            ratio = amp[s] / amp[s - 1]  # sites 1, 2, ...
            assert abs(ratio - sol.r0) <= 1e-6
    # gamma / Jbar = 1.9: no bound state, and the chain state is extended
    sol = analytic_two_pair(1.0, 1.9)
    assert not sol.bound
    params = ModelParams(j=j, u=u, gamma=1.9, d=10, n=2)
    _, amp = chain_ground("two_pair", params)
    assert not is_bound(amp)


# 3 ------------------------------------------------------------------------

def test_chi_closed_equals_oracle_exactly():
    """Closed form == construction oracle, exact rationals, zero tolerance."""
    for d in range(1, 13):
        for m in range(1, 5):
            for n in range(1, d // m + 1):
                assert chi_closed(d, n, m) == chi_oracle(d, n, m), (d, n, m)


def test_chi_ratio_purity_bounds_random_spectra():
    """1 - N P <= chi_N / chi_{N-1} <= 1 - P on 100 random Schmidt spectra."""
    rng = np.random.default_rng(20240816)
    for _ in range(100):
        d = int(rng.integers(3, 9))
        lam = rng.random(d)
        lam /= lam.sum()
        purity = float(np.sum(lam**2))
        chis = [1.0] + [chi_direct_expansion(lam, n) for n in range(1, d + 1)]
        for n in range(2, d + 1):
            if chis[n - 1] <= 0.0:
                break
            ratio = chis[n] / chis[n - 1]
            assert 1 - n * purity - 1e-9 <= ratio <= 1 - purity + 1e-9


# 4 ------------------------------------------------------------------------

def test_ladder_structure():
    """alpha_N exact for maximally entangled bi-fermions; large-d ratio bound."""
    rep = ladder_report(10, 10, 1)
    for n, alpha_sq in enumerate(rep.alpha_sq, start=1):
        assert alpha_sq == Fraction(10 - n + 1, 10)
    assert all(e == 0 for e in rep.eps_norms)

    d, n, m = 10000, 10, 3
    ratio = chi_closed(d, n + 1, m) / chi_closed(d, n, m)
    assert ratio_lower_bound(d, n, m) <= ratio <= 1


# 5 ------------------------------------------------------------------------

EQUIVALENCE_POINTS = (0.0, 4.0, 6.0, 10.0)  # gamma U / J^2


def _equivalence_reports():
    j, u = 1.0, 1e3
    for x in EQUIVALENCE_POINTS:
        params = ModelParams(j=j, u=u, gamma=x * j * j / u, d=6, n=2)
        yield x, spectral_equivalence_check(params), 10.0 * j**4 / u**3


def test_effective_model_fidelity():
    """Pair-sector ground-state fidelity >= 0.999 at U/J = 10^3."""
    for x, rep, _ in _equivalence_reports():
        assert rep.fidelity is not None and rep.fidelity >= 0.999, x


def test_effective_model_energy_agreement():
    """Ground energies (dropped constant restored) within 10 J^4/U^3.

    KNOWN RED at gamma = 0: the intrinsic fourth-order binding correction
    (32 J^4/U^3 per pair; ~56 J^4/U^3 for the two pairs here, after ~8
    J^4/U^3 of pair-pair interaction) exceeds the stated budget at every
    overall energy scale.  See docs/decisions.md.
    """
    for x, rep, tol in _equivalence_reports():
        delta = abs(rep.full_energies[0] - rep.effective_energies[0])
        assert delta <= tol, (
            f"gamma U/J^2 = {x}: |dE| = {delta:.3e} > {tol:.1e}; "
            "see docs/decisions.md (fourth-order binding correction)"
        )


# 6 ------------------------------------------------------------------------

def test_two_pair_crossover_full_model():
    """d = 8, N = 2 full model: molecular vs two-boson fidelities."""
    j, u = 1e2, 1e5
    d, n = 8, 2
    pb = pair_basis(d, n)
    q10 = build_q_sr(d, 1, 0)
    c2 = project_to_pair_sector(build_c_sr(d, 0, 0, 2), pb)

    def fidelities(x):
        params = ModelParams(j=j, u=u, gamma=x * j * j / u, d=d, n=n)
        gs = ground_state_vector(build_full_hamiltonian(params))
        proj = project_to_pair_sector(gs, pb)
        return (
            abs(np.vdot(q10.amplitudes, proj.amplitudes)) ** 2,
            abs(np.vdot(c2.amplitudes, proj.amplitudes)) ** 2,
        )

    f_q4, f_c4 = fidelities(4.0)
    assert f_c4 >= 0.99
    for x in (20.0, 30.0, 40.0, 100.0):
        f_q, _ = fidelities(x)
        assert f_q >= 0.95, x
    _, f_c_limit = fidelities(100.0)
    assert abs(f_c_limit - 8 / 28) <= 0.02


# 7 ------------------------------------------------------------------------

def _effective_ground(d, n, x, j=1.0, u=1e3):
    params = ModelParams(j=j, u=u, gamma=x * j * j / u, d=d, n=n)
    return ground_state_vector(build_effective_hamiltonian(params))


def test_assembly_crossover_three_pairs():
    """d = 10, N = 3: singlet sweep -> mixed window -> molecule."""
    d, n = 10, 3
    parts = {p: build_partition_state(d, list(p))[0] for p in ((1, 1, 1), (2, 1), (3,))}

    def fids(x):
        gs = _effective_ground(d, n, x)
        return {p: fidelity(gs, v) for p, v in parts.items()}

    assert fids(4.0)[(1, 1, 1)] >= 0.99
    assert fids(20.0)[(3,)] >= 0.95
    window = False
    for x in np.arange(4.2, 6.01, 0.1):
        f = fids(float(x))
        if f[(2, 1)] > f[(1, 1, 1)] and f[(2, 1)] > f[(3,)]:
            window = True
            break
    assert window, "no window where |2+1> dominates both extremes"


def test_assembly_crossover_four_pairs():
    """d = 10, N = 4: |2+2> peak height and the dominance order."""
    d, n = 10, 4
    keys = ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
    parts = {p: build_partition_state(d, list(p))[0] for p in keys}
    grid = [4.0 + 0.2 * i for i in range(81)]  # gamma U / J^2 in [4, 20]
    best_22 = 0.0
    order = []
    for x in grid:
        gs = _effective_ground(d, n, x)
        fids = {p: fidelity(gs, v) for p, v in parts.items()}
        best_22 = max(best_22, fids[(2, 2)])
        leader = max(((1, 1, 1, 1), (2, 1, 1), (3, 1), (4,)), key=lambda p: fids[p])
        if not order or order[-1] != leader:
            order.append(leader)
    assert 0.25 <= best_22 <= 0.35
    assert order == [(1, 1, 1, 1), (2, 1, 1), (3, 1), (4,)]


# 8 ------------------------------------------------------------------------

def test_purity_checkpoints():
    """P1 of the solved ground state at gamma U/J^2 = 4 and of block states."""
    for d, n in ((10, 2), (10, 3), (10, 4)):
        gs = _effective_ground(d, n, 4.0)
        _, p1 = single_pair_purity(gs)
        want = 1 / d + (d - n) ** 2 / (d * (d - 1))
        assert abs(p1 - want) <= 1e-6, (d, n)
    # exact |N> block states, both branches of the piecewise closed form
    _, p1 = single_pair_purity(build_block(10, 4))  # d > 2N
    assert abs(p1 - (1 + 2 / 4**2) / 10) <= 1e-10
    _, p1 = single_pair_purity(build_block(10, 5))  # d = 2N
    assert abs(p1 - (1 + 4 / 5**2) / 10) <= 1e-10


# 9 ------------------------------------------------------------------------

def test_g2_checkpoints():
    """Uniform-state value, block-state zeros, and reported short-range values."""
    d, n = 10, 4
    psi, _ = build_partition_state(d, [1] * n)
    for i, j in ((0, 1), (0, 3), (2, 7)):
        assert abs(g2(psi, i, j) - d * (n - 1) / (n * (d - 1))) <= 1e-10
    block = build_block(d, n)
    for sep in range(n, d - n + 1):
        assert g2(block, 0, sep) == 0.0
    # short-range block values: reported, not asserted against the printed
    # closed form (which disagrees with direct computation by a factor 1/N;
    # see docs/decisions.md)
    for sep in range(1, n):
        direct = g2(block, 0, sep)
        computed_form = d * (n - sep) / n**2
        assert abs(direct - computed_form) <= 1e-10
        print(f"block g2 sep={sep}: direct {direct:.6f}, printed form would be "
              f"{d * (n - sep) / n:.6f}")


# 10 -----------------------------------------------------------------------

def test_energy_ledger_monotone_and_threshold():
    """Ledger error shrinks with d; crossing matches the exact threshold."""
    j, u, x = 1.0, 1e3, 6.0
    params = ModelParams(j=j, u=u, gamma=x * j * j / u, d=12, n=3)
    jbar, gammabar = params.jbar, params.gammabar
    for part in ([1, 1, 1], [2, 1], [3]):
        devs = [
            ledger_vs_exact_check(d, 3, part, jbar, gammabar).deviation
            for d in (12, 16, 20, 24)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(devs, devs[1:])), (part, devs)

    for n in (3, 4, 10):
        led = energy_ledger(n, 1.0, 0.0)
        assert led.threshold_gamma_u == 2 + Fraction(2 * n, n - 1)
        gb = led.threshold_bars
        e1 = ledger_energy(n, 1, 1.0, float(gb))
        en = ledger_energy(n, n, 1.0, float(gb))
        assert abs(e1 - en) <= 1e-12


# 11 -----------------------------------------------------------------------

def _entangled_block(p, offset):
    c = 1 / math.sqrt(p)
    return [(c, (offset + 2 * k, offset + 2 * k + 1)) for k in range(p)]


def test_square_norm_rank_one_and_bipartite():
    from cobosons import square_norm_test

    assert square_norm_test(strings=[(1.0, (0, 1))]).norm_sq == 0.0
    rng = np.random.default_rng(20240818)
    for _ in range(20):
        lam = rng.random(int(rng.integers(3, 9)))
        lam /= lam.sum()
        strings = [(math.sqrt(v), (2 * k, 2 * k + 1)) for k, v in enumerate(lam)]
        rep = square_norm_test(strings=strings)
        assert abs(rep.norm_sq - 2 * (1 - np.sum(lam**2))) <= 1e-10


def test_two_block_square_norm_window():
    """KNOWN RED: norm^2 = 4 (1 - 1/p)^2 is 2.25 for the p = 4 blocks built.

    The (3.5, 4) window needs p >= 16 Slater terms per block; see
    docs/decisions.md for the closed-form argument.
    """
    from cobosons import square_norm_test

    rep = square_norm_test(factors=[_entangled_block(4, 0), _entangled_block(4, 8)])
    assert 3.5 < rep.norm_sq < 4.0, (
        f"norm^2 = {rep.norm_sq} outside (3.5, 4); see docs/decisions.md"
    )


def test_two_block_square_norm_grows_toward_four():
    from cobosons import square_norm_test

    values = []
    for p in (2, 3, 4, 6, 8):
        rep = square_norm_test(factors=[_entangled_block(p, 0), _entangled_block(p, 2 * p)])
        assert abs(rep.norm_sq - 4 * (1 - 1 / p) ** 2) <= 1e-10
        values.append(rep.norm_sq)
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < 4.0


# 12 -----------------------------------------------------------------------

def test_cli_determinism(tmp_path, capsys):
    """verify and every CSV subcommand are byte-identical across two runs."""
    commands = {
        "ground-state": ["ground-state", "--model", "effective", "--d", "6",
                         "--n", "2", "--J", "1", "--U", "1000", "--gamma-u-j2", "4"],
        "fidelity-scan": ["fidelity-scan", "--model", "effective", "--d", "8",
                          "--n", "2", "--J", "1", "--U", "1000",
                          "--gamma-grid", "0:8:5", "--targets", "q:1,0,block:2"],
        "chi": ["chi", "--d", "2:8", "--n", "1:3", "--m", "1:2"],
        "purity-scan": ["purity-scan", "--d", "8", "--n", "2", "--J", "1",
                        "--U", "1000", "--gamma-grid", "0:8:5"],
        "g2-scan": ["g2-scan", "--d", "8", "--n", "2", "--J", "1",
                    "--U", "1000", "--gamma-grid", "0:8:3"],
        "energy-ledger": ["energy-ledger", "--n", "4", "--gamma-grid", "0:10:6"],
    }
    for name, args in commands.items():
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}.csv"
            assert cli_main(args + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], name
    reports = []
    for _ in (1, 2):
        assert cli_main(["verify"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
