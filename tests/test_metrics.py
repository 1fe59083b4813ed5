import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobosons import (
    StateVector,
    build_block,
    build_partition_state,
    chi_closed,
    chi_oracle,
    energy_ledger,
    fidelity,
    g2,
    ladder_report,
    ledger_vs_exact_check,
    pair_basis,
    ratio_lower_bound,
    schmidt_spectrum,
    single_pair_purity,
    square_norm_test,
)
from cobosons.metrics import chi_from_lambdas, ledger_energy, single_pair_rdm
from oracles import chi_direct_expansion, g2_loop, single_pair_rdm_loop

lambdas_strategy = st.lists(
    st.floats(0.01, 1.0, allow_nan=False), min_size=3, max_size=8
).map(lambda xs: [x / sum(xs) for x in xs])


def test_schmidt_spectrum_of_known_matrix():
    mat = np.diag([math.sqrt(0.7), math.sqrt(0.3)])
    spec = schmidt_spectrum(mat)
    assert np.allclose(spec.lambdas, [0.7, 0.3])
    assert spec.purity == pytest.approx(0.58)


def test_schmidt_spectrum_rejects_zero():
    with pytest.raises(ValueError):
        schmidt_spectrum(np.zeros((2, 2)))


def test_chi_closed_known_values():
    assert chi_closed(4, 2, 1) == Fraction(3, 4)
    assert chi_closed(4, 2, 2) == Fraction(1, 8)
    assert chi_closed(8, 2, 2) == Fraction(15, 32)
    assert chi_closed(6, 4, 2) == Fraction(0)  # N M > d


def test_chi_closed_max_entangled_form():
    # M = 1 reduces to d! / (d^N (d-N)!)
    for d in (4, 7):
        for n in range(1, d + 1):
            want = Fraction(math.factorial(d), d**n * math.factorial(d - n))
            assert chi_closed(d, n, 1) == want


def test_chi_oracle_matches_closed_small():
    for d in range(2, 9):
        for m in (1, 2, 3):
            for n in range(1, d // m + 1):
                assert chi_oracle(d, n, m) == chi_closed(d, n, m)


def test_chi_oracle_capacity():
    with pytest.raises(ValueError):
        chi_oracle(25, 1, 1)


@settings(max_examples=50, deadline=None)
@given(lambdas_strategy, st.integers(1, 4))
def test_chi_recursion_matches_direct_expansion(lambdas, n):
    if n > len(lambdas):
        n = len(lambdas)
    fast = chi_from_lambdas(lambdas, n)
    slow = chi_direct_expansion(lambdas, n)
    assert fast == pytest.approx(slow, rel=1e-12)


def test_chi_from_uniform_lambdas_matches_closed_form():
    d = 6
    lam = [1.0 / d] * d
    for n in range(1, d + 1):
        assert chi_from_lambdas(lam, n) == pytest.approx(float(chi_closed(d, n, 1)))


def test_ladder_report_max_entangled():
    rep = ladder_report(10, 10, 1)
    for n, alpha_sq in enumerate(rep.alpha_sq, start=1):
        assert alpha_sq == Fraction(10 - n + 1, 10)
    assert all(e == 0 for e in rep.eps_norms)


def test_ratio_lower_bound_formula():
    assert ratio_lower_bound(10, 2, 1) == (1 - Fraction(1, 9)) ** 2
    val = ratio_lower_bound(10000, 10, 3)
    ratio = chi_closed(10000, 11, 3) / chi_closed(10000, 10, 3)
    assert val <= ratio <= 1


def test_square_norm_requires_exactly_one_input():
    with pytest.raises(ValueError):
        square_norm_test()
    with pytest.raises(ValueError):
        square_norm_test(strings=[(1.0, (0, 1))], factors=[[(1.0, (0, 1))]])


def test_square_norm_slater_rank_one():
    rep = square_norm_test(strings=[(1.0, (0, 1))])
    assert rep.norm_sq == 0.0


@settings(max_examples=40, deadline=None)
@given(lambdas_strategy)
def test_square_norm_bipartite_closed_form(lambdas):
    strings = [(math.sqrt(lam), (2 * k, 2 * k + 1)) for k, lam in enumerate(lambdas)]
    rep = square_norm_test(strings=strings)
    purity = sum(lam**2 for lam in lambdas)
    assert rep.norm_sq == pytest.approx(2 * (1 - purity), rel=1e-10)


def test_square_norm_product_factors():
    def block(p, offset):
        c = 1 / math.sqrt(p)
        return [(c, (offset + 2 * k, offset + 2 * k + 1)) for k in range(p)]

    rep = square_norm_test(factors=[block(4, 0), block(4, 8)])
    assert rep.factor_count == 2
    assert rep.norm_sq == pytest.approx(4 * (1 - 1 / 4) ** 2)
    assert rep.norm_sq == pytest.approx(2**2 * (1 - rep.omega_star))


def test_square_norm_rejects_overlapping_factors():
    factor = [(1.0, (0, 1))]
    with pytest.raises(ValueError):
        square_norm_test(factors=[factor, factor])


def test_fidelity_between_states():
    psi, _ = build_partition_state(6, [1, 1])
    phi = build_block(6, 2)
    val = fidelity(psi, phi)
    assert 0.0 <= val <= 1.0
    assert fidelity(psi, psi) == pytest.approx(1.0)


def test_single_pair_rdm_properties():
    psi, _ = build_partition_state(8, [2, 1])
    rho = single_pair_rdm(psi)
    assert np.allclose(rho, rho.conj().T)
    assert np.trace(rho).real == pytest.approx(1.0)
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > -1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 8).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
    st.integers(0, 2**32 - 1),
)
def test_rdm_and_g2_match_loop_oracles(sizes, seed):
    # summation order differs from the loops: agree to 1e-12 on unit states
    d, n = sizes
    basis = pair_basis(d, n)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    psi = StateVector(basis, a / np.linalg.norm(a))
    assert np.abs(single_pair_rdm(psi) - single_pair_rdm_loop(psi)).max() <= 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # random states are not translation invariant
        for i in range(d):
            for j in range(d):
                assert g2(psi, i, j) == pytest.approx(g2_loop(psi, i, j), rel=1e-12, abs=1e-12)


def test_uniform_state_purity_closed_form():
    for d, n in ((10, 2), (10, 3), (10, 4)):
        psi, _ = build_partition_state(d, [1] * n)
        _, p1 = single_pair_purity(psi)
        assert p1 == pytest.approx(1 / d + (d - n) ** 2 / (d * (d - 1)), abs=1e-12)


def test_block_state_purity_piecewise():
    _, p1 = single_pair_purity(build_block(10, 4))  # d > 2N
    assert p1 == pytest.approx((1 + 2 / 16) / 10, abs=1e-12)
    _, p1 = single_pair_purity(build_block(10, 5))  # d = 2N
    assert p1 == pytest.approx((1 + 4 / 25) / 10, abs=1e-12)


def test_g2_uniform_state():
    psi, _ = build_partition_state(10, [1, 1, 1, 1])
    for i, j in ((0, 1), (0, 3), (2, 7)):
        assert g2(psi, i, j) == pytest.approx(10 * 3 / (4 * 9), abs=1e-10)


def test_g2_block_state_vanishes_beyond_block():
    psi = build_block(10, 4)
    assert g2(psi, 0, 4) == 0.0
    assert g2(psi, 0, 5) == 0.0


def test_g2_same_site_vanishes():
    psi = build_block(10, 4)
    assert g2(psi, 2, 2) == 0.0


def test_g2_rejects_sites_outside_lattice():
    psi = build_block(10, 4)
    for i, j in ((-1, 0), (0, 10)):
        with pytest.raises(ValueError):
            g2(psi, i, j)


def test_energy_ledger_entries_and_threshold():
    led = energy_ledger(10, 1.0, 2.0)
    assert led.threshold_bars == Fraction(20, 9)
    assert led.threshold_gamma_u == Fraction(38, 9)
    # M = 1: N free pairs (kinetic only); M = N: one molecule (binding only)
    assert led.energy(1) == pytest.approx(-20.0)
    assert led.energy(10) == pytest.approx(-18.0)


def test_ledger_crossing_point():
    n = 10
    led = energy_ledger(n, 1.0, 0.0)
    gb = float(led.threshold_bars)  # gammabar / Jbar at the crossing
    e1 = ledger_energy(n, 1, 1.0, gb)
    en = ledger_energy(n, n, 1.0, gb)
    assert e1 == pytest.approx(en)


def test_ledger_vs_exact_single_block_is_exact():
    dev = ledger_vs_exact_check(12, 3, [3], 1.0, 4.0)
    assert dev.deviation < 1e-12


def test_ledger_vs_exact_rejects_mismatched_total():
    with pytest.raises(ValueError):
        ledger_vs_exact_check(12, 3, [2, 2], 1.0, 4.0)
