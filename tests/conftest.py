import numpy as np
import pytest

from cobosons import fock


@pytest.fixture(autouse=True)
def fresh_shared_bases():
    """Every test starts without shared bases, so that a test that patches
    ``fock._masks`` or a capacity limit sees its patch, and a test that
    counts table builds counts them from zero."""
    fock.clear_shared_bases()
    yield
    fock.clear_shared_bases()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def random_state(rng):
    """Random normalized pair-basis state on d = 6, N = 2."""
    from cobosons import StateVector, pair_basis

    basis = pair_basis(6, 2)
    amp = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    return StateVector(basis, amp / np.linalg.norm(amp))
