"""Lattice composite bosons: extended Hubbard model, hard-core pair
reduction, coboson ansatz states, and bosonic-quality metrics."""

from .fock import (
    BasisMismatchError,
    CapacityError,
    FullBasis,
    PairBasis,
    StateVector,
    embed_pair_state,
    full_basis,
    inner_product,
    pair_basis,
    project_to_pair_sector,
    translate,
)
from .model import (
    ChainBasis,
    ModelParams,
    SparseOperator,
    build_effective_from_bars,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_relative_chain,
)
from .solve import (
    BoundStateSolution,
    ConvergenceError,
    GroundSpace,
    analytic_two_fermion,
    analytic_two_pair,
    chain_bound_amplitudes,
    ground_space,
    ground_state_vector,
    spectral_equivalence_check,
)
from .ansatz import (
    Partition,
    build_block,
    build_c_sr,
    build_partition_state,
    build_q_sr,
)
from .metrics import (
    EnergyLedger,
    LadderReport,
    SchmidtSpectrum,
    chi_closed,
    chi_oracle,
    chi_oracle_series,
    energy_ledger,
    fidelity,
    g2,
    ladder_report,
    ledger_vs_exact_check,
    ratio_lower_bound,
    schmidt_spectrum,
    single_pair_purity,
    square_norm_test,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
