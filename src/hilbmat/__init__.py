"""Generalized weighted Hilbert matrices: constructions, spectra,
determinants, identity certification, and spectral-gap experiments."""

from .matrices import (
    GapReport,
    ToeplitzOperator,
    cauchy_matrix,
    hilbert_hankel,
    hilbert_toeplitz,
    min_gaps,
    prolate_matrix,
    remove_index,
    toeplitz_from_symbol,
    weighted_cauchy_matrix,
    write_matrix_csv,
)
from .spectra import (
    SpectralDecomposition,
    hankel_hilbert_norm,
    skew_spectrum,
    spectral_norm,
    symmetric_eigen,
    toeplitz_hilbert_norm,
    toeplitz_hilbert_top_pair,
    trace_power_norm_estimate,
)
from .determinants import (
    det_lu,
    det_matching,
    newton_girard_power_sums,
    pfaffian,
    principal_minor_sum,
)
from .symbols import SymbolSeries, gs_rate_check, prolate_gap, quadratic_form
from .identities import run_suite, write_reports_csv
from .reports import ResidualReport
from .gaps import (
    WitnessCertificate,
    WitnessParams,
    build_witness,
    central_coefficient,
    check_central_coefficient_bounds,
    check_odd_gap_lower_bound,
    check_universal_gap_lower_bound,
    hilbert_hankel_gap,
    hilbert_toeplitz_gap,
    rescaled_gap,
    sweep_figure1,
    sweep_hankel,
)

__version__ = "0.1.0"

__all__ = [
    "GapReport", "cauchy_matrix", "hilbert_hankel", "hilbert_toeplitz",
    "min_gaps", "prolate_matrix", "remove_index", "toeplitz_from_symbol",
    "weighted_cauchy_matrix", "write_matrix_csv", "ToeplitzOperator",
    "SpectralDecomposition", "hankel_hilbert_norm",
    "skew_spectrum", "spectral_norm", "symmetric_eigen",
    "toeplitz_hilbert_norm", "toeplitz_hilbert_top_pair",
    "trace_power_norm_estimate",
    "det_lu", "det_matching", "newton_girard_power_sums", "pfaffian",
    "principal_minor_sum",
    "SymbolSeries", "gs_rate_check", "prolate_gap", "quadratic_form",
    "ResidualReport", "run_suite", "write_reports_csv",
    "WitnessCertificate", "WitnessParams", "build_witness",
    "central_coefficient", "check_central_coefficient_bounds",
    "check_odd_gap_lower_bound", "check_universal_gap_lower_bound",
    "hilbert_hankel_gap", "hilbert_toeplitz_gap", "rescaled_gap",
    "sweep_figure1", "sweep_hankel",
]
