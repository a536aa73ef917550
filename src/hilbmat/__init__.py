"""Generalized weighted Hilbert matrices: constructions, spectra,
determinants, identity certification, and spectral-gap experiments.

Each public name is written once, in ``_EXPORTS``, and its module is
imported on first use of one of its names (PEP 562), so ``import hilbmat``
alone loads neither numpy nor any submodule."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "matrices": ("ToeplitzOperator", "cauchy_matrix", "hilbert_hankel", "hilbert_toeplitz",
                 "min_gaps", "prolate_matrix", "remove_index", "toeplitz_from_symbol",
                 "weighted_cauchy_matrix", "write_matrix_csv"),
    "spectra": ("SpectralDecomposition", "hankel_hilbert_norm", "skew_norms", "skew_spectrum",
                "spectral_norm", "toeplitz_hilbert_norm", "toeplitz_hilbert_top_pair",
                "trace_power_norm_estimate"),
    "determinants": ("det_lu", "det_matching", "newton_girard_power_sums", "pfaffian",
                     "principal_minor_sum", "principal_minor_sums"),
    "symbols": ("SymbolSeries", "gs_rate_check", "prolate_gap", "quadratic_form"),
    "identities": ("run_suite", "write_reports_csv"),
    "reports": ("ResidualReport",),
    "gaps": ("WitnessCertificate", "WitnessParams", "build_witness", "central_coefficient",
             "check_central_coefficient_bounds", "check_odd_gap_lower_bound",
             "check_universal_gap_lower_bound", "hilbert_hankel_gap", "hilbert_toeplitz_gap",
             "rescaled_gap", "sweep_figure1", "sweep_hankel"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "_util")

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # no cache: a name rebound in its module is seen through the package too
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
