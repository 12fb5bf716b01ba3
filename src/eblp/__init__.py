"""Optimal linear prediction of low-rank signals observed through
per-sample diagonal transforms (including missing data) under heavy noise.
"""

from .errors import (
    DegenerateCoordinateError,
    EblpError,
    ParseError,
    RankError,
    ShapeError,
    SpectrumDomainError,
)
from .spectral import (
    EigenSpectrum,
    SpectralEstimates,
    mp_bulk_edge,
    spectral_estimates,
)
from .shrinkage import (
    SpikeEstimate,
    amse,
    estimate_spike,
    white_spike_forward,
    white_spike_inverse,
)
from .pipeline import (
    EblpModel,
    TransformedObservation,
    dataset_from_arrays,
    fit_in_sample,
    predict_out_of_sample,
)

# The simulator and the NNRLS baseline serve the campaign, not a fit, so
# their names (and the submodules themselves) load on first access (PEP 562).
_LAZY = {
    "simulate": (
        "ExperimentConfig",
        "NoiseSpec",
        "SamplingSpec",
        "SignalModel",
        "SimulatedData",
        "generate_masks",
        "generate_noise",
        "generate_signals",
        "rmse",
        "simulate_dataset",
    ),
    "baselines": (
        "NnrlsConfig",
        "NnrlsResult",
        "nnrls",
        "nnrls_weight_colored",
        "nnrls_weight_white",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    from importlib import import_module

    if name in _LAZY:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_HOME))


__version__ = "0.1.0"
__all__ = [name for name in __dir__() if not name.startswith("_")]
