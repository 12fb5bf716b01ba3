"""Optimal linear prediction of low-rank signals observed through
per-sample diagonal transforms (including missing data) under heavy noise.
"""

from .errors import (
    DegenerateCoordinateError,
    EblpError,
    NotFittedError,
    ParseError,
    RankError,
    ShapeError,
    SpectrumDomainError,
)
from .spectral import (
    EigenSpectrum,
    SpectralEstimates,
    companion_stieltjes,
    companion_stieltjes_derivative,
    d_transform,
    d_transform_derivative,
    empirical_stieltjes,
    empirical_stieltjes_derivative,
    mp_bulk_edge,
    mp_white_stieltjes,
    spectral_estimates,
)
from .shrinkage import (
    SpikeEstimate,
    amse,
    estimate_spike,
    optimal_lambda,
    shrink_matrix,
    suggest_rank,
    white_spike_forward,
    white_spike_inverse,
)
from .pipeline import (
    EblpModel,
    SignalModel,
    TransformedObservation,
    backproject,
    blp_oracle,
    dataset_from_arrays,
    estimated_amse,
    fit_in_sample,
    predict_out_of_sample,
    simple_blp_uniform,
)
from .simulate import (
    ExperimentConfig,
    NoiseSpec,
    SamplingSpec,
    SimulatedData,
    generate_masks,
    generate_noise,
    generate_signals,
    rmse,
    simulate_dataset,
)
from .baselines import (
    NnrlsConfig,
    NnrlsResult,
    nnrls,
    nnrls_weight_colored,
    nnrls_weight_white,
)

__version__ = "0.1.0"
