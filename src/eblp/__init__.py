"""Optimal linear prediction of low-rank signals observed through
per-sample diagonal transforms (including missing data) under heavy noise.

The simulator and the NNRLS baseline serve the benchmark campaign, not a
fit; import them from their modules, ``eblp.simulate`` and ``eblp.baselines``.
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
    mp_bulk_edge,
    spectral_estimates,
)
from .shrinkage import (
    SpikeEstimates,
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

__version__ = "0.1.0"
