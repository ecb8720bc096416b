"""Photon-pair observables of collinear degenerate SPDC in periodically,
randomly and chirped periodically poled nonlinear crystals."""

__version__ = "0.1.0"

from .dispersion import (
    DispersionModel,
    PhaseMismatch,
    WavelengthRangeError,
    base_domain_length,
    congruent_linbo3_extraordinary,
    delta_k,
    mismatch_from_detuning,
    refractive_index,
)
from .structure import (
    DomainStack,
    StackConstructionError,
    build_chirped,
    build_periodic,
    build_random,
)
from .phasematch import (
    NumericalDomainError,
    PhaseMatchSample,
    f_avg_sq,
    f_boundary_sum,
    f_chirped,
    f_chirped_envelope,
    f_exact,
)
from .spectra import (
    ChirpedSource,
    FwhmResult,
    NoSolutionError,
    PumpSpec,
    RandomEnsembleSource,
    RateReport,
    SpectralGrid,
    Spectrum,
    calibrate,
    coupling_g,
    default_pump,
    fwhm,
    mean_abs_f_sq,
    pair_rate,
    rate_ratio,
    sigma_for_zeta,
    signal_spectrum,
    spectral_density,
    symmetric_grid,
)
from .interference import (
    HomTrace,
    PhaseUnavailableError,
    PhaseUnwrapError,
    SumFrequencyTrace,
    TwoPhotonAmplitude,
    compensate_phase,
    default_hom_delays,
    hom_trace,
    sum_frequency_trace,
    two_photon_amplitude,
)
from .ensemble import (
    ConvergenceReport,
    EnsembleEstimate,
    EnsembleSpec,
    RealizationError,
    child_seed,
    convergence_report,
    run_ensemble,
)
