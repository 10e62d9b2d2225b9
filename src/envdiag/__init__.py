"""Envelope-spectrum diagnosis of fault-frequency variation.

Simulates cyclic-impulse vibration signals, estimates fault frequencies
from envelope spectra, calibrates variance thresholds by Monte Carlo and
decides whether an observed fault frequency is constant, uniformly or
normally distributed.
"""

from .calibrate import (
    ThresholdEntry,
    ThresholdTable,
    build_table,
    calibrate_entry,
    config_digest,
)
from .classify import (
    ClassificationReport,
    ClassifyConfig,
    classify_signal,
    match_aci,
    rescale_variance,
    simulate_and_classify,
)
from .envspec import (
    EnvelopeSpectrum,
    SpectrumConfig,
    bandpass,
    envelope,
    envelope_spectrum,
    welch_psd,
)
from .errors import (
    CalibrationError,
    DegenerateSampleError,
    EnvDiagError,
    EstimationError,
    ParameterError,
    SignalFormatError,
    SimulationError,
    TableMismatchError,
)
from .faultfreq import (
    EstimatorConfig,
    FaultFrequencyEstimate,
    HarmonicPeak,
    detect_harmonic_peak,
    estimate_fault_frequency,
    estimate_per_segment,
    snr,
)
from .sigmodel import (
    DistributionSpec,
    PulseParams,
    SeedSpec,
    Signal,
    gaussian_pulse,
    simulate_signal,
)
from .stats import (
    KdeCurve,
    ShapeDistanceResult,
    VarianceTestResult,
    chi2_critical,
    chi_squared_variance_test,
    kde,
    normal_pdf,
    scott_bandwidth,
    shape_distance,
    uniform_pdf,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "ClassificationReport",
    "ClassifyConfig",
    "DegenerateSampleError",
    "DistributionSpec",
    "EnvDiagError",
    "EnvelopeSpectrum",
    "EstimationError",
    "EstimatorConfig",
    "FaultFrequencyEstimate",
    "HarmonicPeak",
    "KdeCurve",
    "ParameterError",
    "PulseParams",
    "SeedSpec",
    "ShapeDistanceResult",
    "Signal",
    "SignalFormatError",
    "SimulationError",
    "SpectrumConfig",
    "TableMismatchError",
    "ThresholdEntry",
    "ThresholdTable",
    "VarianceTestResult",
    "bandpass",
    "build_table",
    "calibrate_entry",
    "chi2_critical",
    "chi_squared_variance_test",
    "classify_signal",
    "config_digest",
    "detect_harmonic_peak",
    "envelope",
    "envelope_spectrum",
    "estimate_fault_frequency",
    "estimate_per_segment",
    "gaussian_pulse",
    "kde",
    "match_aci",
    "normal_pdf",
    "rescale_variance",
    "scott_bandwidth",
    "shape_distance",
    "simulate_and_classify",
    "simulate_signal",
    "snr",
    "uniform_pdf",
    "welch_psd",
]
