"""Covariance-mismatch effects on adaptive CFAR detectors.

Simulates how a training set whose covariance differs from the test cell's
shifts the false-alarm and detection probabilities of the GLRT, AMF, and
Kalson detectors, using an exact low-dimensional stochastic representation
of the invariant pair (beta, t_tilde) cross-validated against full
matrix-level simulation.
"""

from ._version import __version__
from .detect import AMF, KELLY, DetectorKind, kalson
from .mcengine import (
    DetectorPlan,
    MisSetup,
    PfaEstimate,
    SweepResult,
    calibrate_snr,
    calibrate_threshold,
    ecdf,
    kelly_threshold,
    sweep,
)
from .mismatch import GerReport, MismatchSpec, RepSampler, check_ger, gen_sigma_t, omega_decompose
from .randkit import GENERATOR_ID, StreamKey
from .scenario import ScenarioCfg, build_cov, build_steering
from .storep import make_sampler, sample_pairs

__all__ = [
    "__version__",
    "AMF",
    "KELLY",
    "DetectorKind",
    "kalson",
    "DetectorPlan",
    "MisSetup",
    "PfaEstimate",
    "SweepResult",
    "calibrate_snr",
    "calibrate_threshold",
    "ecdf",
    "kelly_threshold",
    "sweep",
    "GerReport",
    "MismatchSpec",
    "RepSampler",
    "check_ger",
    "gen_sigma_t",
    "omega_decompose",
    "GENERATOR_ID",
    "StreamKey",
    "ScenarioCfg",
    "build_cov",
    "build_steering",
    "make_sampler",
    "sample_pairs",
]
