"""Transient simulator and analysis toolkit for unbiased, unshunted
Josephson transmission lines: fluxon/fluxoid pulse trains in, microwave
Gaussian and flat-top Gaussian pulses out via breather formation and decay.
"""

from .circuit import (
    PHI0,
    CircuitParams,
    DerivedParams,
    ParameterError,
    derive,
    reflection_thresholds,
    solve_geometry,
)
from .pulses import (
    PhaseEnvelope,
    Pulse,
    PulseTrain,
    compile_envelope,
    schedule_spacing,
    sech_pulse,
    single_fluxon_width,
)
from .solver import SolverError, Trajectory, dispersion_check, simulate
from .analysis import (
    AnalysisError,
    BreatherFit,
    InsufficientDataError,
    PowerReport,
    SpectrumResult,
    band_power_dbm,
    breather_fit,
    efficiency,
    energy_audit,
    power_waves,
    psd,
)

__version__ = "0.1.0"
