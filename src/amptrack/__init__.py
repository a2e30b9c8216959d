"""amptrack: make one quantum system reproduce another's optical response.

A proportional amplifier loop drives a quantum system so that the time
derivative of a chosen observable follows a prescribed reference signal.
Two platforms are implemented end to end: a 1D soft-core atom on a grid
(momentum tracking, high-harmonic responses) and a periodically driven
Fermi-Hubbard ring (many-body current tracking), plus the intensity
matching rules and spectral analysis that connect the two pictures.
"""

from .exceptions import ConfigError, NumericalError
from .series import TimeSeries
from .pulses import (
    PulseSpec,
    ati_matched_field,
    evaluate_tl_field,
    hhg_cutoff,
    hhg_matched_field,
    ponderomotive_energy,
)
from .grid import AtomNumerics, AtomSystem, calibrate_softening
from .lattice import (
    HubbardSystem,
    LatticeNumerics,
)
from .feedback import (
    FeedbackConfig,
    RunRecord,
    control_field,
    run_open_loop,
    run_tracking,
)
from .spectral import (
    OrderPeak,
    Spectrum,
    SpectrumComparison,
    compare_spectra,
    detect_cutoff_order,
    harmonic_peaks,
    power_spectrum,
)
from .config import ExperimentConfig, build_system, parse_config
from .units import (
    intensity_to_au_field,
    wavelength_nm_to_au_angular,
)

__version__ = "0.1.0"
