"""Numerical simulator for a narrow-band photon-pair source coupled to an
atomic slow-light memory: joint spectra, time distributions, transparency
and the memory's retrieval decay, and the polarization-qubit layer on
top."""

from .errors import (ConfigError, InputError, ModelError, QisimError,
                     ResolutionError)
from .spectral import (CavityLine, FrequencyGrid, JointSpectralAmplitude,
                       PumpSpectrum, build_jsa, cavity_response,
                       default_grid, sigma_from_pulse_duration)
from .biphoton import (JointTimeDistribution, joint_time_distribution,
                       visibility)
from .eit import (EitMedium, FitResult, MemoryDecay, fit_gamma_s,
                  group_delay, transmission, window_fwhm)
from .qubit import (CHSH_ANGLES, SIX_STATES, MemoryChannelParams,
                    PolarizationState, QubitDensity, TwoQubitDensity,
                    alpha_quality, bell_state, chsh_S, correlation_E,
                    correlation_curve, crossing_time, curve_visibility,
                    fidelity, g13_decay_model, memory_channel,
                    six_state_battery, werner_state)

__version__ = "0.1.0"
