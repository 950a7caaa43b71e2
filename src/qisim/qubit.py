"""Polarization qubits: dual-rail storage channel, fidelity battery,
CHSH correlations, the memory's retrieval decay and the heralded
cross-correlation decay.

Two-qubit matrices use the product basis |HH>, |HV>, |VH>, |VV> with the
first factor as qubit 1, the flying qubit, and the second as qubit 2, the
stored one.  H maps to ensemble rail D and V to rail U, so
rail imbalance shows up as a polarization-dependent amplitude.

A pure state is its Jones vector (alpha, beta) over {H, V}, a pair of
numbers of unit norm.  A density is the tuple of its rows of Python
complex numbers, 2x2 for one qubit and 4x4 for two; every one built
here is physical by construction (tests/oracles.check_density).  So no
numpy is imported and no number depends on the BLAS core or the SIMD
level of the CPU.
"""
from __future__ import annotations

import math
import operator
import sys

from .errors import InputError, ModelError

CHSH_ANGLES = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)
DECAY_SHAPES = ("gaussian", "exponential")


# ------------------------------------------------------------- matrices

def _eye(n: int, value: float = 1.0) -> tuple:
    return tuple(tuple(complex(value if i == j else 0.0) for j in range(n))
                 for i in range(n))


def _outer(v) -> tuple:
    """|v><v|."""
    return tuple(tuple(a * complex(b).conjugate() for b in v) for a in v)


def _map(fn, *ms) -> tuple:
    """fn applied entry by entry to matrices of one shape."""
    return tuple(tuple(map(fn, *rows)) for rows in zip(*ms))


def _kron(a, b) -> tuple:
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def _expectation(rho, obs) -> float:
    """Re Tr(rho obs)."""
    return sum(x * y for row, col in zip(rho, zip(*obs))
               for x, y in zip(row, col)).real


_S2 = 1.0 / math.sqrt(2.0)
SIX_STATES = {"H": (1.0, 0.0), "V": (0.0, 1.0), "plus": (_S2, _S2),
              "minus": (_S2, -_S2), "R": (_S2, 1j * _S2),
              "L": (_S2, -1j * _S2)}


class MemoryChannelParams:
    """Dual-rail storage channel parameters.

    eta_U / eta_D are per-rail amplitude transmissions; background is the
    background-to-signal ratio b, admixed as white noise with weight
    p = b / (1 + b) after post-selection.  Loss common to both rails
    cancels in the post-selection, so storage time enters only through
    the background.  The rails are in [0, 1] and the jitter and the
    background >= 0, as config checks the channel keys.
    """

    def __init__(self, eta_U: float = 1.0, eta_D: float = 1.0,
                 phase_jitter_sigma: float = 0.0,
                 background: float = 0.0) -> None:
        self.eta_U, self.eta_D, self.background = eta_U, eta_D, background
        self.phase_jitter_sigma = phase_jitter_sigma

    def dephasing_factor(self) -> float:
        try:
            return math.exp(-self.phase_jitter_sigma ** 2 / 2.0)
        except OverflowError:  # sigma above about 1e154: exp's limit
            return 0.0

    def background_weight(self) -> float:
        return self.background / (1.0 + self.background)


def _post_select(r: tuple) -> tuple:
    """r / Tr r, the state given a retrieved click."""
    tr = sum(r[i][i] for i in range(len(r))).real
    # a subnormal trace has too few significant bits to normalize by
    if not tr >= sys.float_info.min:
        raise ModelError(f"retrieval probability {tr:.3g} is zero or "
                         "subnormal; nothing to post-select")
    return _map(lambda x: x / tr, r)


def memory_channel(rho_in, params: MemoryChannelParams):
    """Rail attenuation, phase-jitter dephasing, post-selection on a
    retrieved click (renormalization), then background admixture, acting
    on the stored qubit: the last tensor factor of rho_in, which is the
    whole state of a 2x2 density and qubit 2 of a 4x4 one.

    The background replaces the stored qubit with a maximally mixed one
    while the factors before it keep their marginal: uncorrelated noise
    photons in the retrieved mode.  Returns a density of rho_in's size.
    """
    rail = (params.eta_D, params.eta_U)   # H rides rail D, V rides rail U
    # index a of rho_in holds state a % 2 of the stored qubit, and the
    # dephasing factor scales the entries between unlike states
    dephase = (1.0, params.dephasing_factor())
    r = _post_select([[rail[a % 2] * x * rail[b % 2] * dephase[(a + b) % 2]
                       for b, x in enumerate(row)]
                      for a, row in enumerate(rho_in)])
    f = len(r) // 2
    rest = [[r[2 * i][2 * j] + r[2 * i + 1][2 * j + 1] for j in range(f)]
            for i in range(f)]
    p = params.background_weight()
    return _map(lambda x, y: (1.0 - p) * x + p * y,
                r, _kron(rest, _eye(2, 0.5)))


def fidelity(psi_in: tuple, rho_out) -> float:
    """<psi_in| rho_out |psi_in> for a Jones vector and a 2x2 density."""
    return _expectation(rho_out, _outer(psi_in))


def six_state_battery(params: MemoryChannelParams) -> dict:
    """Channel fidelity for each of {H, V, +, -, R, L}."""
    out = {}
    for name, state in SIX_STATES.items():
        rho = memory_channel(_outer(state), params)
        out[name] = fidelity(state, rho)
    return out


# ------------------------------------------------------------- two qubits

def bell_state() -> tuple:
    """(|HV> + |VH>)/sqrt(2) as a density matrix."""
    return _outer((0.0, _S2, _S2, 0.0))


def werner_state(v: float) -> tuple:
    """v (in [0, 1]) times the Bell state plus 1 - v of white noise."""
    return _map(lambda b, w: v * b + (1.0 - v) * w,
                bell_state(), _eye(4, 0.25))


def _projector(theta: float) -> tuple:
    return _outer((math.cos(theta), math.sin(theta)))


def _analyzer(theta: float) -> tuple:
    return _map(operator.sub, _projector(theta),
                _projector(theta + math.pi / 2.0))


def correlation_E(rho, theta1: float, theta2: float) -> float:
    """Joint +/- correlation for linear analyzers at theta1, theta2.

    Analyzer 1 is mirrored (theta1 -> -theta1); with that convention the
    standard angle set CHSH_ANGLES is optimal for the Bell state used
    here.
    """
    return _expectation(rho, _kron(_analyzer(-theta1), _analyzer(theta2)))


def chsh_S(rho) -> float:
    t1, t1p, t2, t2p = CHSH_ANGLES
    return abs(correlation_E(rho, t1, t2) - correlation_E(rho, t1, t2p)
               + correlation_E(rho, t1p, t2) + correlation_E(rho, t1p, t2p))


def correlation_curve(rho, flying_basis: str, theta_sweep) -> list:
    """Coincidence rate vs analyzer angle on the stored arm, with the
    flying arm projected onto H or +; max-normalized."""
    p1 = _projector({"H": 0.0, "plus": math.pi / 4.0}[flying_basis])
    vals = [_expectation(rho, _kron(p1, _projector(th)))
            for th in theta_sweep]
    peak = max(vals)
    return [v / peak for v in vals]


def curve_visibility(values) -> float:
    hi, lo = max(values), min(values)
    return (hi - lo) / (hi + lo)


# ---------------------------------------------------------------- memory

class MemoryDecay:
    """Retrieval efficiency versus storage time, relative to t = 0.

    Only the shape matters: every figure of merit is post-selected on a
    retrieved photon, so a constant efficiency factor cancels.  tau_mem
    is positive and shape one of DECAY_SHAPES, as config checks them.
    """

    def __init__(self, tau_mem: float, shape: str) -> None:
        self.tau_mem, self.shape = tau_mem, shape

    def eta(self, t: float) -> float:
        if not 0.0 <= t < math.inf:
            raise InputError("storage time must be finite and >= 0")
        # x and x * x may overflow to inf (x ** 2 would raise): eta is 0
        x = t / self.tau_mem
        return math.exp(-(x * x if self.shape == "gaussian" else x))

    def inverse(self, eta: float) -> float:
        """Storage time at which eta(t) has fallen to eta, 0 < eta <= 1."""
        x = -math.log(eta)
        return self.tau_mem * (math.sqrt(x) if self.shape == "gaussian"
                               else x)


# ------------------------------------------------- heralded cross-correlation

def alpha_quality(g13_value: float) -> float:
    """Heralded-autocorrelation estimate 4/(g13 - 1): 0 for an ideal
    single photon, 1 at the coherent-state boundary; g13 > 1."""
    return 4.0 / (g13_value - 1.0)


def g13_decay_model(t, g0: float, eta_of_t):
    """Signal coincidences track the retrieval efficiency while the
    accidental floor does not: g13(t) = 1 + (g0 - 1) eta(t), with eta
    normalized to 1 at t = 0."""
    return 1.0 + (g0 - 1.0) * eta_of_t(t)


def crossing_time(g0: float, decay, threshold: float) -> float:
    """Time at which g13_decay_model falls to `threshold` for a
    MemoryDecay `decay`: where eta(t) = (threshold - 1) / (g0 - 1), for
    g0 and threshold above 1."""
    if g0 <= threshold:
        raise ModelError("g13 starts at or below the threshold")
    return decay.inverse((threshold - 1.0) / (g0 - 1.0))
