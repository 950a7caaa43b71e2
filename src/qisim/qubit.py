"""Polarization qubits: dual-rail storage channel, fidelity battery,
CHSH correlations, and pair-statistics diagnostics.

Two-qubit matrices use the product basis |HH>, |HV>, |VH>, |VV> with the
first factor as qubit 1.  H maps to ensemble rail D and V to rail U, so
rail imbalance shows up as a polarization-dependent amplitude.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ModelError

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-9
_PSD_TOL = -1e-10

CHSH_ANGLES = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)
CONVENTIONS = ("plus", "minus")


@dataclass(frozen=True)
class PolarizationState:
    """Pure polarization ket (alpha, beta) over {H, V}, unit norm."""

    jones: np.ndarray

    def __post_init__(self) -> None:
        j = np.asarray(self.jones, dtype=complex)
        if j.shape != (2,):
            raise InputError("jones vector must have exactly 2 components")
        norm = float(np.sum(np.abs(j) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise InputError(f"jones vector norm^2 = {norm!r}, must be 1")
        object.__setattr__(self, "jones", j)

    def density(self) -> "QubitDensity":
        return QubitDensity(np.outer(self.jones, self.jones.conj()))


_S2 = 1.0 / math.sqrt(2.0)
SIX_STATES = {
    "H": PolarizationState(np.array([1.0, 0.0])),
    "V": PolarizationState(np.array([0.0, 1.0])),
    "plus": PolarizationState(np.array([_S2, _S2])),
    "minus": PolarizationState(np.array([_S2, -_S2])),
    "R": PolarizationState(np.array([_S2, 1j * _S2])),
    "L": PolarizationState(np.array([_S2, -1j * _S2])),
}


def _check_density(m: np.ndarray, dim: int) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim, dim):
        raise InputError(f"density matrix must be {dim}x{dim}")
    if float(np.abs(m - m.conj().T).max()) > _HERM_TOL:
        raise InputError("density matrix must be Hermitian")
    tr = float(np.real(np.trace(m)))
    if abs(tr - 1.0) > _TRACE_TOL:
        raise InputError(f"trace = {tr!r}, must be 1")
    if float(np.linalg.eigvalsh(m).min()) < _PSD_TOL:
        raise InputError("density matrix must be positive semidefinite")
    return m


@dataclass(frozen=True)
class QubitDensity:
    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _check_density(self.matrix, 2))


@dataclass(frozen=True)
class TwoQubitDensity:
    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _check_density(self.matrix, 4))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


@dataclass(frozen=True)
class MemoryChannelParams:
    """Dual-rail storage channel parameters.

    eta_U / eta_D are per-rail amplitude transmissions; background is the
    background-to-signal ratio b, admixed as white noise with weight
    p = b / (1 + b) after post-selection.  Loss common to both rails
    cancels in the post-selection, so storage time enters only through
    the background.
    """

    eta_U: float = 1.0
    eta_D: float = 1.0
    phase_jitter_sigma: float = 0.0
    background: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eta_U", "eta_D"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InputError(f"{name} must be in [0, 1]")
        if self.phase_jitter_sigma < 0.0:
            raise InputError("phase_jitter_sigma must be >= 0")
        if self.background < 0.0:
            raise InputError("background must be >= 0")

    def dephasing_factor(self) -> float:
        return math.exp(-self.phase_jitter_sigma ** 2 / 2.0)

    def background_weight(self) -> float:
        return self.background / (1.0 + self.background)


def _rail_operator(params: MemoryChannelParams) -> np.ndarray:
    # H rides rail D, V rides rail U
    return np.diag([params.eta_D, params.eta_U]).astype(complex)


def memory_channel(rho_in: QubitDensity,
                   params: MemoryChannelParams) -> QubitDensity:
    """Rail attenuation, phase-jitter dephasing, post-selection on a
    retrieved click (renormalization), then white-noise admixture."""
    k = _rail_operator(params)
    r = k @ rho_in.matrix @ k.conj().T
    d = params.dephasing_factor()
    r = r * np.array([[1.0, d], [d, 1.0]])
    tr = float(np.real(np.trace(r)))
    if tr <= 0.0:
        raise ModelError("zero retrieval probability; nothing to post-select")
    r = r / tr
    p = params.background_weight()
    return QubitDensity((1.0 - p) * r + p * np.eye(2) / 2.0)


def fidelity(psi_in: PolarizationState, rho_out: QubitDensity) -> float:
    j = psi_in.jones
    return float(np.real(j.conj() @ rho_out.matrix @ j))


def six_state_battery(params: MemoryChannelParams) -> dict:
    """Channel fidelity for {H, V, +, -, R, L} plus their average."""
    out = {}
    for name, state in SIX_STATES.items():
        rho = memory_channel(state.density(), params)
        out[name] = fidelity(state, rho)
    out["average"] = sum(out[n] for n in SIX_STATES) / len(SIX_STATES)
    return out


# ------------------------------------------------------------- two qubits

def bell_state() -> TwoQubitDensity:
    """(|HV> + |VH>)/sqrt(2) as a density matrix."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = psi[2] = _S2
    return TwoQubitDensity(np.outer(psi, psi.conj()))


def werner_state(v: float) -> TwoQubitDensity:
    if not 0.0 <= v <= 1.0:
        raise InputError("visibility v must be in [0, 1]")
    return TwoQubitDensity(v * bell_state().matrix + (1.0 - v) * np.eye(4) / 4.0)


def _stored_bit(index: int, arm: int) -> int:
    return (index >> 1) & 1 if arm == 1 else index & 1


def _partial_trace(m: np.ndarray, arm: int) -> np.ndarray:
    """Trace out the qubit at `arm`, returning the other qubit's state."""
    r = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for c in range(2):
            if arm == 2:
                r[a, c] = m[2 * a, 2 * c] + m[2 * a + 1, 2 * c + 1]
            else:
                r[a, c] = m[a, c] + m[a + 2, c + 2]
    return r


def memory_channel_two_qubit(rho_in: TwoQubitDensity,
                             params: MemoryChannelParams,
                             arm: int = 2) -> TwoQubitDensity:
    """memory_channel acting on one qubit of a pair (arm is 1-based).

    The background term replaces the stored qubit with a maximally mixed
    one while the flying qubit keeps its marginal: uncorrelated noise
    photons in the retrieved mode.
    """
    if arm not in (1, 2):
        raise InputError("arm must be 1 or 2")
    k = _rail_operator(params)
    k2 = np.kron(k, np.eye(2)) if arm == 1 else np.kron(np.eye(2), k)
    r = k2 @ rho_in.matrix @ k2.conj().T
    d = params.dephasing_factor()
    deph = np.ones((4, 4))
    for a in range(4):
        for c in range(4):
            if _stored_bit(a, arm) != _stored_bit(c, arm):
                deph[a, c] = d
    r = r * deph
    tr = float(np.real(np.trace(r)))
    if tr <= 0.0:
        raise ModelError("zero retrieval probability; nothing to post-select")
    r = r / tr
    p = params.background_weight()
    other = _partial_trace(r, arm)
    eye2 = np.eye(2) / 2.0
    bg = np.kron(eye2, other) if arm == 1 else np.kron(other, eye2)
    return TwoQubitDensity((1.0 - p) * r + p * bg)


def channel_choi(params: MemoryChannelParams) -> np.ndarray:
    """Choi matrix of the linear part of the channel (before the
    nonlinear post-selection step); PSD iff the map is completely
    positive."""
    k = _rail_operator(params)
    d = params.dephasing_factor()
    p = params.background_weight()
    deph = np.array([[1.0, d], [d, 1.0]])

    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            body = (k @ e @ k.conj().T) * deph
            mapped = (1.0 - p) * body + p * np.trace(body) * np.eye(2) / 2.0
            choi += np.kron(e, mapped)
    return choi


def _projector(theta: float) -> np.ndarray:
    v = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    return np.outer(v, v.conj())


def _analyzer(theta: float) -> np.ndarray:
    return _projector(theta) - _projector(theta + math.pi / 2.0)


def correlation_E(rho: TwoQubitDensity, theta1: float, theta2: float,
                  convention: str = "minus") -> float:
    """Joint +/- correlation for linear analyzers at theta1, theta2.

    The `minus` convention mirrors analyzer 1 (theta1 -> -theta1); with it
    the standard angle set is optimal for the Bell state used here.
    """
    if convention not in CONVENTIONS:
        raise InputError(f"convention must be one of {CONVENTIONS}")
    if convention == "minus":
        theta1 = -theta1
    obs = np.kron(_analyzer(theta1), _analyzer(theta2))
    return float(np.real(np.trace(rho.matrix @ obs)))


def chsh_S(rho: TwoQubitDensity, angles=CHSH_ANGLES,
           convention: str = "minus") -> float:
    t1, t1p, t2, t2p = angles
    return abs(correlation_E(rho, t1, t2, convention)
               - correlation_E(rho, t1, t2p, convention)
               + correlation_E(rho, t1p, t2, convention)
               + correlation_E(rho, t1p, t2p, convention))


def correlation_curve(rho: TwoQubitDensity, flying_basis: str,
                      theta_sweep) -> np.ndarray:
    """Coincidence rate vs analyzer angle on the stored arm, with the
    flying arm projected onto H or +; max-normalized."""
    if flying_basis == "H":
        p1 = _projector(0.0)
    elif flying_basis == "plus":
        p1 = _projector(math.pi / 4.0)
    else:
        raise InputError("flying_basis must be 'H' or 'plus'")
    theta_sweep = np.asarray(theta_sweep, dtype=float)
    vals = np.array([
        float(np.real(np.trace(rho.matrix @ np.kron(p1, _projector(th)))))
        for th in theta_sweep])
    peak = float(vals.max())
    if not peak > 0.0:
        raise ModelError("coincidence rate vanishes for every angle")
    return vals / peak


def curve_visibility(values) -> float:
    values = np.asarray(values, dtype=float)
    hi, lo = float(values.max()), float(values.min())
    return (hi - lo) / (hi + lo)


# ---------------------------------------------------------- pair statistics

@dataclass(frozen=True)
class PairStatistics:
    """Per-trial singles and coincidence probabilities."""

    p1: float
    p3: float
    p13: float

    def __post_init__(self) -> None:
        if self.p1 < 0.0 or self.p3 < 0.0 or self.p13 < 0.0:
            raise InputError("probabilities must be >= 0")
        if self.p13 > min(self.p1, self.p3) + 1e-12:
            raise InputError("p13 cannot exceed either singles probability")


def g13(stats: PairStatistics) -> float:
    if stats.p1 <= 0.0 or stats.p3 <= 0.0:
        raise InputError("g13 undefined for zero singles probability")
    return stats.p13 / (stats.p1 * stats.p3)


def alpha_quality(g13_value: float) -> float:
    """Heralded-autocorrelation estimate 4/(g13 - 1): 0 for an ideal
    single photon, 1 at the coherent-state boundary."""
    if g13_value <= 1.0:
        raise ModelError("g13 <= 1 is classical; alpha is undefined")
    return 4.0 / (g13_value - 1.0)


def g13_decay_model(t, g0: float, eta_of_t):
    """Signal coincidences track the retrieval efficiency while the
    accidental floor does not: g13(t) = 1 + (g0 - 1) eta(t), with eta
    normalized to 1 at t = 0."""
    if not g0 > 1.0:
        raise InputError("g0 must exceed 1")
    t = np.asarray(t, dtype=float)
    out = 1.0 + (g0 - 1.0) * np.asarray(eta_of_t(t), dtype=float)
    return float(out) if out.ndim == 0 else out


def crossing_time(g0: float, decay, threshold: float = 5.0) -> float:
    """Time at which g13_decay_model falls to `threshold` for a
    MemoryDecay `decay`: where eta(t) = (threshold - 1) / (g0 - 1)."""
    if not threshold > 1.0:
        raise InputError("threshold must exceed 1")
    if not g0 > 1.0:
        raise InputError("g0 must exceed 1")
    if g0 <= threshold:
        raise ModelError("g13 starts at or below the threshold")
    return decay.inverse((threshold - 1.0) / (g0 - 1.0))
