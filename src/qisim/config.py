"""Run configuration: flat dotted-key text files plus overrides.

All frequencies in config files are ordinary frequency (Hz); they are
converted to angular units where the physics modules need them.  The
channel defaults were fitted once against the reference fidelity/
visibility numbers and are not recomputed at runtime.
"""
from __future__ import annotations

import math

from .errors import ConfigError, ModelError
from .qubit import DECAY_SHAPES, MemoryChannelParams, MemoryDecay

TWO_PI = 2.0 * math.pi

# Largest per-axis point count of an n x n array: the time density
# (4096^2 float64 = 128 MB) and the amplitude the tests materialize.  A
# gaussian timedist's n_freq x n_time complex half-transform, and so
# every vector over the frequency grid, is held to as many values.
MATERIALIZE_LIMIT = 4096

PUMP_KINDS = ("gaussian", "flat_limit")

_FORMATS = ("csv", "json", "svg")

# key -> (type tag, default).  Type tags: int, float, str.  The pump's
# duration or bandwidth is a flag of the command that uses it.
DEFAULTS = {
    "source.gamma_hz": ("float", 5e6),
    "source.pump_kind": ("str", "gaussian"),
    "eit.od": ("float", 55.0),
    "eit.rabi_hz": ("float", 12.6e6),
    "eit.gamma_ge_hz": ("float", 2.87e6),
    "eit.gamma_s_hz": ("float", 1.0e4),
    "eit.length_m": ("float", 4e-3),
    "eit.tau_mem_s": ("float", 1.494136040059602e-06),
    "eit.decay_shape": ("str", "gaussian"),
    "channel.eta_U": ("float", 0.5819439041677432),
    "channel.eta_D": ("float", 1.0),
    "channel.phase_jitter_rad": ("float", TWO_PI / 28.0),
    "channel.background_b": ("float", 0.059371996124696444),
    "channel.V_src": ("float", 0.9078388022982314),
    "g13.g0": ("float", 25.0),
    "grids.n_freq": ("int", 512),
    "grids.freq_span_factor": ("float", 40.0),
    "grids.n_time": ("int", 512),
    "grids.time_span_factor": ("float", 10.0),
    "output.directory": ("str", "out"),
    "output.formats": ("str", "csv,json,svg"),
}

_POSITIVE = (
    "source.gamma_hz", "eit.od", "eit.rabi_hz", "eit.gamma_ge_hz",
    "eit.length_m", "eit.tau_mem_s", "grids.freq_span_factor",
    "grids.time_span_factor",
)
_NON_NEGATIVE = ("eit.gamma_s_hz", "channel.phase_jitter_rad",
                 "channel.background_b")
_UNIT_RANGE = ("channel.eta_U", "channel.eta_D", "channel.V_src")


def _parse_value(key: str, text: str):
    kind = DEFAULTS[key][0]
    text = text.strip()
    if kind == "str":
        return text
    try:
        if kind == "int":
            return int(text)
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {text!r} as {kind}") from None


class RunConfig:
    def __init__(self, values: dict) -> None:
        self.values = values

    def __getitem__(self, key: str):
        return self.values[key]

    def echo(self) -> dict:
        return dict(sorted(self.values.items()))

    def canonical_text(self) -> str:
        lines = [f"{k} = {v!r}" for k, v in sorted(self.values.items())]
        return "\n".join(lines) + "\n"


def _validate(values: dict) -> None:
    for key, (kind, _) in DEFAULTS.items():
        if kind == "float" and not math.isfinite(values[key]):
            raise ConfigError(f"{key} must be finite, got {values[key]!r}")
    for key in _POSITIVE:
        if not values[key] > 0.0:
            raise ConfigError(f"{key} must be positive, got {values[key]!r}")
    for key in _NON_NEGATIVE:
        if values[key] < 0.0:
            raise ConfigError(f"{key} must be >= 0, got {values[key]!r}")
    for key in _UNIT_RANGE:
        if not 0.0 <= values[key] <= 1.0:
            raise ConfigError(f"{key} must be in [0, 1], got {values[key]!r}")
    for key in ("grids.n_freq", "grids.n_time"):
        if values[key] < 8:
            raise ConfigError(f"{key} must be at least 8")
    n_freq = values["grids.n_freq"]
    if n_freq > MATERIALIZE_LIMIT ** 2:  # checked before any grid exists
        raise ConfigError(f"grids.n_freq must be at most "
                          f"{MATERIALIZE_LIMIT ** 2}, got {n_freq}")
    if values["source.pump_kind"] not in PUMP_KINDS:
        raise ConfigError(f"source.pump_kind must be one of {PUMP_KINDS}")
    if values["eit.decay_shape"] not in DECAY_SHAPES:
        raise ConfigError(f"eit.decay_shape must be one of {DECAY_SHAPES}")
    if not values["g13.g0"] > 1.0:
        raise ConfigError("g13.g0 must exceed 1")
    fmts = _formats_list(values["output.formats"])
    for f in fmts:
        if f not in _FORMATS:
            raise ConfigError(f"output.formats: unknown format {f!r}; "
                              f"allowed: {_FORMATS}")
    if not fmts:
        raise ConfigError("output.formats must name at least one format")


def _formats_list(text: str) -> list:
    return [p.strip() for p in text.split(",") if p.strip()]


def _apply(values: dict, key: str, raw: str) -> None:
    key = key.strip()
    if key not in DEFAULTS:
        raise ConfigError(f"unknown config key {key!r}")
    values[key] = _parse_value(key, raw)


def load_config(path: str = None, overrides=()) -> RunConfig:
    """Defaults, then the file, then `--set key=value` overrides."""
    values = {k: v for k, (_, v) in DEFAULTS.items()}
    if path is not None:
        try:
            # a leading byte-order mark is dropped; \r\n and \r read as \n
            with open(path, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start]
            raise ConfigError(f"{path}: not UTF-8 text (byte {bad:#04x}: "
                              f"{exc.reason})") from None
        # only \n ends a line: str.splitlines also breaks at \x85, \x0c,
        # U+2028 and others, which would end a comment early
        for ln, line in enumerate(text.split("\n"), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            key, raw = line.split("=", 1)
            _apply(values, key, raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        _apply(values, key, raw)
    _validate(values)
    return RunConfig(values)


# ------------------------------------------------------- object builders

def line_from(cfg: RunConfig):
    from .spectral import CavityLine
    return CavityLine(gamma=TWO_PI * cfg["source.gamma_hz"])


def pump_from(cfg: RunConfig, sigma: float):
    """The configured pump kind; sigma (rad/s) is a gaussian's bandwidth."""
    from .spectral import PumpSpectrum
    kind = cfg["source.pump_kind"]
    return PumpSpectrum(kind, sigma if kind == "gaussian" else 0.0)


def grid_from(cfg: RunConfig, line, pump):
    from .spectral import default_grid
    return default_grid(line, pump, n_points=cfg["grids.n_freq"],
                        span_factor=cfg["grids.freq_span_factor"])


def medium_from(cfg: RunConfig):
    from .eit import EitMedium
    return EitMedium(
        optical_depth=cfg["eit.od"],
        rabi_control=TWO_PI * cfg["eit.rabi_hz"],
        gamma_ge=TWO_PI * cfg["eit.gamma_ge_hz"],
        gamma_s=TWO_PI * cfg["eit.gamma_s_hz"],
        length=cfg["eit.length_m"],
    )


def decay_from(cfg: RunConfig) -> MemoryDecay:
    return MemoryDecay(tau_mem=cfg["eit.tau_mem_s"],
                       shape=cfg["eit.decay_shape"])


def background_at(cfg: RunConfig, t_s: float) -> float:
    """Background-to-signal ratio grows as retrieval decays: the noise
    rate is constant while the signal follows eta(t)."""
    eta = decay_from(cfg).eta(t_s)
    b = cfg["channel.background_b"] / eta if eta > 0.0 else math.inf
    if b == math.inf:  # its weight b / (1 + b) would be NaN
        raise ModelError(f"retrieval has decayed to {eta:.3g} at t = "
                         f"{t_s!r} s; the background ratio is out of range")
    return b


def channel_from(cfg: RunConfig, t_s: float,
                 balanced: bool = False) -> MemoryChannelParams:
    return MemoryChannelParams(
        eta_U=1.0 if balanced else cfg["channel.eta_U"],
        eta_D=1.0 if balanced else cfg["channel.eta_D"],
        phase_jitter_sigma=cfg["channel.phase_jitter_rad"],
        background=background_at(cfg, t_s),
    )


def formats_from(cfg: RunConfig) -> tuple:
    return tuple(_formats_list(cfg["output.formats"]))
