"""Units are a symmetry of the model: multiply every rate by 2^k and
every time by 2^-k, and every number a command writes stays the same or
scales by exactly 2^k or 2^-k.  Scaling by the radix is exact in binary
floating point, short of overflow and underflow, so the artifacts must
match bit for bit.

Needs hypothesis, a test-only dependency; the module is skipped where it
is not installed.
"""
import csv
import json
import math
import os
import tempfile

import pytest

from qisim.cli import EXIT_MODEL, EXIT_OK, main
from qisim.config import DEFAULTS

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# the power of 2^k by which a number scales
RATE, TIME, SAME = 1, -1, 0

# the config keys that are rates (Hz) or times (s); every other key is
# dimensionless, a length or not a number
_KEYS = {"source.gamma_hz": RATE, "eit.rabi_hz": RATE,
         "eit.gamma_ge_hz": RATE, "eit.gamma_s_hz": RATE,
         "eit.tau_mem_s": TIME}
_SMALL = ["--set", "grids.n_freq=64", "--set", "grids.n_time=32",
          "--set", "output.formats=csv,json"]

_FIDELITIES = ("H", "V", "plus", "minus", "R", "L", "average")
# every CSV column and JSON key (dotted, list indices dropped) of the
# artifacts below, and its unit; manifest.json echoes the input
UNITS = {
    "visibility.csv": {"sigma_hz": RATE, "T_p_s": TIME, "visibility": SAME,
                       "error": SAME},
    "timedist.csv": {"t1_ns": TIME, "t2_ns": TIME, "density": SAME},
    # the spectrum's detunings are a fixed -30..30 MHz, not a multiple of
    # any rate of the medium, so the transmissions on them are not
    # compared: the one absolute scale in these artifacts
    "eit_spectrum.csv": {"delta_hz": SAME, "transmission_control_on": None,
                         "transmission_control_off": None},
    "eit_report.json": {
        "window_fwhm_hz": RATE, "group_delay_s": TIME,
        "delay_bandwidth_product": SAME, "delay_bandwidth_convention": SAME,
        "v_g_m_per_s": RATE, "length_m": SAME, "gamma_s_rad_s": RATE,
        "transmission_on_resonance": SAME,
        "transmission_control_off_resonance": SAME,
        "fit": SAME, "fit.target_hz": RATE, "fit.gamma_s_rad_s": RATE,
        "fit.achieved_window_fwhm_hz": RATE, "fit.converged": SAME},
    "store_report.json": {
        "states": SAME, "results.t_s": TIME,
        **{f"results.fidelities.{n}": SAME for n in _FIDELITIES}},
    "bell_curve.csv": {"theta_rad": SAME, "coincidence_H": SAME,
                       "coincidence_plus": SAME},
    "bell_report.json": {
        "V_src": SAME, "angles_rad": SAME, "convention": SAME,
        "S_local": SAME, "violated_local": SAME, "rows.t_s": TIME,
        "rows.S": SAME, "rows.violated": SAME, "curve.t_s": TIME,
        "curve.visibility_H": SAME, "curve.visibility_plus": SAME},
    "g13.csv": {"t_s": TIME, "g13": SAME, "alpha": SAME},
    "g13_report.json": {"g0": SAME, "threshold": SAME,
                        "crossing_time_s": TIME, "alpha_at_threshold": SAME},
}


def _command(name, rates, times, target_hz):
    """The argv of a drawn command; rates(...) and times(...) format
    comma lists of scaled rates and times."""
    tp = ["--tp-s", times(100e-9)]
    return {
        "visibility": ["visibility", "--sigma-hz", rates(12.5e6, 3.7e6),
                       "--tp-s", times(30e-9, 100e-9)],
        "timedist": ["timedist"] + tp,
        # a flat pump's time step must resolve its whole bandwidth
        "timedist-flat": ["timedist", "--set", "source.pump_kind=flat_limit",
                          "--set", "grids.n_time=160"] + tp,
        "timedist-eit": ["timedist", "--with-storage", "eit"] + tp,
        "eit": ["eit"],
        "eit-fit": ["eit", "--fit-gamma-s", rates(target_hz)],
        "store": ["store", "--storage-times-s", times(0.0, 200e-9, 1e-6)],
        "bell": ["bell", "--storage-times-s", times(0.0, 200e-9, 1e-6)],
        "g13": ["g13", "--times-s", times(0.0, 1e-6, 2e-6, 4e-6)],
        # refusals: a time grid too coarse for the pump, a retrieval
        # decayed to nothing, and a window wider than any gamma_s gives
        "timedist-coarse": ["timedist", "--set", "grids.n_time=8"] + tp,
        "store-decayed": ["store", "--storage-times-s", times(1e-4)],
        "bell-decayed": ["bell", "--storage-times-s", times(1e-4)],
        "eit-fit-unreachable": ["eit", "--fit-gamma-s", rates(2 * target_hz)],
    }[name]


# the exit code of each drawn command that is refused at every k
_REFUSED = {"timedist-coarse": EXIT_MODEL, "store-decayed": EXIT_MODEL,
            "bell-decayed": EXIT_MODEL, "eit-fit-unreachable": EXIT_MODEL}


def _run(name, k, target_hz) -> tuple:
    """Run the command with every rate times 2^k and every time times
    2^-k: (exit code, artifact name -> [(key, unit, value)])."""
    def scaled(unit):
        return lambda *vs: ",".join(repr(math.ldexp(v, unit * k)) for v in vs)

    command = _command(name, scaled(RATE), scaled(TIME), target_hz)
    argv = command[:1] + _SMALL + command[1:]  # the command's --set wins
    for key, unit in _KEYS.items():
        argv += ["--set", f"{key}={scaled(unit)(DEFAULTS[key])}"]
    with tempfile.TemporaryDirectory() as out:
        code = main(argv + ["--out", out])
        return code, {n: _numbers(os.path.join(out, n), UNITS[n])
                      for n in sorted(os.listdir(out)) if n != "manifest.json"}


def _numbers(path, units) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        if path.endswith(".csv"):
            header, *rows = csv.reader(fh)
            return [(h, units[h], cell)
                    for row in rows for h, cell in zip(header, row)]
        return [(key, units[key], v) for key, v in _leaves(json.load(fh))]


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for key, v in obj.items():
            yield from _leaves(v, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v, path)
    else:
        yield path, obj


def _scales(a, b, unit, k) -> bool:
    """b is a, or exactly a * 2^(unit k) for a number; an empty cell or
    null is itself."""
    if unit is None:
        return True
    if unit == SAME or a in ("", None):
        return a == b and type(a) is type(b)
    return float(b) == math.ldexp(float(a), unit * k)


@settings(max_examples=90, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(["visibility", "timedist", "timedist-flat",
                             "timedist-eit", "eit", "eit-fit", "store",
                             "bell", "g13", *_REFUSED]),
       k=st.integers(-20, 20), target_hz=st.floats(2.5e6, 2.9e6))
def test_power_of_two_rescaling_is_exact(name, k, target_hz):
    (code, base), (scaled_code, scaled) = (_run(name, 0, target_hz),
                                           _run(name, k, target_hz))
    # a refusal is the same refusal at every scale
    assert (code, scaled_code) == (_REFUSED.get(name, EXIT_OK),) * 2, name
    assert base.keys() == scaled.keys()
    for artifact, numbers in base.items():
        assert len(numbers) == len(scaled[artifact]), artifact
        for (key, unit, a), (_, _, b) in zip(numbers, scaled[artifact]):
            assert _scales(a, b, unit, k), (artifact, key, k, a, b)
