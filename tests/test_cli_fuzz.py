"""The CLI under bounded random settings and flag lists.

Needs hypothesis, a test-only dependency; the module is skipped where it
is not installed.
"""
import contextlib
import io
import math
import tempfile
import warnings

import pytest

from qisim.cli import (EXIT_CHECKS, EXIT_CONFIG, EXIT_MODEL, EXIT_OK, main)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


# Every strategy draws command-line text.

def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: repr(10.0 ** e))


def _rate(lo, hi):
    """Log-uniform in [lo, hi], with 0 one decade's worth of the time."""
    lo_e, hi_e = math.log10(lo), math.log10(hi)
    return st.floats(lo_e - 1.0, hi_e).map(
        lambda e: repr(10.0 ** e) if e >= lo_e else "0")


def _value_list(lo, hi):
    return st.lists(_rate(lo, hi), min_size=1, max_size=3).map(",".join)


def _unit():
    """A transmission or visibility in [0, 1], now and then just outside."""
    return st.one_of(st.floats(0.0, 1.0).map(repr),
                     st.sampled_from(["-0.01", "1.01"]))


# every key of DEFAULTS except output.directory, which the tests set
_FUZZ_SETTINGS = {
    "source.gamma_hz": _rate(1e-3, 1e300),
    "source.pump_kind": st.sampled_from(["gaussian", "flat_limit"]),
    "channel.eta_U": _unit(),
    "channel.eta_D": _unit(),
    "channel.phase_jitter_rad": _rate(1e-6, 1e6),
    "channel.background_b": _rate(1e-6, 1e6),
    "channel.V_src": _unit(),
    "g13.g0": _log_uniform(1e0, 1e6),
    "output.formats": st.lists(st.sampled_from(["csv", "json", "svg"]),
                               unique=True, max_size=3).map(",".join),
    "eit.od": _rate(1e-3, 1e5),
    "eit.rabi_hz": _rate(1e0, 1e12),
    "eit.gamma_ge_hz": _rate(1e0, 1e12),
    "eit.gamma_s_hz": _rate(1e-3, 1e10),
    "eit.length_m": _rate(1e-9, 1e3),
    "eit.tau_mem_s": _rate(1e-15, 1e3),
    "eit.decay_shape": st.sampled_from(["gaussian", "exponential"]),
    "grids.n_freq": st.integers(3, 24).map(lambda half: str(2 * half)),
    "grids.n_time": st.integers(6, 48).map(str),
    "grids.freq_span_factor": _rate(1e-1, 1e4),
    "grids.time_span_factor": _rate(1e-1, 1e4),
}

_FUZZ_COMMANDS = st.one_of(
    st.builds(lambda fit: ["eit"] + fit, st.one_of(
        st.just([]), _log_uniform(1e2, 1e9).map(
            lambda hz: ["--fit-gamma-s", hz]))),
    st.builds(lambda tp, storage: ["timedist", "--tp-s", tp] + storage,
              _log_uniform(1e-10, 1e-5),
              st.sampled_from([[], ["--with-storage", "eit"],
                               ["--with-storage", "identity"]])),
    st.builds(lambda s, tp: ["visibility", "--sigma-hz", s, "--tp-s", tp],
              _value_list(1e3, 1e10), _value_list(1e-10, 1e-5)),
    st.builds(lambda states, times: ["store", "--states", ",".join(states),
                                     "--storage-times-s", times],
              st.lists(st.sampled_from(["H", "V", "plus", "minus", "R",
                                        "L"]), min_size=1, max_size=3),
              _value_list(1e-10, 1e-4)),
    st.builds(lambda times: ["bell", "--storage-times-s", times],
              _value_list(1e-10, 1e-4)),
    st.builds(lambda times: ["g13", "--times-s", times],
              _value_list(1e-10, 1e-4)),
)

# a command, then up to four distinct --set overrides
_FUZZ_ARGV = st.lists(st.sampled_from(sorted(_FUZZ_SETTINGS)), unique=True,
                      max_size=4).flatmap(
    lambda keys: st.builds(
        lambda command, values: command + [
            arg for key, value in zip(keys, values)
            for arg in ("--set", f"{key}={value}")],
        _FUZZ_COMMANDS, st.tuples(*[_FUZZ_SETTINGS[k] for k in keys])))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(argv=_FUZZ_ARGV)
@example(argv=["eit", "--set", "eit.od=1e6"])
@example(argv=["eit", "--set", "eit.rabi_hz=0.2e6"])
@example(argv=["eit", "--set", "eit.gamma_ge_hz=1e300"])
@example(argv=["eit", "--set", "eit.rabi_hz=1e300"])
@example(argv=["visibility", "--sigma-hz", "1e-300", "--tp-s="])
@example(argv=["store", "--set", "channel.background_b=inf"])
@example(argv=["visibility", "--set", "source.gamma_hz=inf"])
@example(argv=["g13", "--set", "g13.g0=inf"])
@example(argv=["store", "--set", "channel.phase_jitter_rad=1e300"])
@example(argv=["bell", "--set", "channel.phase_jitter_rad=1e300"])
@example(argv=["reproduce-all", "--set", "grids.freq_span_factor=1"])
@example(argv=["timedist", "--set", "source.gamma_hz=4e297"])
@example(argv=["visibility", "--set", "source.gamma_hz=4e297"])
@example(argv=["timedist", "--set", "grids.freq_span_factor=1e300"])
@example(argv=["visibility", "--set", "grids.freq_span_factor=1e300"])
@example(argv=["store", "--states", "H", "--set", "channel.eta_D=2.5e-160"])
def test_every_input_ends_in_a_result_or_one_line(argv):
    """Bounded random settings and flag lists: the CLI returns a result
    or one stderr line, and never a traceback or a warning."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv + ["--out", out])
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_MODEL, EXIT_CHECKS), err
    assert err.count("\n") <= 1, err
    assert "Traceback" not in err and "Warning" not in err, err
    assert not caught, [str(w.message) for w in caught]
