"""The CLI under bounded random settings, flag lists and config file
text.

Needs hypothesis, a test-only dependency; the module is skipped where it
is not installed.
"""
import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings

import pytest

from qisim.cli import (EXIT_CHECKS, EXIT_CONFIG, EXIT_MODEL, EXIT_OK, main)
from qisim.config import load_config
from qisim.errors import ConfigError

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


def _refuse(token):
    raise AssertionError(f"non-finite JSON number {token}")


def _assert_finite(path, argv):
    """No `nan` or `inf` in an SVG, no NaN or Infinity token in a JSON
    file, and no CSV cell that parses as a non-finite float; a cell that
    parses as no float (an error message) is text."""
    with open(path, encoding="utf-8", newline="") as fh:
        if path.endswith(".svg"):
            text = fh.read()
            assert "nan" not in text and "inf" not in text, (argv, path)
        elif path.endswith(".json"):
            json.load(fh, parse_constant=_refuse)
        elif path.endswith(".csv"):
            for row in csv.reader(fh):
                for cell in row:
                    with contextlib.suppress(ValueError):
                        assert math.isfinite(float(cell)), (argv, path, cell)


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
@example(argv=["timedist", "--tp-s", "abc"])
@example(argv=["bell", "--storage-times-s", "-1e-6"])
@example(argv=["eit", "--fit-gamma-s", "inf"])
@example(argv=["g13", "--times-s", "1e302"])
@example(argv=["g13", "--times-s", "0,1e303"])
@example(argv=["g13", "--set", "g13.g0=5e307"])
@example(argv=["g13", "--set", "g13.g0=1.7e308"])
@example(argv=["timedist", "--with-storage", "eit", "--set", "eit.od=1e308",
               "--set", "eit.gamma_ge_hz=1e6", "--set", "eit.rabi_hz=460",
               "--set", "eit.gamma_s_hz=0"])
@example(argv=["timedist", "--with-storage", "eit",
               "--set", "source.gamma_hz=7e305", "--set", "eit.od=1e11"])
def test_every_input_ends_in_a_result_or_one_line(argv):
    """Bounded random settings and flag lists: the CLI returns a result
    or one stderr line, and never a traceback or a warning; no file it
    writes holds a non-finite number."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv + ["--out", out])
        for name in os.listdir(out):
            _assert_finite(os.path.join(out, name), argv)
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_MODEL, EXIT_CHECKS), err
    assert err.count("\n") <= 1, err
    assert "Traceback" not in err and "Warning" not in err, err
    assert not caught, [str(w.message) for w in caught]


# ---------------------------------------------------------- config files
#
# File text is drawn as setting lines (known keys with bounded values,
# unknown keys, values of the wrong type), comment and blank lines, then
# laid out with a byte-order mark or not, LF or CRLF endings, and a
# trailing newline or not.

_UNKNOWN_KEYS = ["nosuch.key", "eit.OD", "source.sigma_hz", "eit", "eit.od.x"]
_BAD_VALUES = {
    "grids.n_freq": ["1.5", "1e3", "0x10", "abc", ""],
    "grids.n_time": ["64.0", "-", "1_0.5"],
    "eit.od": ["abc", "", "1,5", "nan", "inf", "1e999"],
    "g13.g0": ["-inf", "0x1p4", "2..0"],
}
_SPACE = st.sampled_from(["", " ", "  ", "\t", "\xa0"])
_COMMENT_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                      blacklist_characters="\r\n"),
                        max_size=12)


def _setting():
    """(key, raw value, whether it must be refused)."""
    known = st.sampled_from(sorted(_FUZZ_SETTINGS)).flatmap(
        lambda k: _FUZZ_SETTINGS[k].map(lambda v: (k, v, False)))
    unknown = st.sampled_from(_UNKNOWN_KEYS).map(lambda k: (k, "1", True))
    bad = st.sampled_from(sorted(_BAD_VALUES)).flatmap(
        lambda k: st.sampled_from(_BAD_VALUES[k]).map(
            lambda v: (k, v, True)))
    return st.one_of(known, known, known, unknown, bad)


def _setting_line(setting, spaces, comment):
    key, value, _ = setting
    a, b, c, d = spaces
    tail = "" if comment is None else "#" + comment
    return f"{a}{key}{b}={c}{value}{d}{tail}"


# each line: a setting with its line text, or (None, comment/blank text)
_LINE = st.one_of(
    st.builds(lambda s, sp, c: (s, _setting_line(s, sp, c)), _setting(),
              st.tuples(_SPACE, _SPACE, _SPACE, _SPACE),
              st.one_of(st.none(), _COMMENT_TEXT)),
    st.builds(lambda sp, c: (None, sp + "#" + c), _SPACE, _COMMENT_TEXT),
    st.builds(lambda sp: (None, sp), _SPACE),
)
_LAYOUT = st.tuples(st.booleans(), st.sampled_from(["\n", "\r\n"]),
                    st.booleans())


def _file_text(lines, layout):
    bom, eol, trailing = layout
    text = eol.join(t for _, t in lines) + (eol if lines and trailing else "")
    return ("\ufeff" if bom else "") + text


def _outcome(load):
    try:
        return load().values
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(lines=st.lists(_LINE, max_size=8), layout=_LAYOUT)
@example(lines=[(("eit.od", "30", False), "eit.od = 30"),
                (("eit.od", "40", False), "eit.od=40 # again")],
         layout=(True, "\r\n", False))
@example(lines=[(None, "# old\u2028eit.od = 1\x85x")],
         layout=(False, "\n", True))
def test_config_file_reads_like_the_same_overrides(lines, layout):
    """A config file sets what the same key=value overrides set, in the
    same order (a repeated key: the last one wins), or fails with the
    same message; comments, blank lines and the layout change nothing."""
    overrides = [f"{s[0]}={s[1]}" for s, _ in lines if s is not None]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "wb") as fh:
            fh.write(_file_text(lines, layout).encode("utf-8"))
        from_file = _outcome(lambda: load_config(path))
    assert from_file == _outcome(lambda: load_config(None, overrides))


# bytes no UTF-8 decoder accepts at a character boundary
_NOT_UTF8 = st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3(",
                             b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"])
# lines the parser refuses (no "=", or an empty key); in a drawn line
# they stand as a refused setting with no key or value
_BROKEN_LINE = st.sampled_from(["eit.od 55", "[eit]", "eit.od: 55",
                                "= 55"])


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(lines=st.lists(st.one_of(_LINE, _BROKEN_LINE.map(
           lambda t: ((None, None, True), t))), max_size=6),
       layout=_LAYOUT,
       not_utf8=st.one_of(st.none(), st.tuples(_NOT_UTF8, st.integers(0))),
       # the parser refuses --with-storage identity before the file is read
       command=_FUZZ_COMMANDS.filter(lambda argv: "identity" not in argv))
@example(lines=[(("eit.od", "30", False), "eit.od = 30")],
         layout=(False, "\n", True), not_utf8=(b"\xff", 0), command=["eit"])
def test_every_config_file_ends_in_a_result_or_one_line(lines, layout,
                                                        not_utf8, command):
    """Random config file text, bad bytes included: the CLI returns a
    result, or exits 2 with one `qisim:` line when the file is refused,
    and a manifest exactly when it succeeds."""
    text = _file_text(lines, layout)
    data = text.encode("utf-8")
    if not_utf8 is not None:
        bad, at = not_utf8
        at %= len(text) + 1
        data = text[:at].encode("utf-8") + bad + text[at:].encode("utf-8")
    refused = not_utf8 is not None or any(
        s is not None and s[2] for s, _ in lines)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        path = os.path.join(tmp, "run.cfg")
        with open(path, "wb") as fh:
            fh.write(data)
        out = os.path.join(tmp, "out")
        code = main(command + ["--config", path, "--out", out])
        wrote_manifest = os.path.exists(os.path.join(out, "manifest.json"))
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_MODEL), err
    assert not caught, [str(w.message) for w in caught]
    assert wrote_manifest == (code == EXIT_OK), err
    if code == EXIT_OK:
        assert not err and not refused
    else:
        assert err.startswith("qisim: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and "Warning" not in err, err
    if refused:
        assert code == EXIT_CONFIG, err
    if not_utf8 is not None:
        assert "run.cfg: not UTF-8 text" in err, err
