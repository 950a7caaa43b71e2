import math
import re

import pytest

import qisim.config as config
from qisim import qubit
from qisim.errors import InputError
from qisim.spectral import TWO_PI

import refvals as rv


def test_defaults_load_without_a_file():
    cfg = config.load_config()
    assert cfg["source.gamma_hz"] == 5e6
    assert cfg["source.pump_kind"] == "gaussian"
    assert cfg["eit.od"] == 55.0
    assert cfg["eit.rabi_hz"] == 12.6e6
    assert cfg["eit.gamma_ge_hz"] == 2.87e6
    assert cfg["eit.length_m"] == 4e-3
    assert cfg["channel.eta_U"] == rv.ETA_U
    assert cfg["channel.background_b"] == rv.B0
    assert cfg["channel.V_src"] == rv.V_SRC
    assert cfg["eit.tau_mem_s"] == rv.TAU_MEM
    assert cfg["g13.g0"] == 25.0
    assert cfg["grids.n_freq"] == 512


# The four calibrated defaults are computed from config's table of the
# paper's numbers (test_defaults_load_without_a_file pins their values);
# the model at the defaults gives each target back.

def test_tau_mem_default_hits_the_crossing_anchor():
    cfg = config.load_config()
    crossing = qubit.crossing_time(cfg["g13.g0"], config.decay_from(cfg),
                                   config.G13_THRESHOLD)
    assert crossing == pytest.approx(config.CHECKS["g13_crossing"][0],
                                     rel=1e-15, abs=0.0)


def test_calibrated_defaults_reproduce_their_targets():
    cfg = config.load_config()
    refs = config.FIDELITIES
    battery = qubit.six_state_battery(
        config.channel_from(cfg, config.STORE_TIME_S))
    rails = ("H", "V")
    diagonal = ("plus", "minus", "R", "L")
    for names in (rails, diagonal):
        got = sum(battery[n] for n in names) / len(names)
        want = sum(refs[n] for n in names) / len(names)
        assert abs(got - want) <= 1e-15, names
    stored = qubit.memory_channel(
        qubit.werner_state(cfg["channel.V_src"]),
        config.channel_from(cfg, config.FRINGE_TIME_S, balanced=True))
    thetas = [k * math.pi / 180.0 for k in range(181)]
    vis = qubit.curve_visibility(
        qubit.correlation_curve(stored, "plus", thetas))
    assert abs(vis - config.CHECKS["fringe_visibility_1us"][0]) <= 1e-15


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "eit.od = 30          # trailing comment\n"
        "source.pump_kind = flat_limit\n"
        "output.formats = csv,json\n",
        encoding="utf-8")
    cfg = config.load_config(str(path))
    assert cfg["eit.od"] == 30.0
    assert cfg["source.pump_kind"] == "flat_limit"
    assert config.formats_from(cfg) == ("csv", "json")
    # untouched keys keep defaults
    assert cfg["eit.rabi_hz"] == 12.6e6


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("eit.od 30\n", encoding="utf-8")
    with pytest.raises(InputError):
        config.load_config(str(bad))
    # the pump duration and bandwidth are command flags, not config keys
    old = tmp_path / "old.cfg"
    old.write_text("source.T_p_s = 30e-9\n", encoding="utf-8")
    with pytest.raises(InputError, match="unknown config key"):
        config.load_config(str(old))
    with pytest.raises(InputError):
        config.load_config(str(tmp_path / "missing.cfg"))


def test_config_file_text_forms(tmp_path):
    path = tmp_path / "run.cfg"
    # a byte-order mark, CRLF endings, no trailing newline, a repeated
    # key (the last one wins) and a comment holding characters that
    # str.splitlines would take as line ends
    path.write_bytes("\ufeffeit.od = 30\r\n# old\u2028eit.od = 1\x85\r\n"
                     "eit.od = 40".encode("utf-8"))
    assert config.load_config(str(path))["eit.od"] == 40.0
    path.write_bytes(b"eit.od = 30 # caf\xe9\n")
    with pytest.raises(InputError, match="run.cfg: not UTF-8 text"):
        config.load_config(str(path))


def test_unknown_and_malformed_keys():
    with pytest.raises(InputError):
        config.load_config(overrides=("bogus.key=1",))
    with pytest.raises(InputError):
        config.load_config(overrides=("eit.od",))
    # a value is parsed as its key's default's type
    with pytest.raises(InputError,
                       match="^eit.od: cannot parse 'abc' as float$"):
        config.load_config(overrides=("eit.od=abc",))
    with pytest.raises(InputError,
                       match="^grids.n_freq: cannot parse '1.5' as int$"):
        config.load_config(overrides=("grids.n_freq=1.5",))
    # the artifacts' place is --out, not a key
    for removed in ("seed=1", "eit.eta0=0.2", "source.T_p_s=30e-9",
                    "source.sigma_hz=4e6", "output.directory=x"):
        with pytest.raises(InputError, match="unknown config key"):
            config.load_config(overrides=(removed,))


@pytest.mark.parametrize("override", [
    "source.gamma_hz=0",
    "source.gamma_hz=-5e6",
    "eit.od=-1",
    "grids.n_freq=7",
    "grids.n_freq=9",
    "grids.n_freq=16777218",
    "g13.g0=1.0",
    "output.formats=csv,png",
    "output.formats=",
    "source.pump_kind=boxcar",
    "source.pump_kind=delta_limit",
    "eit.decay_shape=linear",
    "source.gamma_hz=inf",
    "channel.background_b=inf",
    "channel.background_b=nan",
    "g13.g0=inf",
    "channel.eta_U=1.5",
    "channel.phase_jitter_rad=-1",
    "channel.background_b=-0.1",
    "eit.tau_mem_s=0",
    # a rate whose angular value, 2*pi times it, overflows
    "source.gamma_hz=1e308",
    "eit.rabi_hz=1e308",
    "eit.gamma_ge_hz=1e308",
    "eit.gamma_s_hz=1e308",
])
def test_value_range_validation(override):
    # every message names the key it rejects
    key = override.split("=")[0]
    with pytest.raises(InputError, match=re.escape(key)):
        config.load_config(overrides=(override,))


def test_override_precedence_over_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("eit.od = 10\n", encoding="utf-8")
    cfg = config.load_config(str(path), overrides=("eit.od=20",))
    assert cfg["eit.od"] == 20.0


def test_echo_and_canonical_text():
    cfg = config.load_config()
    assert cfg == config.DEFAULTS and cfg is not config.DEFAULTS
    text = config.canonical_text(cfg)
    assert text == config.canonical_text(config.load_config())
    lines = text.strip().splitlines()
    assert lines == sorted(lines)
    assert any(line.startswith("eit.od = ") for line in lines)


def test_builders_produce_configured_objects():
    cfg = config.load_config()
    line = config.line_from(cfg)
    assert line.gamma == pytest.approx(TWO_PI * 5e6, rel=1e-15)

    pump = config.pump_from(cfg, TWO_PI * 3.7e6)
    assert (pump.kind, pump.sigma) == ("gaussian", TWO_PI * 3.7e6)
    flat_cfg = config.load_config(overrides=("source.pump_kind=flat_limit",))
    flat = config.pump_from(flat_cfg, TWO_PI * 3.7e6)
    assert (flat.kind, flat.sigma) == ("flat_limit", 0.0)

    grid = config.grid_from(cfg, line, pump)
    assert grid.n_points == 512
    assert grid.span == pytest.approx(
        40.0 * max(line.gamma, pump.sigma), rel=1e-12)

    medium = config.medium_from(cfg)
    assert medium.optical_depth == 55.0
    assert medium.rabi_control == pytest.approx(rv.RABI, rel=1e-15)
    assert medium.gamma_s == pytest.approx(rv.GAMMA_S_DEFAULT, rel=1e-15)

    decay = config.decay_from(cfg)
    assert decay.tau_mem == rv.TAU_MEM
    assert decay.shape == "gaussian"


def test_background_scaling_frozen():
    cfg = config.load_config()
    assert config.background_at(cfg, 0.0) == pytest.approx(rv.B0, rel=1e-12)
    assert config.background_at(cfg, 200e-9) == pytest.approx(
        rv.B_200NS, rel=1e-12)


def test_channel_builder():
    cfg = config.load_config()
    params = config.channel_from(cfg, 200e-9)
    assert params.eta_U == rv.ETA_U
    assert params.eta_D == 1.0
    assert params.background == pytest.approx(rv.B_200NS, rel=1e-12)
    balanced = config.channel_from(cfg, 200e-9, balanced=True)
    assert balanced.eta_U == 1.0
    assert balanced.eta_D == 1.0
