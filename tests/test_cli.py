import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from qisim import biphoton, cli, config, eit, outputs, spectral, svgplot
from qisim.cli import (EXIT_CHECKS, EXIT_CONFIG, EXIT_MODEL, EXIT_OK, main)
from qisim.errors import InputError, ModelError, QisimError

import oracles
import refvals as rv
from helpers import disk_full_on, hash_dir, manifest_sans_timestamp


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_visibility_command(tmp_path):
    out = tmp_path / "out"
    code = main(["visibility", "--out", str(out),
                 "--sigma-hz", "12.5e6,3.7e6", "--tp-s", "30e-9"])
    assert code == EXIT_OK
    header, rows = oracles.read_csv(str(out / "visibility.csv"))
    assert header == ["sigma_hz", "T_p_s", "visibility", "error"]
    assert len(rows) == 3
    # pulse-duration rows come first, then direct bandwidth rows
    assert rows[0][1] == 30e-9
    assert rows[0][0] == pytest.approx(rv.SIGMA_HZ_TP30, rel=1e-12)
    assert rows[0][2] == pytest.approx(rv.VIS_TP30, abs=1e-12)
    assert rows[1][0] == 12.5e6
    assert rows[1][2] == pytest.approx(rv.VIS_SIGMA_12P5, abs=1e-12)
    assert rows[2][2] == pytest.approx(rv.VIS_SIGMA_3P7, abs=1e-12)
    assert all(r[3] is None for r in rows)
    assert (out / "visibility.svg").exists()
    assert (out / "manifest.json").exists()
    # a list given alone is the whole sweep: the other flag's defaults
    # do not join it
    for argv, row in [(["--sigma-hz", "12.5e6"], rows[1]),
                      (["--tp-s", "30e-9"], rows[0])]:
        alone = tmp_path / argv[0].strip("-")
        assert main(["visibility", "--out", str(alone), *argv]) == EXIT_OK
        assert oracles.read_csv(str(alone / "visibility.csv"))[1] == [row]


def test_visibility_row_failures_are_recorded(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["visibility", "--out", str(out),
                 "--sigma-hz", "12.5e6,-1", "--tp-s", ""])
    assert code == EXIT_OK
    _, rows = oracles.read_csv(str(out / "visibility.csv"))
    assert len(rows) == 2
    assert rows[0][3] is None
    assert rows[1][2] is None
    assert isinstance(rows[1][3], str) and rows[1][3]


def test_visibility_all_rows_failing_is_an_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["visibility", "--out", str(out),
                 "--sigma-hz", "-1", "--tp-s", "-2"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "qisim: every visibility sweep row failed; first error: pulse "
        "duration must be positive, got -2.0\n")
    # reproduce-all stops at its sweep with the same one line
    code = main(["reproduce-all", "--out", str(tmp_path / "all"),
                 "--set", "grids.freq_span_factor=1"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("qisim: every visibility sweep row failed; "
                          "first error: grid span ")
    assert err.count("\n") == 1


def test_timedist_command(tmp_path):
    out = tmp_path / "out"
    code = main(["timedist", "--out", str(out), "--tp-s", "100e-9",
                 "--set", "grids.n_time=256"])
    assert code == EXIT_OK
    header, rows = oracles.read_csv(str(out / "timedist.csv"))
    assert header == ["t1_ns", "t2_ns", "density"]
    assert len(rows) == 256 * 256
    peak = max(r[2] for r in rows)
    assert peak == 1.0
    assert all(r[2] >= 0.0 for r in rows)
    assert (out / "timedist.svg").exists()


def test_timedist_identity_storage_is_refused(tmp_path, capsys):
    # the unfiltered density is the plain timedist
    out = tmp_path / "out"
    code = main(["timedist", "--out", str(out), "--with-storage",
                 "identity"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("qisim: argument --with-storage: invalid choice: "
                          "'identity'")
    assert err.count("\n") == 1
    assert not out.exists()


def test_timedist_eit_storage_runs(tmp_path):
    out = tmp_path / "out"
    code = main(["timedist", "--out", str(out), "--tp-s", "100e-9",
                 "--set", "grids.n_time=256", "--with-storage", "eit"])
    assert code == EXIT_OK
    _, rows = oracles.read_csv(str(out / "timedist.csv"))
    # grid is extended past the plain window to hold the delayed peak
    assert len(rows) > 256 * 256


def test_timedist_heatmap_comes_after_the_density(tmp_path, monkeypatch):
    # the storage map's heatmap is drawn from its block mean, once the
    # n_t x n_t density is let go: on entry to the figure, less memory is
    # traced than the density alone would hold
    seen = {}
    density_of = biphoton.joint_time_distribution
    heatmap = svgplot.heatmap

    def density(*args):
        out = density_of(*args)
        seen["density"] = out.nbytes
        return out

    def figure(*args):
        seen["traced"] = tracemalloc.get_traced_memory()[0]
        return heatmap(*args)

    monkeypatch.setattr(biphoton, "joint_time_distribution", density)
    monkeypatch.setattr(svgplot, "heatmap", figure)
    cfg = config.load_config(overrides=(
        "grids.n_freq=256", "grids.n_time=160", "output.formats=csv,svg"))
    writer = outputs.OutputWriter(str(tmp_path), config.formats_from(cfg))
    tracemalloc.start()
    try:
        cli.cmd_timedist(cfg, writer, 100e-9, "eit")
    finally:
        tracemalloc.stop()
    assert seen["density"] == 480 * 480 * 8   # three times n_time a side
    assert seen["traced"] < seen["density"]


def test_timedist_undersampled_grid_exits_with_model_code(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["timedist", "--out", str(out), "--tp-s", "30e-9",
                 "--set", "grids.n_time=32"])
    assert code == EXIT_MODEL
    assert capsys.readouterr().err


def test_eit_command_report(tmp_path):
    out = tmp_path / "out"
    assert main(["eit", "--out", str(out)]) == EXIT_OK
    report = load_json(out / "eit_report.json")
    assert report["window_fwhm_hz"] == pytest.approx(rv.WINDOW_DEFAULT,
                                                     rel=1e-9)
    assert report["group_delay_s"] == pytest.approx(rv.DELAY_DEFAULT,
                                                    rel=1e-9)
    assert report["delay_bandwidth_product"] == pytest.approx(
        rv.DBP_DEFAULT, rel=1e-9)
    assert report["delay_bandwidth_product"] == pytest.approx(
        2.0 * math.pi * report["window_fwhm_hz"] * report["group_delay_s"],
        rel=1e-12)
    assert report["delay_bandwidth_convention"] == (
        "angular: 2*pi*fwhm_hz*delay_s")
    assert report["v_g_m_per_s"] == pytest.approx(rv.VG_DEFAULT, rel=1e-9)
    assert report["length_m"] == 4e-3
    assert report["transmission_on_resonance"] == pytest.approx(
        rv.T0_DEFAULT, rel=1e-9)
    assert report["transmission_control_off_resonance"] == pytest.approx(
        math.exp(-rv.OD), rel=1e-9)
    assert report["fit"] is None
    header, rows = oracles.read_csv(str(out / "eit_spectrum.csv"))
    assert header == ["delta_hz", "transmission_control_on",
                      "transmission_control_off"]
    assert len(rows) == 2401
    assert rows[0][0] == -30e6
    assert rows[-1][0] == 30e6


def test_eit_fit_subcommand(tmp_path):
    out = tmp_path / "out"
    assert main(["eit", "--out", str(out),
                 "--fit-gamma-s", "2.9e6"]) == EXIT_OK
    report = load_json(out / "eit_report.json")
    fit = report["fit"]
    assert fit["converged"] is True
    assert fit["target_hz"] == 2.9e6
    assert fit["gamma_s_rad_s"] == pytest.approx(rv.FIT29_GAMMA_S, abs=0.05)
    assert fit["achieved_window_fwhm_hz"] == pytest.approx(2.9e6, abs=0.1)
    assert report["gamma_s_rad_s"] == pytest.approx(rv.FIT29_GAMMA_S,
                                                    abs=0.05)


@pytest.mark.parametrize("target", ["2.9e6", "2680950"])
def test_eit_fit_report_describes_the_fitted_medium(tmp_path, target):
    # the report states gamma_s once, and its window is the fit's: every
    # figure is of the medium the fit returned, with no Hz round trip
    out = tmp_path / "out"
    assert main(["eit", "--out", str(out), "--fit-gamma-s", target]) == (
        EXIT_OK)
    report = load_json(out / "eit_report.json")
    fit = report["fit"]
    assert report["gamma_s_rad_s"] == fit["gamma_s_rad_s"]
    assert report["window_fwhm_hz"] == fit["achieved_window_fwhm_hz"]
    fitted, _ = eit.fit_gamma_s(config.medium_from(config.load_config()),
                                float(target))
    assert fit["gamma_s_rad_s"] == fitted.gamma_s
    assert report["window_fwhm_hz"] == eit.window_fwhm(fitted)
    assert report["group_delay_s"] == eit.group_delay(fitted)


def _reachable_range_line(lo, hi, target):
    return (f"qisim: gamma_s fit: no gamma_s gives a {target:.6g} Hz window; "
            f"this medium reaches {lo:.6g} to {hi:.6g} Hz\n")


def test_eit_fit_unreachable_target_fails(tmp_path, capsys):
    # the paper's target, and one whose squared window overflows
    for target in (config.CHECKS["eit_window_fwhm"][0], 1e300):
        out = tmp_path / f"out{target:g}"
        code = main(["eit", "--out", str(out), "--fit-gamma-s", str(target)])
        assert code == EXIT_MODEL
        assert capsys.readouterr().err == _reachable_range_line(
            rv.WINDOW_NARROWEST, rv.WINDOW_GS0, target)
        assert not (out / "manifest.json").exists()


def test_eit_fit_infinite_target_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["eit", "--out", str(out), "--fit-gamma-s", "inf"]) == (
        EXIT_CONFIG)
    assert capsys.readouterr().err == (
        "qisim: target window must be positive and finite\n")
    assert not (out / "manifest.json").exists()


def test_eit_fit_on_the_window_collapse_fails_cleanly(tmp_path, capsys):
    # narrower than every window: the same line as a too-wide target
    out = tmp_path / "out"
    code = main(["eit", "--out", str(out), "--fit-gamma-s", "2.4e6"])
    assert code == EXIT_MODEL
    assert capsys.readouterr().err == _reachable_range_line(
        rv.WINDOW_NARROWEST, rv.WINDOW_GS0, 2.4e6)
    assert not (out / "manifest.json").exists()


def test_eit_sub_khz_window(tmp_path):
    out = tmp_path / "out"
    assert main(["eit", "--out", str(out), "--set", "eit.rabi_hz=0.05e6",
                 "--set", "eit.gamma_s_hz=0"]) == EXIT_OK
    report = load_json(out / "eit_report.json")
    assert 0.0 < report["window_fwhm_hz"] < 1e3


def test_store_command(tmp_path):
    out = tmp_path / "out"
    assert main(["store", "--out", str(out),
                 "--storage-times-s", "200e-9"]) == EXIT_OK
    report = load_json(out / "store_report.json")
    assert report["states"] == ["H", "V", "plus", "minus", "R", "L"]
    result = report["results"][0]
    assert result["t_s"] == 200e-9
    for name, val in rv.SIX_200.items():
        assert result["fidelities"][name] == pytest.approx(val, abs=1e-12)
    assert (out / "store_fidelities.svg").exists()


def test_store_subset_averages_requested_states(tmp_path):
    out = tmp_path / "out"
    assert main(["store", "--out", str(out), "--states", "H,V",
                 "--storage-times-s", "200e-9"]) == EXIT_OK
    report = load_json(out / "store_report.json")
    fids = report["results"][0]["fidelities"]
    assert set(fids) == {"H", "V", "average"}
    assert fids["average"] == pytest.approx(
        (rv.SIX_200["H"] + rv.SIX_200["V"]) / 2.0, abs=1e-12)


def test_store_rejects_unknown_state(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["store", "--out", str(out), "--states", "H,Q"])
    assert code == EXIT_CONFIG


_EMPTY_SWEEP = "--sigma-hz or --tp-s needs at least one value"


@pytest.mark.parametrize("argv, named", [
    (["store", "--states", ","], "--states"),
    (["store", "--storage-times-s", ","], "--storage-times-s"),
    (["bell", "--storage-times-s", ","], "--storage-times-s"),
    (["g13", "--times-s", ","], "--times-s"),
    (["g13", "--times-s", ""], "--times-s"),
    (["visibility", "--sigma-hz", ",", "--tp-s", ","], _EMPTY_SWEEP),
    (["visibility", "--sigma-hz", "abc"], "--sigma-hz"),
    (["visibility", "--tp-s", "30e-9,abc"], "--tp-s"),
    (["store", "--storage-times-s", "x"], "--storage-times-s"),
    (["bell", "--storage-times-s", "1e-6,,y"], "--storage-times-s"),
    (["g13", "--times-s", "0,1e-6s"], "--times-s"),
    (["store", "--states", "H,V,H"], "--states names 'H' twice"),
    # a list given alone is the whole sweep, so an empty one is no sweep
    (["visibility", "--sigma-hz="], _EMPTY_SWEEP),
    (["visibility", "--tp-s="], _EMPTY_SWEEP),
], ids=["store-states", "store-times", "bell-times", "g13-times",
        "g13-times-empty", "visibility-sweep", "visibility-sigma-text",
        "visibility-tp-text", "store-times-text", "bell-times-text",
        "g13-times-text", "store-states-repeated", "visibility-sigma-empty",
        "visibility-tp-empty"])
def test_empty_flag_list_is_a_config_error(tmp_path, capsys, argv, named):
    # and a list item that is not a number, or a repeated state: the flag
    # is named either way
    code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "Traceback" not in err
    assert err == f"qisim: {named}\n" or err.startswith(f"qisim: {named} ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, expect", [
    (["bell", "--storage-times-s=1e-4"], EXIT_MODEL),
    (["store", "--storage-times-s=1e-4"], EXIT_MODEL),
    (["bell", "--storage-times-s=inf"], EXIT_CONFIG),
    (["g13", "--times-s=nan"], EXIT_CONFIG),
    # eta is subnormal, and the background ratio overflows
    (["store", "--set", "eit.tau_mem_s=7.4e-9"], EXIT_MODEL),
], ids=["bell-underflow", "store-underflow", "bell-inf", "g13-nan",
        "store-subnormal"])
def test_storage_time_beyond_the_decay_model(tmp_path, capsys, argv, expect):
    code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == expect
    assert "Traceback" not in err
    assert err.startswith("qisim: ")
    assert err.count("\n") == 1


def _grid_refusal(n_points):
    return (f"qisim: time grid of {n_points} points exceeds the "
            "materialization limit of 4096; lower grids.n_time\n")


def _stretch_refusal(delay, window, stretch):
    return (f"qisim: the EIT delay 2*tau = {delay} s stretches the {window} s "
            f"time window {stretch}-fold; no grids.n_time keeps the time "
            "grid within the materialization limit of 4096\n")


@pytest.mark.parametrize("argv, expect", [
    (["timedist", "--set", "grids.n_time=4097"], _grid_refusal(4097)),
    (["timedist", "--with-storage", "eit", "--set", "grids.n_time=1366"],
     _grid_refusal(4098)),
    # the delay alone stretches the window more than 4096 / 8-fold, so no
    # grids.n_time can help
    (["timedist", "--with-storage", "eit", "--set", "eit.od=1e5",
      "--set", "eit.rabi_hz=1e3", "--set", "eit.gamma_s_hz=0"],
     _stretch_refusal("182710", "3.1831e-07", "5.74e+11")),
    # twice the stored window's delay overflows
    (["timedist", "--with-storage", "eit", "--set", "eit.od=1e308",
      "--set", "eit.gamma_ge_hz=1e6", "--set", "eit.rabi_hz=460",
      "--set", "eit.gamma_s_hz=0"],
     _stretch_refusal("inf", "3.1831e-07", "inf")),
    # the delay over the plain window overflows
    (["timedist", "--with-storage", "eit", "--set", "source.gamma_hz=7e305",
      "--set", "eit.od=1e11"],
     _stretch_refusal("1149.19", "2.27364e-306", "inf")),
], ids=["plain", "eit-storage", "eit-stretch", "eit-delay-overflow",
        "eit-stretch-overflow"])
def test_time_grid_beyond_the_materialization_limit(tmp_path, capsys,
                                                    monkeypatch, argv,
                                                    expect):
    # the guard fires before the amplitude or any n_time^2 array exists
    def refuse(*args, **kwargs):
        raise AssertionError("the amplitude was built before the guard")

    monkeypatch.setattr(spectral, "build_jsa", refuse)
    code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err == expect


@pytest.mark.parametrize("command", ["timedist", "visibility"])
def test_frequency_grid_beyond_the_kernel_limit(tmp_path, capsys, command,
                                                monkeypatch):
    # the purity needs no n x n array, so only the gaussian timedist's
    # n_freq x n_time half-transform bounds grids.n_freq; its guard fires
    # before the amplitude exists
    def refuse(*args, **kwargs):
        raise AssertionError("the amplitude was built before the guard")

    if command == "timedist":
        monkeypatch.setattr(spectral, "build_jsa", refuse)
    code = main([command, "--set", "grids.n_freq=5000",
                 "--set", "grids.n_time=4096", "--set", "output.formats=csv",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if command == "visibility":
        assert (code, err) == (EXIT_OK, "")
        return
    assert code == EXIT_CONFIG
    assert err == ("qisim: the half-transform of 5000 frequencies by 4096 "
                   "times exceeds 16777216 values; lower grids.n_freq or "
                   "grids.n_time\n")


@pytest.mark.parametrize("command", [
    ["timedist", "--set", "source.pump_kind=flat_limit"],
    ["visibility", "--sigma-hz", "12.5e6", "--tp-s="],
], ids=["timedist", "visibility"])
@pytest.mark.parametrize("n_freq", ["10000000000000",
                                    "100000000000000000000"])
def test_huge_frequency_grid_is_refused_before_it_exists(
        tmp_path, capsys, monkeypatch, command, n_freq):
    # numpy used to answer with its own text (an _ArrayMemoryError
    # traceback, or "Maximum allowed size exceeded" past int64)
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was built before the check")

    monkeypatch.setattr(config, "grid_from", refuse)
    code = main([*command, "--set", f"grids.n_freq={n_freq}",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err == (f"qisim: grids.n_freq must be at most 16777216, "
                   f"got {n_freq}\n")


@pytest.mark.parametrize("command", ["timedist", "visibility"])
@pytest.mark.parametrize("setting, named", [
    ("source.gamma_hz=4e297", "cavity linewidth 4e+297 Hz"),
    ("grids.freq_span_factor=1e300", "cavity linewidth 5e+06 Hz"),
    # a mass of about 3.5e-312: subnormal, not zero
    ("grids.freq_span_factor=1e143", "cavity linewidth 5e+06 Hz"),
], ids=["linewidth", "span", "subnormal"])
def test_underflowing_amplitude_names_the_cause(tmp_path, capsys, command,
                                                setting, named):
    code = main([command, "--set", setting, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("qisim: ") and err.count("\n") == 1
    assert ("the squared modulus of the sampled amplitude underflows below "
            f"the normal float range ({named}, grid span ") in err


@pytest.mark.filterwarnings("error")
def test_vanishing_memory_time_constant(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["g13", "--set", "eit.tau_mem_s=1e-300", "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    crossing = load_json(out / "g13_report.json")["crossing_time_s"]
    assert math.isfinite(crossing) and crossing > 0.0


def test_bell_command(tmp_path):
    out = tmp_path / "out"
    assert main(["bell", "--out", str(out)]) == EXIT_OK
    report = load_json(out / "bell_report.json")
    assert report["V_src"] == rv.V_SRC
    assert report["convention"] == "minus"
    assert report["angles_rad"] == [0.0, math.pi / 4.0, math.pi / 8.0,
                                    3.0 * math.pi / 8.0]
    assert report["S_local"] == pytest.approx(rv.S_LOCAL, abs=1e-12)
    assert report["violated_local"] is True
    ts = [row["t_s"] for row in report["rows"]]
    assert ts == [0.0, 200e-9, 1e-6]
    s_vals = {row["t_s"]: row["S"] for row in report["rows"]}
    assert s_vals[0.0] == pytest.approx(rv.S_0US, abs=1e-9)
    assert s_vals[200e-9] == pytest.approx(rv.S_200NS, abs=1e-9)
    assert s_vals[1e-6] == pytest.approx(rv.S_1US, abs=1e-9)
    assert all(row["violated"] for row in report["rows"])
    curve = report["curve"]
    assert curve["t_s"] == 1e-6
    assert curve["visibility_plus"] == pytest.approx(rv.CURVE_VIS_PLUS_1US,
                                                     abs=1e-9)
    assert curve["visibility_H"] == pytest.approx(rv.CURVE_VIS_H_1US,
                                                  abs=1e-9)
    header, rows = oracles.read_csv(str(out / "bell_curve.csv"))
    assert header == ["theta_rad", "coincidence_H", "coincidence_plus"]
    assert len(rows) == 181
    assert max(r[1] for r in rows) == 1.0
    assert max(r[2] for r in rows) == 1.0


def test_g13_command(tmp_path):
    out = tmp_path / "out"
    assert main(["g13", "--out", str(out)]) == EXIT_OK
    report = load_json(out / "g13_report.json")
    assert report["g0"] == 25.0
    assert report["threshold"] == config.G13_THRESHOLD
    assert report["crossing_time_s"] == pytest.approx(rv.G13_CROSSING,
                                                      rel=1e-9)
    assert report["alpha_at_threshold"] == 1.0
    header, rows = oracles.read_csv(str(out / "g13.csv"))
    assert header == ["t_s", "g13", "alpha"]
    assert len(rows) == 81
    assert rows[0][1] == pytest.approx(25.0, rel=1e-12)
    assert rows[0][2] == pytest.approx(4.0 / 24.0, rel=1e-12)
    g_vals = [r[1] for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(g_vals, g_vals[1:]))


def test_g13_plot_of_a_huge_g0_has_finite_coordinates(tmp_path):
    # a tick at (hi - lo) * 3 / 4 overflowed from about g0 = 4.1e307
    out = tmp_path / "out"
    assert main(["g13", "--set", "g13.g0=5e307", "--out", str(out)]) == EXIT_OK
    text = (out / "g13_curve.svg").read_text(encoding="utf-8")
    assert "nan" not in text and "inf" not in text


def test_g13_axis_beyond_the_float_range_is_refused(tmp_path, capsys):
    # the padded y range of g0 = 1.7e308 spans more than the largest
    # float, and so does the one-point x range of 1e302 s (1e308 us)
    for flag, value in (("--set", "g13.g0=1.7e308"), ("--times-s", "1e302")):
        out = tmp_path / flag.strip("-")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["g13", flag, value, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_MODEL
        assert err.startswith("qisim: g13_curve.svg: axis range ")
        assert err.count("\n") == 1 and "nan" not in err
        assert not (out / "g13_curve.svg").exists()
        assert not caught, [str(w.message) for w in caught]
    # no plot, no axis to refuse
    assert main(["g13", "--times-s", "1e303", "--set",
                 "output.formats=csv,json", "--out",
                 str(tmp_path / "csv")]) == EXIT_OK


def test_config_error_exits_before_writing(tmp_path, capsys):
    # one refusal class per refusal exit code: InputError exits 2,
    # ModelError 3
    assert set(QisimError.__subclasses__()) == {InputError, ModelError}
    out = tmp_path / "out"
    code = main(["eit", "--out", str(out), "--set", "bogus=1"])
    assert code == EXIT_CONFIG
    assert not out.exists()
    code = main(["visibility", "--out", str(out), "--set", "eit.od=-5"])
    assert code == EXIT_CONFIG
    assert not out.exists()


_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
_STORAGE = ["timedist", "--with-storage", "eit"]
_HZ_LINE = ("must be below 2.86e+307 Hz so that 2*pi*value is finite, got "
            "1e+308")
_WINDOW_LINE = ("the time window grids.time_span_factor / "
                "(2*pi*source.gamma_hz)")

# One run per refusal in src/, or per kind of input it refuses: case ->
# (argv, exit code, the stderr line after "qisim: ").  test_reachability
# runs them under a line tracer and checks that together with its
# COMMANDS they reach every raise of InputError and ModelError.
REFUSALS = {
    # command-line lists
    "list-not-a-number": (["visibility", "--sigma-hz", "abc"], EXIT_CONFIG,
                          "--sigma-hz holds 'abc', which is not a number"),
    "list-unknown-state": (["store", "--states", "H,Q"], EXIT_CONFIG,
                           "unknown state 'Q'"),
    "list-repeated-state": (["store", "--states", "H,V,H"], EXIT_CONFIG,
                            "--states names 'H' twice"),
    "list-empty": (["g13", "--times-s", ","], EXIT_CONFIG,
                   "--times-s needs at least one value"),
    "sweep-empty": (["visibility", "--sigma-hz="], EXIT_CONFIG,
                    "--sigma-hz or --tp-s needs at least one value"),
    "sweep-every-row": (
        ["visibility", "--sigma-hz", "-1", "--tp-s", "-2"], EXIT_CONFIG,
        "every visibility sweep row failed; first error: pulse duration "
        "must be positive, got -2.0"),
    "sweep-sigma": (
        ["visibility", "--sigma-hz", "1e-300", "--tp-s="], EXIT_CONFIG,
        "every visibility sweep row failed; first error: gaussian pump "
        "needs sigma in [1.5e-154, 9.5e+153] rad/s, got 6.28e-300"),
    "pulse-duration": (["timedist", "--tp-s", "-1"], EXIT_CONFIG,
                       "pulse duration must be positive, got -1.0"),
    "fit-target": (["eit", "--fit-gamma-s", "inf"], EXIT_CONFIG,
                   "target window must be positive and finite"),
    # config text and values
    "set-no-equals": (["eit", "--set", "eit.od"], EXIT_CONFIG,
                      "--set needs key=value, got 'eit.od'"),
    "unknown-key": (["eit", "--set", "bogus=1"], EXIT_CONFIG,
                    "unknown config key 'bogus'"),
    "unparsed": (["eit", "--set", "eit.od=abc"], EXIT_CONFIG,
                 "eit.od: cannot parse 'abc' as float"),
    "file-missing": (
        ["eit", "--config", "no/such/dir/run.cfg"], EXIT_CONFIG,
        "cannot read config file: [Errno 2] No such file or directory: "
        "'no/such/dir/run.cfg'"),
    "file-not-utf8": (
        ["eit", "--config", os.path.join(_DATA, "not_utf8.cfg")],
        EXIT_CONFIG, os.path.join(_DATA, "not_utf8.cfg")
        + ": not UTF-8 text (byte 0xe9: invalid continuation byte)"),
    "file-no-equals": (
        ["eit", "--config", os.path.join(_DATA, "no_equals.cfg")],
        EXIT_CONFIG,
        os.path.join(_DATA, "no_equals.cfg") + ":1: expected 'key = value'"),
    "not-finite": (["visibility", "--set", "source.gamma_hz=inf"],
                   EXIT_CONFIG, "source.gamma_hz must be finite, got inf"),
    "not-positive": (["visibility", "--set", "eit.od=-5"], EXIT_CONFIG,
                     "eit.od must be positive, got -5.0"),
    "negative": (["store", "--set", "channel.background_b=-0.1"],
                 EXIT_CONFIG, "channel.background_b must be >= 0, got -0.1"),
    "unit-range": (["store", "--set", "channel.eta_U=1.5"], EXIT_CONFIG,
                   "channel.eta_U must be in [0, 1], got 1.5"),
    "few-points": (["timedist", "--set", "grids.n_time=7"], EXIT_CONFIG,
                   "grids.n_time must be at least 8"),
    "odd-points": (["visibility", "--set", "grids.n_freq=9"], EXIT_CONFIG,
                   "grids.n_freq must be even, got 9"),
    "many-points": (
        ["visibility", "--set", "grids.n_freq=100000000000000000000"],
        EXIT_CONFIG, "grids.n_freq must be at most 16777216, got "
        "100000000000000000000"),
    "pump-kind": (["timedist", "--set", "source.pump_kind=delta_limit"],
                  EXIT_CONFIG, "source.pump_kind must be one of "
                  "('gaussian', 'flat_limit')"),
    "decay-shape": (["g13", "--set", "eit.decay_shape=linear"], EXIT_CONFIG,
                    "eit.decay_shape must be one of ('gaussian', "
                    "'exponential')"),
    "g0": (["g13", "--set", "g13.g0=1"], EXIT_CONFIG,
           "g13.g0 must exceed 1"),
    "format-unknown": (["g13", "--set", "output.formats=csv,png"],
                       EXIT_CONFIG, "output.formats: unknown format 'png'; "
                       "allowed: ('csv', 'json', 'svg')"),
    "format-none": (["g13", "--set", "output.formats="], EXIT_CONFIG,
                    "output.formats must name at least one format"),
    # a rate whose angular value overflows, by its key
    "hz-source.gamma_hz": (["visibility", "--set", "source.gamma_hz=1e308"],
                           EXIT_CONFIG, f"source.gamma_hz {_HZ_LINE}"),
    "hz-eit.rabi_hz": (["eit", "--set", "eit.rabi_hz=1e308"], EXIT_CONFIG,
                       f"eit.rabi_hz {_HZ_LINE}"),
    "hz-eit.gamma_ge_hz": (["eit", "--set", "eit.gamma_ge_hz=1e308"],
                           EXIT_CONFIG, f"eit.gamma_ge_hz {_HZ_LINE}"),
    "hz-eit.gamma_s_hz": (["eit", "--set", "eit.gamma_s_hz=1e308"],
                          EXIT_CONFIG, f"eit.gamma_s_hz {_HZ_LINE}"),
    # a subnormal rate, whose spectra overflow and warn
    "hz-subnormal": (
        ["visibility", "--set", "source.pump_kind=flat_limit", "--set",
         "source.gamma_hz=5e-324"], EXIT_CONFIG,
        "source.gamma_hz must be at least 2.23e-308 Hz when nonzero, got "
        "5e-324"),
    # grids
    "time-grid": (["timedist", "--set", "grids.n_time=4097"], EXIT_CONFIG,
                  "time grid of 4097 points exceeds the materialization "
                  "limit of 4096; lower grids.n_time"),
    "half-transform": (
        ["timedist", "--set", "grids.n_freq=5000", "--set",
         "grids.n_time=4096"], EXIT_CONFIG,
        "the half-transform of 5000 frequencies by 4096 times exceeds "
        "16777216 values; lower grids.n_freq or grids.n_time"),
    "storage-stretch": (
        _STORAGE + ["--set", "eit.od=1e5", "--set", "eit.rabi_hz=1e3",
                    "--set", "eit.gamma_s_hz=0"], EXIT_CONFIG,
        "the EIT delay 2*tau = 182710 s stretches the 3.1831e-07 s time "
        "window 5.74e+11-fold; no grids.n_time keeps the time grid within "
        "the materialization limit of 4096"),
    "span-overflows": (
        ["timedist", "--set", "grids.freq_span_factor=1e300", "--tp-s",
         "1e-12"], EXIT_CONFIG, "grid span must be positive, got inf"),
    "span-below-8-sigma": (
        ["timedist", "--set", "grids.freq_span_factor=7", "--tp-s", "1e-12"],
        EXIT_CONFIG, "grid span 1.648e+13 is below 8*sigma = 1.884e+13"),
    "tail-mass": (["timedist", "--set", "grids.freq_span_factor=6"],
                  EXIT_MODEL, "cavity-line tail mass 5.257% per side "
                  "exceeds 1%; widen the grid"),
    "mass-underflows": (
        ["timedist", "--set", "source.gamma_hz=4e297"], EXIT_CONFIG,
        "the squared modulus of the sampled amplitude underflows below the "
        "normal float range (cavity linewidth 4e+297 Hz, grid span "
        "1.6e+299 Hz)"),
    "time-step": (
        ["timedist", "--set", "grids.time_span_factor=1e-310"], EXIT_CONFIG,
        f"{_WINDOW_LINE} = 3.1831e-318 s is not a finite, normal float"),
    "time-window": (
        ["timedist", "--set", "grids.time_span_factor=1e300", "--set",
         "source.gamma_hz=1e-10"], EXIT_CONFIG,
        f"{_WINDOW_LINE} = inf s is not a finite, normal float"),
    "undersampled": (
        ["timedist", "--tp-s", "30e-9", "--set", "grids.n_time=32"],
        EXIT_MODEL, "time step 1.027e-08 s undersamples the occupied "
        "bandwidth 1.905e+08 rad/s (need <= 8.247e-09 s)"),
    "outer-mass": (
        ["timedist", "--set", "source.pump_kind=flat_limit", "--set",
         "grids.freq_span_factor=33", "--set", "grids.n_freq=8"], EXIT_MODEL,
        "1.808% of spectral mass sits in the outer 10% of the frequency "
        "grid (axis 0); widen the grid"),
    # the EIT medium
    "out-of-range": (["eit", "--set", "eit.rabi_hz=1e300"], EXIT_MODEL,
                     "transmission is out of floating-point range for this "
                     "medium"),
    "transparency-floor": (
        ["eit", "--set", "eit.od=1e6"], EXIT_MODEL,
        "on-resonance transmission 1.54e-314 is below the transparency "
        "floor 1e-06; there is no window to report"),
    "no-window": (["eit", "--set", "eit.gamma_ge_hz=1"], EXIT_MODEL,
                  "no transparency window: transmission never falls to "
                  "half its on-resonance value"),
    "fit-unreachable": (
        ["eit", "--fit-gamma-s", "5.5e6"], EXIT_MODEL,
        "gamma_s fit: no gamma_s gives a 5.5e+06 Hz window; this medium "
        "reaches 2.42971e+06 to 2.9531e+06 Hz"),
    "no-slow-light": (
        _STORAGE + ["--set", "eit.gamma_s_hz=1e8"], EXIT_MODEL,
        "group delay -1.17229e-06 s is not positive; the medium is outside "
        "the slow-light regime gamma_s < rabi/2"),
    # storage and the qubit layer
    "storage-time": (["bell", "--storage-times-s=inf"], EXIT_CONFIG,
                     "storage time must be finite and >= 0"),
    "background-ratio": (
        ["store", "--set", "eit.tau_mem_s=7.4e-9"], EXIT_MODEL,
        "retrieval has decayed to 5.82e-318 at t = 2e-07 s; the background "
        "ratio is out of range"),
    "no-retrieval": (["store", "--states", "H", "--set", "channel.eta_D=0"],
                     EXIT_MODEL, "retrieval probability 0 is zero or "
                     "subnormal; nothing to post-select"),
    "g13-threshold": (
        ["reproduce-all", "--set", "grids.n_freq=128", "--set",
         "grids.n_time=64", "--set", "output.formats=csv,json", "--set",
         "g13.g0=4"], EXIT_MODEL, "g13 starts at or below the threshold"),
    "svg-axis": (["g13", "--set", "g13.g0=1.7e308"], EXIT_MODEL,
                 "g13_curve.svg: axis range [-8.5e+306, 1.785e+308] has no "
                 "finite, positive span"),
}


# a warning would print to stderr ahead of the line in a plain run
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_is_one_line(tmp_path, capsys, case):
    argv, code, line = REFUSALS[case]
    assert main(argv + ["--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == f"qisim: {line}\n"


def test_unwritable_output_exits_with_config_code(tmp_path, capsys,
                                                  monkeypatch):
    blocker = tmp_path / "somefile"
    blocker.write_text("")
    code = main(["g13", "--out", str(blocker / "sub")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("qisim: cannot write output: ")
    assert err.count("\n") == 1 and "Traceback" not in err

    # a disk that fills during a grid write leaves no manifest behind,
    # not even the one of an earlier run into the same directory
    out = tmp_path / "out"
    argv = ["timedist", "--out", str(out), "--tp-s", "100e-9",
            "--set", "grids.n_time=64"]
    assert main(argv) == EXIT_OK
    assert (out / "manifest.json").exists()
    monkeypatch.setattr(outputs._HashedFile, "write_bytes", disk_full_on(3))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("qisim: cannot write output: ")
    assert "No space left on device" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "manifest.json").exists()


# key -> (a small command, a value other than the default that must
# change at least one of its artifacts)
_SMALL = ["--set", "grids.n_freq=128", "--set", "grids.n_time=64"]
_VIS = ["visibility", "--sigma-hz", "12.5e6", "--tp-s", "30e-9"] + _SMALL
_TIMEDIST = ["timedist", "--tp-s", "100e-9"] + _SMALL
_KEY_PROBES = {
    "source.gamma_hz": (_VIS, "4e6"),
    "source.pump_kind": (_VIS, "flat_limit"),
    "eit.od": (["eit"], "30"),
    "eit.rabi_hz": (["eit"], "10e6"),
    "eit.gamma_ge_hz": (["eit"], "3e6"),
    "eit.gamma_s_hz": (["eit"], "2e4"),
    "eit.length_m": (["eit"], "3e-3"),
    "eit.tau_mem_s": (["g13"], "1e-6"),
    "eit.decay_shape": (["g13"], "exponential"),
    "channel.eta_U": (["store"], "0.7"),
    "channel.eta_D": (["store"], "0.9"),
    "channel.phase_jitter_rad": (["store"], "0.1"),
    "channel.background_b": (["store"], "0.1"),
    "channel.V_src": (["bell"], "0.8"),
    "g13.g0": (["g13"], "30"),
    "grids.n_freq": (_VIS, "96"),
    "grids.freq_span_factor": (_VIS, "50"),
    "grids.n_time": (_TIMEDIST, "80"),
    "grids.time_span_factor": (_TIMEDIST, "8"),
    "output.formats": (["g13"], "csv,json"),
}


def test_every_config_key_has_a_probe():
    assert set(_KEY_PROBES) == set(config.DEFAULTS)


@pytest.mark.parametrize("key", sorted(_KEY_PROBES))
def test_every_config_key_changes_an_output(tmp_path, key):
    argv, value = _KEY_PROBES[key]
    hashes = []
    for name, extra in [("default", []),
                        ("changed", ["--set", f"{key}={value}"])]:
        out = tmp_path / name
        assert main(argv + extra + ["--out", str(out)]) == EXIT_OK
        hashes.append(set(hash_dir(str(out)).values()))
    assert hashes[0] != hashes[1]


def test_out_places_the_artifacts(tmp_path, monkeypatch, capsys):
    # --out is the one output path, `out` by default; no key sets it
    monkeypatch.chdir(tmp_path)
    assert main(["g13"]) == EXIT_OK
    assert {"g13.csv", "g13_report.json", "manifest.json"} <= set(
        os.listdir(tmp_path / "out"))
    code = main(["g13", "--set", f"output.directory={tmp_path / 'x'}"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "qisim: unknown config key 'output.directory'\n")
    assert not (tmp_path / "x").exists()


def _readme_examples() -> list:
    """The argv of each qisim line in the example block under README's
    "Command line"."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n")[1].split("\n## ")[0]
    block = section.split("Examples:\n\n```\n")[1].split("```")[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("qisim ")]


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda a: a[0])
def test_readme_examples_run(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = main(argv + ["--out", str(out)])   # the last --out wins
    if argv[0] == "reproduce-all":
        # only the four C4 checks fail, by design
        assert (code, capsys.readouterr().err) == (
            EXIT_CHECKS, "reproduce-all: 4 reference check(s) failed: "
            "eit_window_fwhm, eit_group_delay, eit_dbp, eit_vg\n")
        return
    assert (code, capsys.readouterr().err) == (EXIT_OK, "")
    if argv[0] == "visibility":
        # the bandwidths named are the whole sweep
        sigmas = argv[argv.index("--sigma-hz") + 1].split(",")
        _, rows = oracles.read_csv(str(out / "visibility.csv"))
        assert [(r[0], r[1]) for r in rows] == [(float(s), None)
                                                for s in sigmas]


def test_cli_help_and_missing_command():
    assert main(["--help"]) == 0
    assert main([]) == 2


def test_manifest_records_config_and_seed(tmp_path):
    out = tmp_path / "out"
    assert main(["g13", "--out", str(out)]) == EXIT_OK
    manifest = load_json(out / "manifest.json")
    assert "seed" not in manifest
    assert manifest["config_echo"]["g13.g0"] == 25.0
    listed = {e["path"] for e in manifest["outputs"]}
    assert "g13_report.json" in listed
    assert "manifest.json" not in listed
    for entry in manifest["outputs"]:
        assert oracles.sha256_of(str(out / entry["path"])) == entry["sha256"]


def test_reproduce_all_checks_and_determinism(tmp_path, capsys):
    run1 = tmp_path / "run1"
    run2 = tmp_path / "run2"
    code1 = main(["reproduce-all", "--out", str(run1)])
    err1 = capsys.readouterr().err
    code2 = main(["reproduce-all", "--out", str(run2)])

    # pinned medium parameters cannot reach the published window and
    # delay targets, so those reference checks report failure by design
    assert code1 == EXIT_CHECKS
    assert code2 == EXIT_CHECKS
    assert "reference check(s) failed" in err1

    checks = load_json(run1 / "checks.json")
    # each check in the table's order, with the table's basis
    assert [(c["id"], c["basis"]) for c in checks["checks"]] == [
        (cid, row[3]) for cid, row in config.CHECKS.items()]
    assert set(checks["failed"]) == {"eit_window_fwhm", "eit_group_delay",
                                     "eit_dbp", "eit_vg"}
    by_id = {c["id"]: c for c in checks["checks"]}
    assert by_id["vis_sigma_12p5MHz"]["passed"]
    assert by_id["vis_sigma_3p7MHz"]["passed"]
    assert by_id["eit_control_off_transmission"]["passed"]
    assert by_id["six_state_each"]["passed"]
    assert by_id["six_state_average"]["passed"]
    assert by_id["bell_ideal_S"]["passed"]
    assert by_id["bell_S_1us"]["passed"]
    assert by_id["g13_crossing"]["passed"]
    assert by_id["fringe_visibility_1us"]["passed"]

    files = hash_dir(str(run1))
    assert len(files) >= 10
    assert files == hash_dir(str(run2))
    assert manifest_sans_timestamp(str(run1)) == manifest_sans_timestamp(
        str(run2))


def test_reproduce_all_reuses_sweep_visibilities(tmp_path, monkeypatch):
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(biphoton, "visibility")
    for name in ("six_state_battery", "memory_channel", "crossing_time",
                 "chsh_S"):
        counting(cli.qubit, name)
    out = tmp_path / "out"
    assert main(["reproduce-all", "--out", str(out),
                 "--set", "grids.n_freq=128", "--set", "grids.n_time=64",
                 "--set", "output.formats=csv,json"]) == EXIT_CHECKS
    # two pulse durations and three bandwidths in the sweep, whose values
    # the two visibility checks read; store's one battery at 200 ns, whose
    # six states each pass the channel once, as do bell's three storage
    # times; bell's CHSH at those times plus its source and the ideal
    # Bell state; g13's one crossing
    assert calls == {"visibility": 5, "six_state_battery": 1,
                     "memory_channel": 9, "crossing_time": 1, "chsh_S": 5}
    _, rows = oracles.read_csv(str(out / "visibility.csv"))
    swept = {r[0]: r[2] for r in rows if r[1] is None}
    by_id = {c["id"]: c for c in load_json(out / "checks.json")["checks"]}
    assert by_id["vis_sigma_12p5MHz"]["value"] == swept[12.5e6]
    assert by_id["vis_sigma_3p7MHz"]["value"] == swept[3.7e6]
    fids = load_json(out / "store_report.json")["results"][0]["fidelities"]
    assert by_id["six_state_average"]["value"] == fids["average"]
    bell = load_json(out / "bell_report.json")
    assert by_id["bell_S_1us"]["value"] == bell["rows"][-1]["S"]
    assert (by_id["fringe_visibility_1us"]["value"]
            == bell["curve"]["visibility_plus"])
    g13 = load_json(out / "g13_report.json")
    assert by_id["g13_crossing"]["value"] == g13["crossing_time_s"]
    assert list(by_id) == list(config.CHECKS)


def test_control_off_target_follows_the_configured_od(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["reproduce-all", "--out", str(out),
                 "--set", "grids.n_freq=128", "--set", "grids.n_time=64",
                 "--set", "output.formats=csv,json", "--set", "eit.od=30"])
    assert code == EXIT_CHECKS
    checks = load_json(out / "checks.json")
    assert set(checks["failed"]) == {"eit_window_fwhm", "eit_group_delay",
                                     "eit_dbp", "eit_vg"}
    by_id = {c["id"]: c for c in checks["checks"]}
    off = by_id["eit_control_off_transmission"]
    assert off["target"] == math.exp(-30.0)
    assert off["value"] == pytest.approx(math.exp(-30.0), rel=1e-6)


def test_reproduce_all_stops_on_a_null_g13_crossing(tmp_path, capsys):
    # g13 reports a null crossing when g0 is at or below the threshold;
    # reproduce-all cannot check it and stops with the model error
    out = tmp_path / "out"
    code = main(["reproduce-all", "--out", str(out),
                 "--set", "grids.n_freq=128", "--set", "grids.n_time=64",
                 "--set", "output.formats=csv,json", "--set", "g13.g0=4"])
    err = capsys.readouterr().err
    assert code == EXIT_MODEL
    assert err == "qisim: g13 starts at or below the threshold\n"
    assert load_json(out / "g13_report.json")["crossing_time_s"] is None
    assert not (out / "checks.json").exists()


def test_csv_only_output_renders_no_svg(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an SVG was rendered for a csv-only run")

    for figure in ("heatmap", "curve", "bars"):
        monkeypatch.setattr(cli.svgplot, figure, refuse)
    out = tmp_path / "out"
    assert main(["reproduce-all", "--out", str(out),
                 "--set", "grids.n_freq=128", "--set", "grids.n_time=64",
                 "--set", "output.formats=csv"]) == EXIT_CHECKS
    assert not [n for n in os.listdir(out) if n.endswith(".svg")]


def test_import_loads_no_scipy():
    # nor numpy.polynomial: the EIT cubic is solved by numpy's own roots
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    code = ("import qisim.cli, sys; "
            "assert not any(m.startswith(('scipy', 'numpy.polynomial')) "
            "for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=os.path.normpath(src)))


def test_import_loads_no_process_pool():
    # no process pool or executor is imported with the package, where it
    # would add to every set-up
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    code = ("import qisim.cli, sys; "
            "assert not any(m.split('.')[0] in "
            "('multiprocessing', 'concurrent') for m in sys.modules), "
            "sorted(m for m in sys.modules if m.startswith(('multi', 'conc')))")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=os.path.normpath(src)))


@pytest.mark.parametrize("start, stop, num", [
    (0.0, 4e-6, 81), (0.0, math.pi, 181)], ids=["g13", "bell"])
def test_linspace_is_numpys_bit_for_bit(start, stop, num):
    import numpy as np
    assert (np.array(cli._linspace(start, stop, num)).tobytes()
            == np.linspace(start, stop, num).tobytes())
    rng = np.random.default_rng(num)
    for _ in range(200):
        a, b = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-12, 12, 2)
        n = int(rng.integers(2, 400))
        assert (np.array(cli._linspace(a, b, n)).tobytes()
                == np.linspace(a, b, n).tobytes()), (a, b, n)


_LOADED_CHILD = """
import sys
import qisim.cli
qisim.config.load_config()
if sys.argv[2:]:
    assert qisim.cli.main(sys.argv[2:]) == 0
loaded = [m for m in sys.argv[1].split(",") if m in sys.modules]
assert not loaded, loaded
"""


# dataclasses would bring inspect, ast, dis and tokenize with it
_NO_NUMPY = "numpy,dataclasses,inspect,qisim.spectral,qisim.biphoton"
# and a command that writes no grid loads neither the grid writer nor
# concurrent.futures
_NO_GRID = _NO_NUMPY + ",qisim.g17,concurrent.futures"


@pytest.mark.parametrize("argv, absent", [
    ([], _NO_NUMPY),
    (["store"], _NO_GRID),
    (["bell"], _NO_GRID),
    (["g13"], _NO_GRID),
    (["eit"], _NO_GRID),
    (["eit", "--fit-gamma-s", "2.9e6"], _NO_GRID),
    (["timedist", "--set", "grids.n_freq=64", "--set", "grids.n_time=32",
      "--set", "output.formats=csv"], "qisim.eit"),
], ids=["import", "store", "bell", "g13", "eit", "eit-fit", "timedist"])
def test_short_commands_load_no_numpy(tmp_path, argv, absent):
    # the qubit and EIT layers are plain Python, each numpy layer is
    # imported by the commands that use it, and timedist needs the EIT
    # layer only for its storage filter
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    out = ["--out", str(tmp_path / "out")] if argv else []
    subprocess.run([sys.executable, "-c", _LOADED_CHILD, absent, *argv, *out],
                   check=True, capture_output=True,
                   env=dict(os.environ, PYTHONPATH=os.path.normpath(src)))


_NO_EXECUTOR_CHILD = """
import sys
import qisim.cli
code = qisim.cli.main(sys.argv[1:])
loaded = [m for m in ("concurrent.futures", "logging") if m in sys.modules]
assert not loaded, loaded
sys.exit(code)
"""


@pytest.mark.parametrize("argv, code", [
    (["timedist", "--set", "grids.n_freq=64", "--set", "grids.n_time=32"],
     EXIT_OK),
    (["reproduce-all"], EXIT_CHECKS),   # the four C4 checks
], ids=["timedist", "reproduce-all"])
def test_grid_commands_load_no_thread_executor(tmp_path, argv, code):
    # the grid CSV's writer is a plain thread: concurrent.futures and the
    # logging it imports would cost about 0.7 MB resident
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    run = subprocess.run(
        [sys.executable, "-c", _NO_EXECUTOR_CHILD, *argv,
         "--out", str(tmp_path / "out")], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.normpath(src)))
    assert run.returncode == code, run.stderr
    assert list((tmp_path / "out").glob("timedist*.csv"))   # a grid written


# the AVX2 and AVX-512 levels of numpy's runtime dispatch
_SIMD = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")


@pytest.mark.parametrize("variable", ["OPENBLAS_CORETYPE",
                                      "NPY_DISABLE_CPU_FEATURES"])
def test_short_command_artifacts_do_not_depend_on_the_cpu(tmp_path,
                                                           variable):
    # with numpy in the qubit layer, bell_curve.csv moved under OpenBLAS's
    # Prescott core (its 4x4 products ran in zgemm) and g13.csv with
    # AVX-512 off (numpy's SIMD exp); with numpy in eit, eit_spectrum.csv
    # moved with AVX2 off (FMA in the complex products and |t|)
    if variable == "OPENBLAS_CORETYPE":
        value = "Prescott"
    else:
        try:
            from numpy._core._multiarray_umath import __cpu_features__
        except ImportError:  # numpy 1.x
            from numpy.core._multiarray_umath import __cpu_features__
        value = " ".join(f for f in _SIMD if __cpu_features__.get(f))
        if not value:
            pytest.skip(f"this CPU reports none of {', '.join(_SIMD)}")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    written = []
    for env in ({}, {variable: value}):
        out = tmp_path / str(len(written))
        for command in (["store"], ["bell"], ["g13"],
                        ["eit", "--fit-gamma-s", "2.9e6"]):
            subprocess.run(
                [sys.executable, "-m", "qisim.cli", *command, "--out",
                 str(out)], check=True, capture_output=True,
                env=dict(os.environ, PYTHONPATH=os.path.normpath(src),
                         **env))
        written.append(hash_dir(str(out)))
    assert len(written[0]) == 11
    assert written[0] == written[1]


def test_visibility_does_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a long dot product across threads; at this grid V
    # read 0.80263830983728512 on one thread and ...324 on two while
    # the sums went through np.correlate and np.dot
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run(
            [sys.executable, "-m", "qisim.cli", "visibility",
             "--set", "grids.n_freq=16384", "--sigma-hz", "3.7e6",
             "--tp-s=", "--out", str(out)],
            check=True, capture_output=True,
            env=dict(os.environ, PYTHONPATH=os.path.normpath(src),
                     OPENBLAS_NUM_THREADS=threads))
        written.append((out / "visibility.csv").read_bytes())
    assert written[0] == written[1]
