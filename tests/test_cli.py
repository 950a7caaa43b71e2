import filecmp
import json
import math
import os
import subprocess
import sys

import pytest

from qisim import cli, outputs
from qisim.cli import (EXIT_CHECKS, EXIT_CONFIG, EXIT_MODEL, EXIT_OK, main)

import refvals as rv
from helpers import hash_dir, manifest_sans_timestamp


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_visibility_command(tmp_path):
    out = tmp_path / "out"
    code = main(["visibility", "--out", str(out),
                 "--sigma-hz", "12.5e6,3.7e6", "--tp-s", "30e-9"])
    assert code == EXIT_OK
    header, rows = outputs.read_csv(str(out / "visibility.csv"))
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


def test_visibility_row_failures_are_recorded(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["visibility", "--out", str(out),
                 "--sigma-hz", "12.5e6,-1", "--tp-s", ""])
    assert code == EXIT_OK
    _, rows = outputs.read_csv(str(out / "visibility.csv"))
    assert len(rows) == 2
    assert rows[0][3] is None
    assert rows[1][2] is None
    assert isinstance(rows[1][3], str) and rows[1][3]


def test_visibility_all_rows_failing_is_an_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["visibility", "--out", str(out),
                 "--sigma-hz", "-1", "--tp-s", "-2"])
    assert code == EXIT_CONFIG
    assert "failed" in capsys.readouterr().err


def test_timedist_command(tmp_path):
    out = tmp_path / "out"
    code = main(["timedist", "--out", str(out), "--tp-s", "100e-9",
                 "--set", "grids.n_time=256"])
    assert code == EXIT_OK
    header, rows = outputs.read_csv(str(out / "timedist.csv"))
    assert header == ["t1_ns", "t2_ns", "density"]
    assert len(rows) == 256 * 256
    peak = max(r[2] for r in rows)
    assert peak == 1.0
    assert all(r[2] >= 0.0 for r in rows)
    assert (out / "timedist.svg").exists()


def test_timedist_identity_storage_matches_plain(tmp_path):
    plain = tmp_path / "plain"
    ident = tmp_path / "ident"
    assert main(["timedist", "--out", str(plain), "--tp-s", "100e-9",
                 "--set", "grids.n_time=256"]) == EXIT_OK
    assert main(["timedist", "--out", str(ident), "--tp-s", "100e-9",
                 "--set", "grids.n_time=256",
                 "--with-storage", "identity"]) == EXIT_OK
    assert filecmp.cmp(plain / "timedist.csv", ident / "timedist.csv",
                       shallow=False)


def test_timedist_eit_storage_runs(tmp_path):
    out = tmp_path / "out"
    code = main(["timedist", "--out", str(out), "--tp-s", "100e-9",
                 "--set", "grids.n_time=256", "--with-storage", "eit"])
    assert code == EXIT_OK
    _, rows = outputs.read_csv(str(out / "timedist.csv"))
    # grid is extended past the plain window to hold the delayed peak
    assert len(rows) > 256 * 256


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
    assert report["delay_bandwidth_convention"] == (
        "angular: 2*pi*fwhm_hz*delay_s")
    assert report["v_g_m_per_s"] == pytest.approx(rv.VG_DEFAULT, rel=1e-9)
    assert report["length_m"] == 4e-3
    assert report["transmission_on_resonance"] == pytest.approx(
        rv.T0_DEFAULT, rel=1e-9)
    assert report["transmission_control_off_resonance"] == pytest.approx(
        math.exp(-55.0), rel=1e-9)
    assert report["fit"] is None
    header, rows = outputs.read_csv(str(out / "eit_spectrum.csv"))
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


def test_eit_fit_unreachable_target_fails(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["eit", "--out", str(out), "--fit-gamma-s", "5.5e6"])
    assert code == EXIT_MODEL
    assert capsys.readouterr().err


def test_eit_fit_on_the_window_collapse_fails_cleanly(tmp_path, capsys):
    code = main(["eit", "--out", str(tmp_path / "out"),
                 "--fit-gamma-s", "2.4e6"])
    err = capsys.readouterr().err
    assert code == EXIT_MODEL
    assert "Traceback" not in err
    assert err.startswith("eit: gamma_s fit did not converge; the window "
                          "collapses at gamma_s = ")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("argv", [
    ["store", "--states", ","],
    ["store", "--storage-times-s", ","],
    ["bell", "--storage-times-s", ","],
    ["g13", "--times-s", ","],
    ["visibility", "--sigma-hz", ",", "--tp-s", ","],
], ids=["store-states", "store-times", "bell-times", "g13-times",
        "visibility-sweep"])
def test_empty_flag_list_is_a_config_error(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "Traceback" not in err
    assert err.startswith("qisim: " + argv[1] + " ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, expect", [
    (["bell", "--storage-times-s=1e-4"], EXIT_MODEL),
    (["store", "--storage-times-s=1e-4"], EXIT_MODEL),
    (["bell", "--storage-times-s=inf"], EXIT_CONFIG),
    (["g13", "--times-s=nan"], EXIT_CONFIG),
], ids=["bell-underflow", "store-underflow", "bell-inf", "g13-nan"])
def test_storage_time_beyond_the_decay_model(tmp_path, capsys, argv, expect):
    code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == expect
    assert "Traceback" not in err
    assert err.startswith("qisim: ")
    assert err.count("\n") == 1


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
    header, rows = outputs.read_csv(str(out / "bell_curve.csv"))
    assert header == ["theta_rad", "coincidence_H", "coincidence_plus"]
    assert len(rows) == 181
    assert max(r[1] for r in rows) == 1.0
    assert max(r[2] for r in rows) == 1.0


def test_g13_command(tmp_path):
    out = tmp_path / "out"
    assert main(["g13", "--out", str(out)]) == EXIT_OK
    report = load_json(out / "g13_report.json")
    assert report["g0"] == 25.0
    assert report["threshold"] == 5.0
    assert report["crossing_time_s"] == pytest.approx(rv.G13_CROSSING,
                                                      rel=1e-9)
    assert report["alpha_at_threshold"] == 1.0
    header, rows = outputs.read_csv(str(out / "g13.csv"))
    assert header == ["t_s", "g13", "alpha"]
    assert len(rows) == 81
    assert rows[0][1] == pytest.approx(25.0, rel=1e-12)
    assert rows[0][2] == pytest.approx(4.0 / 24.0, rel=1e-12)
    g_vals = [r[1] for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(g_vals, g_vals[1:]))


def test_config_error_exits_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["eit", "--out", str(out), "--set", "bogus=1"])
    assert code == EXIT_CONFIG
    assert not out.exists()
    code = main(["visibility", "--out", str(out), "--set", "eit.od=-5"])
    assert code == EXIT_CONFIG
    assert not out.exists()


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
        assert outputs.sha256_of(str(out / entry["path"])) == entry["sha256"]


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
    assert len(checks["checks"]) == 12
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

    files = hash_dir(str(run1))
    assert len(files) >= 10
    assert files == hash_dir(str(run2))
    assert manifest_sans_timestamp(str(run1)) == manifest_sans_timestamp(
        str(run2))


def test_reproduce_all_reuses_sweep_visibilities(tmp_path, monkeypatch):
    calls = []
    original = cli.biphoton.visibility

    def counting(jsa):
        calls.append(jsa.n_points)
        return original(jsa)

    monkeypatch.setattr(cli.biphoton, "visibility", counting)
    out = tmp_path / "out"
    assert main(["reproduce-all", "--out", str(out),
                 "--set", "grids.n_freq=128", "--set", "grids.n_time=64",
                 "--set", "output.formats=csv,json"]) == EXIT_CHECKS
    # two pulse durations and three bandwidths in the sweep; the two
    # visibility checks read the sweep's values
    assert len(calls) == 5
    _, rows = outputs.read_csv(str(out / "visibility.csv"))
    swept = {r[0]: r[2] for r in rows if r[1] is None}
    by_id = {c["id"]: c for c in load_json(out / "checks.json")["checks"]}
    assert by_id["vis_sigma_12p5MHz"]["value"] == swept[12.5e6]
    assert by_id["vis_sigma_3p7MHz"]["value"] == swept[3.7e6]


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
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    code = ("import qisim.cli, sys; "
            "assert not any(m.startswith('scipy') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=os.path.normpath(src)))
