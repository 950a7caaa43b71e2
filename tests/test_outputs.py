import builtins
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qisim import g17, outputs, svgplot

import oracles


def test_float_formatting_round_trips():
    cases = [math.pi, 1.0 / 3.0, 30e-9, 0.1 + 0.2, 5e6, 1e-300, 1e300,
             -math.e, 0.0, 2.0 ** -52]
    rng = np.random.default_rng(7)
    cases += list(rng.uniform(-1e6, 1e6, 500))
    cases += list(rng.standard_normal(500) * 10.0 ** rng.integers(
        -20, 20, 500))
    for x in cases:
        assert float(outputs.fmt_float(float(x))) == float(x)


def test_cell_formatting():
    assert outputs.fmt_cell(None) == ""
    assert outputs.fmt_cell(True) == "true"
    assert outputs.fmt_cell(False) == "false"
    assert outputs.fmt_cell(3) == "3"
    assert outputs.fmt_cell("text") == "text"


def test_csv_round_trip(tmp_path):
    writer = outputs.OutputWriter(str(tmp_path), ("csv",))
    rng = np.random.default_rng(21)
    rows = [(float(a), float(b), None if i % 7 == 0 else float(c))
            for i, (a, b, c) in enumerate(rng.standard_normal((50, 3)))]
    writer.write_csv("data.csv", ["x", "y", "z"], rows)
    header, parsed = oracles.read_csv(str(tmp_path / "data.csv"))
    assert header == ["x", "y", "z"]
    assert len(parsed) == 50
    for row, ref in zip(parsed, rows):
        assert row[0] == ref[0]
        assert row[1] == ref[1]
        assert row[2] == ref[2]


def test_csv_uses_lf_line_endings(tmp_path):
    writer = outputs.OutputWriter(str(tmp_path), ("csv",))
    writer.write_csv("data.csv", ["a"], [(1.5,), (2.5,)])
    raw = (tmp_path / "data.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def _long_format_reference(header, axis, values):
    """The long format as write_csv produces it from (t1, t2, v) rows."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for i, t1 in enumerate(axis):
        for j, t2 in enumerate(axis):
            w.writerow([outputs.fmt_cell(c) for c in (t1, t2, values[i, j])])
    return buf.getvalue().encode("utf-8")


def test_grid_csv_matches_long_format_rows(tmp_path):
    rng = np.random.default_rng(37)
    axis = np.sort(rng.uniform(-50.0, 150.0, 37))
    axis[5] = -0.0
    values = rng.random((37, 37))
    values[0, :4] = [0.0, 1.0, 5e-324, 1.0 / 3.0]
    values[36, 36] = 1.0 / 3.0
    header = ["t1_ns", "t2_ns", "density"]
    writer = outputs.OutputWriter(str(tmp_path), ("csv",))
    path = writer.write_grid_csv("grid.csv", header, axis, values)
    expected = _long_format_reference(header, axis, values)
    raw = (tmp_path / "grid.csv").read_bytes()
    assert raw == expected
    assert b"\n-0," in raw          # the -0.0 axis point keeps its sign
    assert writer.entries == [{
        "path": "grid.csv",
        "sha256": hashlib.sha256(expected).hexdigest()}]
    assert path == str(tmp_path / "grid.csv")
    _, rows = oracles.read_csv(path)
    assert len(rows) == 37 * 37
    assert rows[2] == [axis[0], axis[2], 5e-324]

    json_only = outputs.OutputWriter(str(tmp_path / "json"), ("json",))
    assert json_only.write_grid_csv("grid.csv", header, axis, values) is None
    assert os.listdir(tmp_path / "json") == []
    assert json_only.entries == []


def _edge_case_grid(n):
    """An n x n grid with a -0.0 axis point and the values 0, 5e-324 and
    1/3; at n = 37, the grid of test_grid_csv_matches_long_format_rows."""
    rng = np.random.default_rng(37)
    axis = np.sort(rng.uniform(-50.0, 150.0, n))
    axis[n // 7] = -0.0
    values = rng.random((n, n))
    values[0, :4] = [0.0, 1.0, 5e-324, 1.0 / 3.0]
    values[-1, -1] = 1.0 / 3.0
    return axis, values


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n", [37, 5], ids=["3-bands", "under-1-band"])
def test_grid_csv_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch,
                                                       cpus, n):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(outputs, "_usable_cpus", lambda: cpus)
    axis, values = _edge_case_grid(n)
    header = ["t1_ns", "t2_ns", "density"]
    writer = outputs.OutputWriter(str(tmp_path), ("csv",))
    writer.write_grid_csv("grid.csv", header, axis, values)
    expected = _long_format_reference(header, axis, values)
    assert (tmp_path / "grid.csv").read_bytes() == expected
    assert writer.entries == [{
        "path": "grid.csv",
        "sha256": hashlib.sha256(expected).hexdigest()}]
    workers = min(cpus, -(-n // outputs._BAND_ROWS))
    assert len(forks) == (workers if workers > 1 else 0)


@pytest.mark.parametrize("fault", ["band", "exit", "write"])
def test_failed_grid_worker_raises_and_leaves_no_child(tmp_path, monkeypatch,
                                                       fault):
    parent = os.getpid()
    grid_band, send_bands = outputs._grid_band, outputs._send_bands

    def failing_band(labels, cols, values, band):
        if os.getpid() != parent and band == 1:
            raise RuntimeError("formatting fault")
        return grid_band(labels, cols, values, band)

    def send_then_fail(*args):
        send_bands(*args)
        raise RuntimeError("fault after the last frame")

    calls = []

    def disk_full(self, data):
        calls.append(data)
        if len(calls) == 2:         # the first band, after the header
            raise OSError(28, "No space left on device")

    if fault == "band":
        monkeypatch.setattr(outputs, "_grid_band", failing_band)
    elif fault == "exit":
        monkeypatch.setattr(outputs, "_send_bands", send_then_fail)
    else:
        monkeypatch.setattr(outputs._HashedFile, "write_bytes", disk_full)
    monkeypatch.setattr(outputs, "_usable_cpus", lambda: 2)
    axis, values = _edge_case_grid(37)
    writer = outputs.OutputWriter(str(tmp_path), ("csv",))
    match = "No space" if fault == "write" else "grid worker"
    with pytest.raises(OSError, match=match):
        writer.write_grid_csv("grid.csv", ["t1", "t2", "v"], axis, values)
    assert writer.entries == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _kernel_text(values):
    """The %.17g kernel's cells for `values`, as strings."""
    values = np.asarray(values, dtype=float)
    slots = g17.slots(values, np.empty((values.size, g17.SLOT), np.uint8))
    text = slots.tobytes().translate(None, b"\0").decode("ascii")
    return text.split("\n")[:-1]


def test_g17_kernel_matches_format_on_every_kind_of_float():
    rng = np.random.default_rng(1990)
    tiny, huge = np.finfo(float).smallest_normal, np.finfo(float).max
    edges = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, huge, -huge,
             math.inf, -math.inf, math.nan, 1e16, 1e17, 99999999999999999.0,
             1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
             1e-5, 0.5, 1.0, 10.0, 1234000.0, 1.5e16, 2.0 ** 53]
    decades = 10.0 ** np.arange(-323, 309)
    fixed = 10.0 ** rng.uniform(-5.0, 18.0, 50_000)
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 1_000_000, dtype=np.uint64).view(float),
        edges, decades, np.nextafter(decades, 0.0),
        np.nextafter(decades, math.inf),
        # fixed notation, with and without trailing zeros to strip
        fixed, -fixed, np.round(fixed, 2), np.round(fixed, -3)])
    expected = [format(v, ".17g") for v in values.tolist()]
    got = _kernel_text(values)
    mismatches = [(e, g) for e, g in zip(expected, got) if e != g]
    assert len(got) == len(expected)
    assert mismatches == []


def test_g17_powers_of_ten_are_correctly_rounded():
    from fractions import Fraction
    digits = np.finfo(np.longdouble).nmant + 1
    for k, power in zip(range(g17._K_LO, g17._K_HI + 1), g17._POW10):
        if not np.isfinite(power):  # past a double-width longdouble's range
            continue
        _, exponent = np.frexp(power)
        error = Fraction(*power.as_integer_ratio()) - Fraction(10) ** (16 - k)
        assert abs(error) <= Fraction(2) ** (int(exponent) - digits) / 2


@pytest.mark.filterwarnings("error")
def test_g17_kernel_without_margin_formats_every_cell_exactly(
        tmp_path, monkeypatch):
    # a longdouble no wider than double makes the tie margin 1/2 and
    # parses the powers of ten past 1e308 as inf: every cell then goes
    # through format(), the bytes stay the same, and numpy warns of nothing
    monkeypatch.setattr(g17, "HALF_MARGIN", 0.5)
    monkeypatch.setattr(g17, "_POW10", np.array(
        [float(f"1e{16 - k}") for k in range(g17._K_LO, g17._K_HI + 1)],
        dtype=np.longdouble))
    calls = []
    monkeypatch.setattr(g17, "format", lambda v, spec: calls.append(v)
                        or builtins.format(v, spec), raising=False)
    axis, values = _edge_case_grid(37)
    assert _kernel_text(values) == [format(v, ".17g")
                                    for v in values.ravel().tolist()]
    assert len(calls) == values.size
    header = ["t1_ns", "t2_ns", "density"]
    writer = outputs.OutputWriter(str(tmp_path), ("csv",))
    writer.write_grid_csv("grid.csv", header, axis, values)
    assert (tmp_path / "grid.csv").read_bytes() == _long_format_reference(
        header, axis, values)


def test_commands_without_a_grid_do_not_import_the_kernel(tmp_path):
    # the kernel's tables and compile time fall on the first grid write,
    # so set-up and the commands that write no grid never pay for them
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    code = ("import sys, qisim.cli; "
            "assert qisim.cli.main(['g13', '--out', sys.argv[1]]) == 0; "
            "assert 'qisim.g17' not in sys.modules")
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], check=True,
                   env=dict(os.environ, PYTHONPATH=os.path.normpath(src)))


def test_format_gating(tmp_path):
    writer = outputs.OutputWriter(str(tmp_path), ("json",))
    writer.write_csv("skipped.csv", ["a"], [(1.0,)])
    writer.write_svg("skipped.svg", lambda: 1 / 0)  # never rendered
    writer.write_json("kept.json", {"a": 1})
    names = set(os.listdir(tmp_path))
    assert names == {"kept.json"}


def test_json_is_sorted_and_full_precision(tmp_path):
    writer = outputs.OutputWriter(str(tmp_path), ("json",))
    value = 0.9726296442246245
    writer.write_json("report.json", {"zeta": 1, "alpha": value})
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert text.index("alpha") < text.index("zeta")
    assert text.endswith("\n")
    assert json.loads(text)["alpha"] == value


def test_manifest_lists_outputs_with_hashes(tmp_path):
    writer = outputs.OutputWriter(str(tmp_path), ("csv", "json"))
    writer.write_csv("a.csv", ["x"], [(1.0,)])
    writer.write_json("b.json", {"k": 2})
    writer.write_manifest({"eit.od": 55.0}, "deadbeef")
    with open(tmp_path / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["artifact_version"] == outputs.ARTIFACT_VERSION
    assert manifest["input_hash"] == "deadbeef"
    assert manifest["config_echo"] == {"eit.od": 55.0}
    listed = {entry["path"] for entry in manifest["outputs"]}
    assert listed == {"a.csv", "b.json"}
    paths = [entry["path"] for entry in manifest["outputs"]]
    assert paths == sorted(paths)
    for entry in manifest["outputs"]:
        assert entry["sha256"] == outputs.sha256_of(
            str(tmp_path / entry["path"]))


def test_writers_hash_without_reading_back(tmp_path, monkeypatch):
    def refuse(path):
        raise AssertionError(f"{path} was read back to hash it")

    monkeypatch.setattr(outputs, "sha256_of", refuse)
    writer = outputs.OutputWriter(str(tmp_path))
    writer.write_csv("a.csv", ["x", "y"], [(1.0, "é"), (1 / 3, None)])
    writer.write_grid_csv("g.csv", ["t1", "t2", "v"], np.arange(3.0),
                          np.eye(3) / 3.0)
    writer.write_json("b.json", {"k": [0.1, "ü"]})
    writer.write_svg("c.svg", lambda: "<svg>µ</svg>\n")
    assert [e["path"] for e in writer.entries] == ["a.csv", "g.csv",
                                                   "b.json", "c.svg"]
    for entry in writer.entries:
        data = (tmp_path / entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()


def test_sha256_text_matches_file(tmp_path):
    text = "eit.od = 55.0\n"
    path = tmp_path / "t.txt"
    path.write_text(text, encoding="utf-8")
    assert outputs.sha256_text(text) == outputs.sha256_of(str(path))


# -------------------------------------------------------------------- svg

def test_palette_structure():
    assert len(svgplot.PALETTE) == 256
    assert svgplot.PALETTE[0] == "#440154"
    assert svgplot.PALETTE[-1] == "#fde725"
    assert all(c.startswith("#") and len(c) == 7 for c in svgplot.PALETTE)
    assert svgplot.color_for(-1.0) == svgplot.PALETTE[0]
    assert svgplot.color_for(2.0) == svgplot.PALETTE[-1]
    assert svgplot.color_for(0.0) == svgplot.PALETTE[0]
    assert svgplot.color_for(1.0) == svgplot.PALETTE[-1]


def test_svg_generators_emit_valid_xml():
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 1.0, (300, 300))
    heat = svgplot.heatmap(values, (0.0, 10.0), "x", "y", "title <raw>")
    ET.fromstring(heat)
    line = svgplot.curve([1.0, 2.0, 3.0],
                         [("a", [0.1, 0.2, 0.3]), ("b", [3.0, 2.0, 1.0])],
                         "x", "y", "curves & more")
    ET.fromstring(line)
    bar = svgplot.bars(["H", "V"], [0.97, 0.99], "fidelity", "bars")
    ET.fromstring(bar)


def test_svg_output_is_deterministic():
    values = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    a = svgplot.heatmap(values, (0.0, 1.0), "x", "y", "t")
    b = svgplot.heatmap(values, (0.0, 1.0), "x", "y", "t")
    assert a == b


def test_heatmap_downsamples_large_grids():
    values = np.ones((512, 512))
    values[0, 0] = 0.0
    text = svgplot.heatmap(values, (0.0, 1.0), "x", "y", "t")
    # at most 128 cells per axis after block averaging
    assert text.count("<rect") <= 128 * 128 + 4


def test_palette_indices_match_color_for():
    rng = np.random.default_rng(11)
    k = np.arange(256.0)
    # values whose 255 * v lands exactly on k + 1/2, where rounding ties
    halfway = [next(c for c in (v, np.nextafter(v, 0.0), np.nextafter(v, 1.0))
                    if 255.0 * c == j + 0.5)
               for j, v in enumerate((k[:-1] + 0.5) / 255.0)]
    values = np.concatenate([
        rng.uniform(-0.2, 1.2, 4096), k / 255.0, halfway,
        [-0.0, -1.0, 2.0, np.inf, -np.inf]])
    idx = svgplot.palette_indices(values.reshape(-1, 1))
    assert idx.shape == (values.size, 1)
    assert [svgplot.PALETTE[i] for i in idx.ravel()] == [
        svgplot.color_for(float(x)) for x in values]
    with pytest.raises(ValueError):
        svgplot.palette_indices(np.array([0.5, np.nan]))
