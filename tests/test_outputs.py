import csv
import hashlib
import io
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qisim import outputs, svgplot


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
    header, parsed = outputs.read_csv(str(tmp_path / "data.csv"))
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
    _, rows = outputs.read_csv(path)
    assert len(rows) == 37 * 37
    assert rows[2] == [axis[0], axis[2], 5e-324]

    json_only = outputs.OutputWriter(str(tmp_path / "json"), ("json",))
    assert json_only.write_grid_csv("grid.csv", header, axis, values) is None
    assert os.listdir(tmp_path / "json") == []
    assert json_only.entries == []


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
