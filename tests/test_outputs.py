import builtins
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from qisim import cli, config, g17, outputs, svgplot
from qisim.errors import ModelError

import oracles
from helpers import disk_full_on


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


def _wide_e(v):
    """format(v, "+.16e") with its exponent widened to a sign and three
    digits; a non-finite value's text padded with spaces to 24."""
    mantissa, e, exponent = format(v, "+.16e").partition("e")
    if not e:
        return mantissa.ljust(24)
    return f"{mantissa}e{int(exponent):+04d}"


def _long_format_reference(header, axis, values):
    """The header as write_csv writes it, then one fixed-width line of
    (t1, t2, v) spelled by _wide_e per grid cell, row-major."""
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator="\n").writerow(header)
    for i, t1 in enumerate(axis):
        for j, t2 in enumerate(axis):
            buf.write(",".join(_wide_e(float(c))
                               for c in (t1, t2, values[i, j])) + "\n")
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
    # the -0.0 axis point keeps its sign
    assert b"\n-0.0000000000000000e+000," in raw
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


# bands of 16 rows of the 37-point grid, so it spans 3 bands and the
# 5-point grid stays under one
_SMALL_BAND_CELLS = 16 * 37


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n", [37, 5], ids=["3-bands", "under-1-band"])
def test_grid_csv_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch,
                                                       cpus, n):
    # one code path formats every band, on any CPU count, and forks nothing
    monkeypatch.setattr(g17, "_BAND_CELLS", _SMALL_BAND_CELLS)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if hasattr(os, "process_cpu_count"):
        monkeypatch.setattr(os, "process_cpu_count", lambda: cpus)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
    axis, values = _edge_case_grid(n)
    header = ["t1_ns", "t2_ns", "density"]
    writer = outputs.OutputWriter(str(tmp_path), ("csv",))
    writer.write_grid_csv("grid.csv", header, axis, values)
    expected = _long_format_reference(header, axis, values)
    assert (tmp_path / "grid.csv").read_bytes() == expected
    assert writer.entries == [{
        "path": "grid.csv",
        "sha256": hashlib.sha256(expected).hexdigest()}]
    assert forks == []


def test_grid_csv_is_whole_behind_a_slow_writer(tmp_path, monkeypatch):
    # the calling thread writes the header and formats each band while a
    # writer that lags behind it hashes and writes the one before; one
    # row per band
    monkeypatch.setattr(g17, "_BAND_CELLS", 37)
    write_bytes, threads = outputs._HashedFile.write_bytes, []

    def slow_write(self, data):
        threads.append(threading.current_thread())
        time.sleep(0.002)
        write_bytes(self, data)

    monkeypatch.setattr(outputs._HashedFile, "write_bytes", slow_write)
    axis, values = _edge_case_grid(37)
    header = ["t1_ns", "t2_ns", "density"]
    writer = outputs.OutputWriter(str(tmp_path), ("csv",))
    writer.write_grid_csv("grid.csv", header, axis, values)
    expected = _long_format_reference(header, axis, values)
    assert (tmp_path / "grid.csv").read_bytes() == expected
    assert writer.entries == [{
        "path": "grid.csv",
        "sha256": hashlib.sha256(expected).hexdigest()}]
    assert len(threads) == 1 + 37
    assert threads[0] is threading.main_thread()
    assert len(set(threads[1:])) == 1
    assert threading.main_thread() not in threads[1:]


@pytest.mark.parametrize("fault", ["band", "write", "middle-write",
                                   "last-write", "hash"])
def test_failed_grid_worker_raises_and_leaves_no_child(tmp_path, monkeypatch,
                                                       fault):
    # a fault formatting a band, hashing a middle band or writing the
    # first, a middle or the last band on the writer thread raises before
    # the file is recorded and leaves neither the writer thread nor a
    # child process behind; no band is written after a failed write
    monkeypatch.setattr(g17, "_BAND_CELLS", _SMALL_BAND_CELLS)
    band, sha256 = g17._band, hashlib.sha256
    formatted, write = [], None

    def failing_band(buffer, labels, values):
        formatted.append(1)
        if len(formatted) == 2:
            raise RuntimeError("formatting fault")
        return band(buffer, labels, values)

    def failing_sha256():
        # the header is update 1, and the three bands updates 2 to 4
        digest, updates = sha256(), []

        def update(data):
            updates.append(1)
            if len(updates) == 3:
                raise RuntimeError("hash fault")
            digest.update(data)
        return types.SimpleNamespace(update=update,
                                     hexdigest=digest.hexdigest)

    if fault == "band":
        monkeypatch.setattr(g17, "_band", failing_band)
        error, match = RuntimeError, "formatting fault"
    elif fault == "hash":
        monkeypatch.setattr(outputs.hashlib, "sha256", failing_sha256)
        error, match = RuntimeError, "hash fault"
    else:
        # the header is call 1, and the three bands calls 2 to 4
        call = {"write": 2, "middle-write": 3, "last-write": 4}[fault]
        write = disk_full_on(call)
        monkeypatch.setattr(outputs._HashedFile, "write_bytes", write)
        error, match = OSError, "No space"
    axis, values = _edge_case_grid(37)
    writer = outputs.OutputWriter(str(tmp_path), ("csv",))
    threads = threading.active_count()
    with pytest.raises(error, match=match):
        writer.write_grid_csv("grid.csv", ["t1", "t2", "v"], axis, values)
    assert writer.entries == []
    if write is not None:
        assert len(write.calls) == call
    assert threading.active_count() == threads
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_grid_writer_memory_budget_at_the_storage_size():
    # the storage map's 1536 x 1536 grid: two reused band buffers of 5
    # rows (1.10 MiB) and the kernel's temporaries on 2048 cells:
    # measured 1.34 MiB traced, and the bound leaves 0.1 MiB over it,
    # where a new array for each band and the kernel on whole bands read
    # 2.16 MiB
    n = 1536
    values = 1.0 - np.random.default_rng(11).random((n, n))
    tracemalloc.start()
    try:
        g17.write_grid(lambda band: None, np.linspace(-50.0, 150.0, n),
                       values)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < 1.44


def test_grid_csv_lines_are_75_bytes_and_parse_to_the_grid(tmp_path):
    axis, values = _edge_case_grid(37)
    writer = outputs.OutputWriter(str(tmp_path), ("csv",))
    writer.write_grid_csv("grid.csv", ["t1_ns", "t2_ns", "density"], axis,
                          values)
    header, body = (tmp_path / "grid.csv").read_bytes().split(b"\n", 1)
    assert header == b"t1_ns,t2_ns,density"
    assert len(body) == 75 * 37 * 37
    assert body.count(b"\n") == 37 * 37
    lines = np.frombuffer(body, np.uint8).reshape(37 * 37, 75)
    assert np.all(lines[:, -1] == ord("\n"))
    parsed = np.array([[float(x) for x in line.split(b",")]
                       for line in body.splitlines()])
    t1, t2 = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([t1, t2, values], axis=-1).reshape(-1, 3)
    # bit for bit: the -0.0 axis point, 0, 1, 5e-324 and 1/3 among them
    assert np.array_equal(parsed.view(np.uint64), grid.view(np.uint64))


def _kernel_text(values):
    """The kernel's numbers for `values`, as a (len(values), 24) uint8
    array."""
    values = np.asarray(values, dtype=float).ravel()
    field = np.empty((values.size, g17.WIDTH), np.uint8)
    g17.numbers(values, field)
    return field


def _kernel_mismatches(values):
    """The values whose kernel text is not _wide_e's.  The kernel's text,
    24 printable bytes, is narrowed to format(v, "+.16e"): an exponent's
    leading 0 and the padding of inf and nan are taken out.  It
    narrows to format()'s text exactly when it is _wide_e's."""
    values = np.asarray(values, dtype=float).ravel()
    text = _kernel_text(values)
    assert np.all((text >= ord(" ")) & (text < 127))
    narrow = text.copy()
    wide = (text[:, 19] == ord("e")) & (text[:, 21] == ord("0"))
    narrow[wide, 21:23] = text[wide, 22:]
    narrow[wide, 23] = 0
    narrow[narrow == ord(" ")] = 0
    expected = np.array([format(v, "+.16e") for v in values.tolist()], "S24")
    return values[narrow.view("S24")[:, 0] != expected]


def test_g17_kernel_matches_format_on_every_kind_of_float():
    rng = np.random.default_rng(1990)
    tiny, huge = np.finfo(float).smallest_normal, np.finfo(float).max
    edges = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, huge, -huge,
             math.inf, -math.inf, math.nan, 1e16, 1e17, 99999999999999999.0,
             1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
             1e-5, 0.5, 1.0, 10.0, 1234000.0, 1.5e16, 2.0 ** 53]
    decades = 10.0 ** np.arange(-323, 309)
    fixed = 10.0 ** rng.uniform(-5.0, 18.0, 50_000)
    # rounding ties: m 2^(k - 17) for odd m, in decade k, has 18
    # significant digits, the last a 5
    odd = np.arange(1, 2 ** 18, 32)
    ties = [v[(v >= 10.0 ** k) & (v < 10.0 ** (k + 1))]
            for k in range(-8, 0) for v in [odd * 2.0 ** (k - 17)]]
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 1_000_000, dtype=np.uint64).view(float),
        edges, decades, np.nextafter(decades, 0.0),
        np.nextafter(decades, math.inf), *ties,
        # decades -5 to 17, with and without trailing zeros
        fixed, -fixed, np.round(fixed, 2), np.round(fixed, -3)])
    assert _kernel_mismatches(values).tolist() == []
    # every width of exponent and kind of text, against _wide_e itself
    assert [bytes(t).decode() for t in _kernel_text(edges)] == [
        _wide_e(v) for v in edges]


def _lattice_points_near(b1, b2, t, reach):
    """Points i b1 + j b2 of the integer lattice with basis (b1, b2) near
    the point t: those within `reach` steps, along a Lagrange-reduced
    basis, of t's rounding to the lattice."""
    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1]
    while True:
        if dot(b1, b1) > dot(b2, b2):
            b1, b2 = b2, b1
        mu = (2 * dot(b1, b2) + dot(b1, b1)) // (2 * dot(b1, b1))
        if mu == 0:
            break
        b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])
    det = b1[0] * b2[1] - b1[1] * b2[0]
    c1 = round(Fraction(t[0] * b2[1] - t[1] * b2[0], det))
    c2 = round(Fraction(b1[0] * t[1] - b1[1] * t[0], det))
    for i in range(c1 - reach, c1 + reach + 1):
        for j in range(c2 - reach, c2 + reach + 1):
            yield i * b1[0] + j * b2[0], i * b1[1] + j * b2[1]


def _near_ties():
    """Normal floats v in (0, 1] whose y = v 10^(16 - k), k the decade of
    v, lies within HALF_MARGIN of a rounding tie but not on it.

    With v = m 2^e, m in [2^52, 2^53), a = 16 - k and s = -(e + a), y is
    m 5^a / 2^s: v is such a float when m 5^a = 2^(s - 1) + r modulo 2^s
    with 0 < |r| < bound = 2^(s - 47).  With m = 2^52 + x, the pairs
    (x, r) lie on a two-dimensional lattice, and its points in the box
    0 <= x < 2^52, |r| < bound are found near the box's centre, about 64
    to a binade, as hard-to-round cases are (Lefevre and Muller, ARITH
    15 (2001)).  Only decades -5 and below, where s >= 48, hold any."""
    found, start = [], 2 ** 52
    for k in range(-307, 0):
        a = 16 - k
        for e in range(math.floor(k * math.log2(10)) - 53,
                       math.floor((k + 1) * math.log2(10)) - 51):
            s = -(e + a)
            modulus, bound = 2 ** s, 2 ** (s - 47)
            if bound < 2:
                continue
            five = 5 ** a % modulus
            target = 2 ** (s - 1) - start * five
            # the points (x bound, (x 5^a - q 2^s) 2^52), scaled so that
            # the box is a square about the target
            for p, q in _lattice_points_near((bound, five * start),
                                             (0, modulus * start),
                                             (start * bound // 2,
                                              target * start), 8):
                x, r = p // bound, q // start - target
                m = start + x
                if (0 <= x < start and 0 < abs(r) < bound
                        and m * 10 ** -k >= 2 ** -e > m * 10 ** (-k - 1)):
                    found.append(math.ldexp(m, e))
    return np.array(found)


def test_g17_kernel_rounds_cells_near_a_tie_as_format_does(monkeypatch):
    # HALF_MARGIN is what makes the fast path correct: every cell this
    # close to a tie goes through format()
    values = _near_ties()
    assert len(values) > 50_000
    for v in values[::97].tolist():
        k = math.floor(math.log10(v))
        y = Fraction(v) * Fraction(10) ** (16 - k)
        assert Fraction(10) ** 16 <= y < Fraction(10) ** 17
        assert 0 < abs(y - math.floor(y) - Fraction(1, 2)) < g17.HALF_MARGIN
    assert _kernel_mismatches(values).tolist() == []
    # the cells are hard enough that the fast path misrounds some of them
    # without its margin
    monkeypatch.setattr(g17, "HALF_MARGIN", 0.0)
    assert _kernel_mismatches(values).tolist() != []


def test_g17_digit_tables_are_the_formatted_integers():
    assert g17._QUAD.dtype == "V4"
    assert g17._QUAD.tobytes() == "".join(
        f"{i:04d}" for i in range(10000)).encode()
    assert g17._EXPONENT.dtype == "V4"
    assert g17._EXPONENT.tobytes() == "".join(
        f"{k:+04d}" for k in range(g17._K_LO, g17._K_HI + 1)).encode()


def test_g17_scales_are_double_double_powers_of_ten():
    hi_high, hi_low, lo = g17._SCALE
    ks = range(g17._K_LO, g17._K_HI + 1)
    for k, s, *parts in zip(ks, g17._SHIFT, hi_high, hi_low, lo):
        exact = Fraction(10) ** (16 - k) / Fraction(2) ** int(s)
        assert 1 <= exact < 2
        error = sum(map(Fraction, parts)) - exact
        assert abs(error) <= exact / 2 ** 104


@pytest.mark.filterwarnings("error")
def test_g17_density_map_formats_no_finite_cell_through_format(monkeypatch):
    # the storage map at its default grid sent 81 005 of its 2.36 M cells
    # through format() with a longdouble product; the float64
    # double-double one, whose tie margin is 2^-47, sends none.  Every
    # map is a density divided by its peak, so its cells lie in [0, 1];
    # the kernel's fast path covers (0, 1], and these maps hold no zero
    small = ["grids.n_freq=256", "grids.n_time=96"]
    maps = {"storage": (small, 100e-9, "eit", 288),
            "T_p 30 ns": (small, 30e-9, None, 96),
            "T_p 100 ns": (small, 100e-9, None, 96),
            "flat_limit": (["grids.n_freq=1024", "grids.n_time=192",
                            "source.pump_kind=flat_limit"], 100e-9, None, 192)}
    calls, spelled = [], g17.spelled
    monkeypatch.setattr(g17, "spelled",
                        lambda values: calls.extend(values) or spelled(values))
    for name, (overrides, tp_s, storage, n_t) in maps.items():
        cfg = config.load_config(None, overrides)
        density = cli._timedist_compute(cfg, tp_s, storage)[1]
        assert density.shape == (n_t, n_t), name
        assert np.all((density > 0.0) & (density <= 1.0)), name
        assert _kernel_mismatches(density).tolist() == [], name
        assert calls == [], name


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
        assert entry["sha256"] == oracles.sha256_of(
            str(tmp_path / entry["path"]))


def test_writers_hash_without_reading_back(tmp_path, monkeypatch):
    def write_only(path, mode="r", *args, **kwargs):
        if "r" in mode or "+" in mode:
            raise AssertionError(f"{path} was opened to be read")
        return builtins.open(path, mode, *args, **kwargs)

    monkeypatch.setattr(outputs, "open", write_only, raising=False)
    writer = outputs.OutputWriter(str(tmp_path), ("csv", "json", "svg"))
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
    assert outputs.sha256_text(text) == oracles.sha256_of(str(path))


# -------------------------------------------------------------------- svg

def test_palette_structure():
    assert len(svgplot.PALETTE) == 256
    assert svgplot.PALETTE[0] == "#440154"
    assert svgplot.PALETTE[-1] == "#fde725"
    assert all(c.startswith("#") and len(c) == 7 for c in svgplot.PALETTE)
    assert oracles.color_for(-1.0) == svgplot.PALETTE[0]
    assert oracles.color_for(2.0) == svgplot.PALETTE[-1]
    assert oracles.color_for(0.0) == svgplot.PALETTE[0]
    assert oracles.color_for(1.0) == svgplot.PALETTE[-1]


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


@pytest.mark.parametrize("n", [7, 128, 300, 1536])
def test_heatmap_cells_match_the_per_rect_formula(n):
    # 1536 is the storage map: 128 cells of 4 pixels; 7 and 300 (100
    # cells of 5.12) give coordinates that are not whole pixels
    rng = np.random.default_rng(n)
    values = rng.uniform(0.0, 3.0, (n, n))
    text = svgplot.heatmap(values, (0.0, 1.0), "x", "y", "t")
    v = svgplot.block_mean(values)
    cells = oracles.heatmap_cells(v / v.max())
    lines = text.split("\n")
    start = lines.index(cells[0])
    assert lines[start:start + len(cells)] == cells
    assert text.count("<rect") == len(cells) + 2


def test_ticks_are_the_old_quarters_and_cannot_overflow():
    # a quarter is an exact scaling, so lo + span / 4 * i is the old
    # lo + span * i / 4 bit for bit wherever span * i does not overflow
    rng = np.random.default_rng(17)
    exps = rng.integers(-300, 300, (2000, 2))
    ends = rng.uniform(-10.0, 10.0, (2000, 2)) * 10.0 ** exps
    for lo, hi in np.sort(ends, axis=1).tolist() + [(0.0, 1.0), (-4e-6, 0.0)]:
        old = [lo + (hi - lo) * i / 4 for i in range(5)]
        assert [t.hex() for t in svgplot._ticks(lo, hi)] == [
            t.hex() for t in old]
    big = sys.float_info.max
    for lo, hi in [(0.0, big), (-big / 2, big / 2), (big / 2, big)]:
        ticks = svgplot._ticks(lo, hi)
        assert all(math.isfinite(t) for t in ticks), (lo, hi)
        assert ticks == sorted(ticks)


@pytest.mark.parametrize("figure", [
    lambda: svgplot.heatmap(np.ones((4, 4)), (1.0, 1.0), "x", "y", "t"),
    lambda: svgplot.heatmap(np.ones((4, 4)), (2.0, 1.0), "x", "y", "t"),
    lambda: svgplot.curve([0.0, 1.0], [("a", [-1e308, 1e308])],
                          "x", "y", "t"),
    lambda: svgplot.curve([0.0, math.nan], [("a", [0.0, 1.0])],
                          "x", "y", "t"),
    lambda: svgplot.bars(["H"], [math.inf], "y", "t"),
], ids=["heatmap-empty", "heatmap-decreasing", "curve-span-overflows",
        "curve-nan", "bars-inf"])
def test_an_axis_without_a_finite_span_is_refused(figure):
    with pytest.raises(ModelError, match="axis range .* has no finite"):
        figure()


def test_a_refused_figure_names_its_file_and_leaves_none(tmp_path):
    writer = outputs.OutputWriter(str(tmp_path), ("svg",))
    with pytest.raises(ModelError, match=r"^c\.svg: axis range "):
        writer.write_svg("c.svg", lambda: svgplot.bars(
            ["H"], [math.inf], "y", "t"))
    assert not (tmp_path / "c.svg").exists()
    assert writer.entries == []


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
        oracles.color_for(float(x)) for x in values]
