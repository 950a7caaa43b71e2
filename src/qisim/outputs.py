"""Deterministic file emission: CSV, JSON, SVG, and the run manifest.

Floats go to text with 17 significant digits so every value round-trips
exactly; JSON uses Python's shortest-round-trip float repr.  One writer
instance serializes all emission for a run and accumulates the manifest.

Grid CSVs are formatted one band of about _BAND_CELLS cells at a time
in the calling process, as NUL-padded words, while one writer thread
drops the NULs of the band before it, then hashes and writes it.  The
compaction is a boolean mask on the bytes, and numpy's loops, hashlib
and file writes release the GIL, so the two threads overlap.  A band's
cells are formatted by the numpy kernel of `g17`, whose bytes equal
format(v, ".17g") for every float64.  The kernel, numpy and the
thread's executor are imported on the first grid write, so their cost
falls only on commands that write a grid.
"""
from __future__ import annotations

import contextlib
import csv
import datetime
import hashlib
import json
import os

from .errors import ModelError

ARTIFACT_VERSION = "0.1.0"

# grid cells per band, the unit formatted while the band before it is
# written: 5 rows of a 1536-wide grid, 16 of a 512-wide one.  A band
# of 16384 cells made the storage map's allocations churn (5 times the
# minor page faults) and one of 4096 paid per-band overhead
_BAND_CELLS = 8192


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return fmt_float(value)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _HashedFile:
    """Text sink that writes UTF-8 bytes to `raw` and hashes exactly
    those bytes, so a file's sha256 needs no second read."""

    def __init__(self, raw):
        self._raw = raw
        self.path = raw.name
        self.sha256 = hashlib.sha256()

    def write(self, text: str) -> None:
        self.write_bytes(text.encode("utf-8"))

    def write_bytes(self, data: bytes) -> None:
        self.sha256.update(data)
        self._raw.write(data)


def _label_words(labels):
    """Row and column parts of the grid's lines as uint64 words: the
    row label, and ",label," just after the widest row label, both
    NUL-padded to one width, a multiple of 8 bytes."""
    import numpy as np
    from . import g17
    rows = g17.byte_rows(labels)
    cols = g17.byte_rows(["," + label + "," for label in labels])
    width_l, width_c = rows.shape[1], cols.shape[1]
    words = -(-(width_l + width_c) // 8)
    row_words = np.zeros((len(labels), 8 * words), np.uint8)
    col_words = np.zeros_like(row_words)
    row_words[:, :width_l] = rows
    col_words[:, width_l:width_l + width_c] = cols
    return row_words.view(np.uint64), col_words.view(np.uint64)


def _band_rows(n: int) -> int:
    """Rows of an n-wide grid in one band."""
    return max(1, _BAND_CELLS // n)


def _grid_band(labels, cols, values, band: int):
    """Band `band` of the long-format grid, as its cells' uint64 words:
    each line's characters with NUL bytes among them, for _compact.

    labels and cols are the _label_words of the grid's axis.
    """
    import numpy as np
    from . import g17
    size = _band_rows(len(cols))
    part = slice(band * size, (band + 1) * size)
    rows = labels[part]
    words = rows.shape[1]
    cell = np.empty((len(rows) * len(cols), words + g17.SLOT // 8),
                    np.uint64)
    np.bitwise_or(rows[:, None], cols,
                  out=cell.reshape(len(rows), len(cols), -1)[:, :, :words])
    g17.slots(values[part], cell[:, words:].view(np.uint8))
    return cell


def _compact(cell):
    """A band's UTF-8 bytes: its words without the NUL pads.  A boolean
    mask releases the GIL, where bytes.translate holds it, and np.compress
    would build an index array 8 times the kept bytes."""
    data = cell.reshape(-1).view("u1")
    return data[data != 0]


def _write_band(fh, cell) -> None:
    fh.write_bytes(_compact(cell))


class OutputWriter:
    """Writes files under one directory and records (path, hash) pairs."""

    def __init__(self, directory: str, formats=("csv", "json", "svg")):
        self.directory = directory
        self.formats = tuple(formats)
        self.entries = []
        os.makedirs(directory, exist_ok=True)
        # an earlier run's manifest would vouch for files this run may
        # overwrite and then fail to finish
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(directory, "manifest.json"))

    @contextlib.contextmanager
    def _open(self, name: str):
        """A _HashedFile for `name`; its hash is recorded on close."""
        with open(os.path.join(self.directory, name), "wb") as raw:
            fh = _HashedFile(raw)
            yield fh
        self.entries.append({"path": name, "sha256": fh.sha256.hexdigest()})

    def wants(self, fmt: str) -> bool:
        return fmt in self.formats

    def write_csv(self, name: str, header, rows) -> str:
        if not self.wants("csv"):
            return None
        with self._open(name) as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow([fmt_cell(c) for c in row])
        return fh.path

    def write_grid_csv(self, name: str, header, axis, values) -> str:
        """A square grid `values[i, j]` on `axis` x `axis`, in the same
        long format write_csv gives rows (axis[i], axis[j], values[i, j]).

        Streams one band of about _BAND_CELLS cells at a time, so memory
        does not grow with the number of CSV rows; each axis value is
        formatted once.  One band is formatted while the one before it
        is compacted, hashed and written on a writer thread; a failed
        write raises its OSError before the file is recorded.
        """
        if not self.wants("csv"):
            return None
        from concurrent.futures import ThreadPoolExecutor
        labels, cols = _label_words([fmt_float(a) for a in axis])
        with self._open(name) as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            with ThreadPoolExecutor(1) as thread:
                written = thread.submit(int)   # nothing to wait for at band 0
                for band in range(-(-len(labels) // _band_rows(len(cols)))):
                    cell = _grid_band(labels, cols, values, band)
                    written.result()   # at most one band in flight
                    written = thread.submit(_write_band, fh, cell)
                written.result()
        return fh.path

    def write_json(self, name: str, obj) -> str:
        if not self.wants("json"):
            return None
        with self._open(name) as fh:
            fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        return fh.path

    def write_svg(self, name: str, render) -> str:
        """Write the SVG text `render()` returns; render is called only
        when SVG output is wanted, and before the file is opened, so a
        figure it refuses leaves no file.  The refusal names the file."""
        if not self.wants("svg"):
            return None
        try:
            text = render()
        except ModelError as exc:
            raise ModelError(f"{name}: {exc}") from None
        with self._open(name) as fh:
            fh.write(text)
        return fh.path

    def write_manifest(self, config_echo: dict, input_hash: str) -> str:
        """Manifest lists every file written so far; it is emitted last
        and is the only non-reproducible output (timestamp)."""
        manifest = {
            "artifact_version": ARTIFACT_VERSION,
            "config_echo": config_echo,
            "input_hash": input_hash,
            "timestamp": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
            "outputs": sorted(self.entries, key=lambda e: e["path"]),
        }
        path = os.path.join(self.directory, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path
