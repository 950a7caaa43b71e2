"""Deterministic file emission: CSV, JSON, SVG, and the run manifest.

Floats go to text with 17 significant digits so every value round-trips
exactly; JSON uses Python's shortest-round-trip float repr.  One writer
instance serializes all emission for a run and accumulates the manifest.

Grid CSVs are formatted in bands of rows by forked workers, one per
usable CPU, while this process only hashes and writes the bands in
order; the bytes and hashes do not depend on the CPU count.  Where fork
is unavailable, or there is one CPU or one band, the bands are formatted
in-process.

A band's cells are formatted by the numpy kernel of `g17`, whose bytes
equal format(v, ".17g") for every float64.  It is imported on the first
grid write, so its tables and its compile time fall only on commands
that write a grid.
"""
from __future__ import annotations

import contextlib
import csv
import datetime
import hashlib
import json
import os
import struct
import warnings

import numpy as np

ARTIFACT_VERSION = "0.1.0"

# grid rows per band, the unit a worker formats and sends
_BAND_ROWS = 16
# a band's frame header: its length in bytes
_FRAME = struct.Struct("<Q")


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return fmt_float(value)


def sha256_of(path: str) -> str:
    """Hash of a file read back from disk: the reference for the hashes
    OutputWriter records while writing."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


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


def _grid_band(labels, cols, values, band: int) -> bytes:
    """Rows band * _BAND_ROWS onwards of the long-format grid, UTF-8.

    labels and cols are the _label_words of the grid's axis.
    """
    from . import g17
    lo = band * _BAND_ROWS
    rows = labels[lo:lo + _BAND_ROWS]
    words = rows.shape[1]
    cell = np.empty((len(rows) * len(cols), words + g17.SLOT // 8),
                    np.uint64)
    np.bitwise_or(rows[:, None], cols,
                  out=cell.reshape(len(rows), len(cols), -1)[:, :, :words])
    g17.slots(values[lo:lo + _BAND_ROWS], cell[:, words:].view(np.uint8))
    # the NUL pads go; bytes.translate drops them about twice as fast as
    # np.compress on a mask
    return cell.tobytes().translate(None, b"\0")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity API on this platform
        return os.cpu_count() or 1


def _send_bands(fd, labels, cols, values, bands) -> None:
    """A worker's job: format `bands` and write each to fd as a frame."""
    with open(fd, "wb") as out:
        for band in bands:
            data = _grid_band(labels, cols, values, band)
            out.write(_FRAME.pack(len(data)))
            out.write(data)


def _read_frame(pipe):
    """The next length-prefixed band from a worker's pipe; None if the
    worker ended before sending all of it."""
    head = pipe.read(_FRAME.size)
    if len(head) == _FRAME.size:
        (size,) = _FRAME.unpack(head)
        data = pipe.read(size)
        if len(data) == size:
            return data
    return None


def _bands(labels, cols, values):
    """Every band of the grid in order: formatted by forked workers, or
    in-process where there is one CPU, one band or no fork."""
    n_bands = -(-len(labels) // _BAND_ROWS)
    workers = min(_usable_cpus(), n_bands)
    if workers < 2 or not hasattr(os, "fork"):
        for band in range(n_bands):
            yield _grid_band(labels, cols, values, band)
        return
    pids, pipes = [], []
    try:
        for w in range(workers):
            r, wfd = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns on fork in a process with threads.
                    # OpenBLAS threads exist here, but the child runs only
                    # element-wise numpy formatting and pipe writes, never
                    # BLAS, so it needs no lock another thread could hold.
                    warnings.filterwarnings(
                        "ignore", r"This process .* is multi-threaded",
                        DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wfd)
                raise
            if pid == 0:
                code = 1
                try:
                    for fd in [r] + [pipe.fileno() for pipe in pipes]:
                        os.close(fd)
                    _send_bands(wfd, labels, cols, values,
                                range(w, n_bands, workers))
                    code = 0
                finally:
                    # never return into the parent's stack: no atexit,
                    # no flush of buffers inherited from it
                    os._exit(code)
            os.close(wfd)
            pids.append(pid)
            pipes.append(open(r, "rb"))
        for band in range(n_bands):
            data = _read_frame(pipes[band % workers])
            if data is None:
                raise OSError(f"grid worker {pids[band % workers]} ended "
                              f"before band {band} was complete")
            yield data
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, status in zip(pids, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise OSError(f"grid worker {pid} exited with status {code}")


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

        Streams one band of _BAND_ROWS grid rows at a time, so memory
        does not grow with the number of CSV rows; each axis value is
        formatted once.  A worker that fails raises OSError before the
        file is recorded.
        """
        if not self.wants("csv"):
            return None
        # imports the kernel, and builds its tables, before any fork
        labels, cols = _label_words([fmt_float(a) for a in axis])
        with self._open(name) as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            with contextlib.closing(_bands(labels, cols, values)) as bands:
                for data in bands:
                    fh.write_bytes(data)
        return fh.path

    def write_json(self, name: str, obj) -> str:
        if not self.wants("json"):
            return None
        with self._open(name) as fh:
            fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        return fh.path

    def write_svg(self, name: str, render) -> str:
        """Write the SVG text `render()` returns; render is called only
        when SVG output is wanted."""
        if not self.wants("svg"):
            return None
        with self._open(name) as fh:
            fh.write(render())
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
