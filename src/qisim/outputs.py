"""Deterministic file emission: CSV, JSON, SVG, and the run manifest.

Floats go to text with 17 significant digits so every value round-trips
exactly; JSON uses Python's shortest-round-trip float repr.  One writer
instance serializes all emission for a run and accumulates the manifest.

A grid CSV's header goes through the csv module like any other, and
its body is handed to `g17`, which formats and writes it in bands of
fixed-width lines and is imported on the first grid write, so its cost
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
        """A square grid `values[i, j]` on `axis` x `axis` in long
        format: the header, then one line "axis[i],axis[j],values[i, j]"
        per cell, row-major.

        Unlike write_csv's .17g, every number is format(v, "+.16e") with
        a three-digit exponent, so every line is g17.LINE (75) bytes; any
        17 significant digits parse back to the same float.  The body
        streams from g17.write_grid through two band buffers that it
        reuses, so memory does not grow with the number of lines, and
        the file's write_bytes keeps no band; a failed write raises
        before the file is recorded.
        """
        if not self.wants("csv"):
            return None
        from . import g17
        with self._open(name) as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            g17.write_grid(fh.write_bytes, axis, values)
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
