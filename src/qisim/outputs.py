"""Deterministic file emission: CSV, JSON, SVG, and the run manifest.

Floats go to text with 17 significant digits so every value round-trips
exactly; JSON uses Python's shortest-round-trip float repr.  One writer
instance serializes all emission for a run and accumulates the manifest.
"""
from __future__ import annotations

import csv
import datetime
import hashlib
import json
import os

from .errors import InputError

ARTIFACT_VERSION = "0.1.0"


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
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class OutputWriter:
    """Writes files under one directory and records (path, hash) pairs."""

    def __init__(self, directory: str, formats=("csv", "json", "svg")):
        self.directory = directory
        self.formats = tuple(formats)
        self.entries = []
        os.makedirs(directory, exist_ok=True)

    def _record(self, name: str, path: str) -> None:
        self.entries.append({"path": name, "sha256": sha256_of(path)})

    def wants(self, fmt: str) -> bool:
        return fmt in self.formats

    def write_csv(self, name: str, header, rows) -> str:
        if not self.wants("csv"):
            return None
        path = os.path.join(self.directory, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow([fmt_cell(c) for c in row])
        self._record(name, path)
        return path

    def write_grid_csv(self, name: str, header, axis, values) -> str:
        """A square grid `values[i, j]` on `axis` x `axis`, in the same
        long format write_csv gives rows (axis[i], axis[j], values[i, j]).

        Streams one row of the grid at a time, so memory does not grow
        with the number of CSV rows; each axis value is formatted once.
        """
        if not self.wants("csv"):
            return None
        path = os.path.join(self.directory, name)
        labels = [fmt_float(a) for a in axis]
        cols = ["," + label + "," for label in labels]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            for label, row in zip(labels, values):
                fh.write("".join([f"{label}{col}{v:.17g}\n"
                                  for col, v in zip(cols, row.tolist())]))
        self._record(name, path)
        return path

    def write_json(self, name: str, obj) -> str:
        if not self.wants("json"):
            return None
        path = os.path.join(self.directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self._record(name, path)
        return path

    def write_svg(self, name: str, content: str) -> str:
        if not self.wants("svg"):
            return None
        path = os.path.join(self.directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        self._record(name, path)
        return path

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


def read_csv(path: str):
    """Header + rows with numeric cells parsed back to float; the inverse
    of write_csv for round-trip checks."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InputError(f"{path}: empty CSV")
    header, body = rows[0], rows[1:]
    parsed = []
    for row in body:
        out = []
        for cell in row:
            if cell == "":
                out.append(None)
            else:
                try:
                    out.append(float(cell))
                except ValueError:
                    out.append(cell)
        parsed.append(out)
    return header, parsed
