"""Checks on one CLI invocation's outcome and artifacts.

An invocation passes when its exit code is the expected one, stderr has
no traceback, every manifest entry exists with a matching sha256, the
key numbers agree with the stored references where the inputs match
theirs, and physical bounds hold everywhere.  Byte-identity across
repeated invocations is checked by the caller from ``artifact_hashes``.

Key numbers are compared within tolerance rather than as bytes, so a
change that moves results inside the test suite's bounds (a different
transform or root finder) is not a failure.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

from workloads import C4_FAILED_CHECKS

RTOL = 1e-6
ATOL = 1e-12
_SUBSAMPLE = 16          # strided samples per axis of a density grid
_CSV_ROWS = 16           # strided rows kept from the other CSVs


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_hashes(out_dir: str) -> dict:
    """Recomputed sha256 of every file except the manifest."""
    return {name: sha256_file(os.path.join(out_dir, name))
            for name in sorted(os.listdir(out_dir)) if name != "manifest.json"}


def check_outcome(inv, exit_code: int, stderr: str, out_dir: str,
                  hashes: dict) -> list:
    """Exit code, traceback and manifest checks; returns problem strings."""
    problems = []
    if exit_code != inv.expect_exit:
        problems.append(f"exit code {exit_code}, expected {inv.expect_exit}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            entries = json.load(fh)["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"manifest unreadable: {exc}"]
    listed = {e["path"]: e["sha256"] for e in entries}
    for name, digest in listed.items():
        if name not in hashes:
            problems.append(f"manifest lists missing file {name}")
        elif hashes[name] != digest:
            problems.append(f"sha256 mismatch for {name}")
    for name in hashes:
        if name not in listed:
            problems.append(f"{name} is not in the manifest")
    if inv.command == "reproduce-all":
        problems += _check_failed_set(out_dir)
    return problems


def _check_failed_set(out_dir: str) -> list:
    try:
        with open(os.path.join(out_dir, "checks.json"), encoding="utf-8") as fh:
            failed = set(json.load(fh)["failed"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"checks.json unreadable: {exc}"]
    if failed != C4_FAILED_CHECKS:
        return [f"reproduce-all failed checks {sorted(failed)}, expected "
                f"{sorted(C4_FAILED_CHECKS)}"]
    return []


# ------------------------------------------------------------ key numbers

def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}", obj[k], out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out[prefix] = obj


def _density_summary(name: str, path: str) -> dict:
    """Total mass, ridge correlation and a strided subsample of a
    long-format (t1, t2, density) grid."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = math.isqrt(len(data))
    t = data[:n, 1]
    rho = data[:, 2].reshape(n, n)
    w = rho / rho.sum()
    m1, m2 = (w.sum(axis=1) * t).sum(), (w.sum(axis=0) * t).sum()
    v1 = (w.sum(axis=1) * (t - m1) ** 2).sum()
    v2 = (w.sum(axis=0) * (t - m2) ** 2).sum()
    ridge = float((w * np.outer(t - m1, t - m2)).sum() / math.sqrt(v1 * v2))
    step = max(1, n // _SUBSAMPLE)
    return {f"{name}:n": n, f"{name}:mass": float(rho.sum()),
            f"{name}:peak": float(rho.max()),
            f"{name}:ridge": ridge,
            f"{name}:t_first": float(t[0]), f"{name}:t_last": float(t[-1]),
            f"{name}:subsample": rho[::step, ::step].ravel().tolist()}


def _csv_summary(name: str, path: str) -> dict:
    """Header, row count, numeric column sums and strided rows."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = [[_cell(c) for c in r] for r in csv.reader(fh)]
    sums = [math.fsum(r[j] for r in rows if isinstance(r[j], float))
            for j in range(len(header))]
    step = max(1, len(rows) // _CSV_ROWS)
    return {f"{name}:header": header, f"{name}:n_rows": len(rows),
            f"{name}:column_sums": sums, f"{name}:strided_rows": rows[::step]}


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def summarize(out_dir: str) -> dict:
    """Key numbers of every artifact in ``out_dir`` (SVGs are covered by
    the manifest hashes and the byte-identity check only)."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name == "manifest.json" or name.endswith(".svg"):
            continue
        if name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                _flatten(name, json.load(fh), out)
        elif name.startswith("timedist"):
            out.update(_density_summary(name, path))
        elif name.endswith(".csv"):
            out.update(_csv_summary(name, path))
    return out


def _close(a, b) -> bool:
    if isinstance(b, list):
        return (isinstance(a, list) and len(a) == len(b)
                and all(_close(x, y) for x, y in zip(a, b)))
    if isinstance(b, bool) or b is None or isinstance(b, str):
        return a == b
    if isinstance(a, bool) or not isinstance(a, (int, float)):
        return False
    return abs(a - b) <= RTOL * abs(b) + ATOL


def compare(summary: dict, reference: dict) -> list:
    """Keys of the reference whose value is missing or out of tolerance.
    Density subsamples use the grid's peak as their scale."""
    problems = []
    for key, ref in reference.items():
        got = summary.get(key)
        if key.endswith(":subsample") and got is not None:
            scale = max(abs(v) for v in ref) or 1.0
            ok = len(got) == len(ref) and all(
                abs(a - b) <= RTOL * scale for a, b in zip(got, ref))
        else:
            ok = _close(got, ref)
        if not ok:
            problems.append(f"{key}: got {_short(got)}, reference {_short(ref)}")
    return problems


def _short(v) -> str:
    text = repr(v)
    return text if len(text) <= 80 else text[:77] + "..."


def physical_bounds(summary: dict) -> list:
    """Checks that hold at every seed, including seeds no reference
    covers."""
    problems = []
    eps = 1e-9
    for key, v in summary.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            if key.endswith(":subsample") and min(v) < 0.0:
                problems.append(f"{key}: negative density")
            continue
        if not math.isfinite(v):
            problems.append(f"{key}: not finite")
        elif key.endswith(":peak") and abs(v - 1.0) > eps:
            problems.append(f"{key}: density is not max-normalized")
        elif key.endswith(":ridge") and abs(v) > 1.0 + eps:
            problems.append(f"{key}: correlation outside [-1, 1]")
        elif ".fidelities." in key and not -eps <= v <= 1.0 + eps:
            problems.append(f"{key}: fidelity outside [0, 1]")
        elif key.endswith("].S") and abs(v) > 2.0 * math.sqrt(2.0) + eps:
            problems.append(f"{key}: CHSH S beyond the Tsirelson bound")
        elif key.startswith("eit_report.json.transmission") and \
                not -eps <= v <= 1.0 + eps:
            problems.append(f"{key}: transmission outside [0, 1]")
    fit = "eit_report.json.fit."
    if f"{fit}converged" in summary:
        if summary[f"{fit}converged"] is not True:
            problems.append("gamma_s fit did not converge")
        elif abs(summary[f"{fit}achieved_window_fwhm_hz"]
                 - summary[f"{fit}target_hz"]) > 1e-3 * summary[f"{fit}target_hz"]:
            problems.append("fitted window misses its target")
    for row in summary.get("visibility.csv:strided_rows", []):
        v = row[2]
        if row[3] is not None or not isinstance(v, float) \
                or not -eps <= v <= 1.0 + eps:
            problems.append(f"visibility.csv: bad row {row}")
    return problems
