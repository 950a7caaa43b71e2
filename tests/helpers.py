"""Small utilities shared by the test modules."""

import hashlib
import json
import os

import numpy as np

from qisim import outputs


def ginibre_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def hash_dir(path: str) -> dict:
    """name -> sha256 for every file except the manifest."""
    out = {}
    for name in sorted(os.listdir(path)):
        if name == "manifest.json":
            continue
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def manifest_sans_timestamp(path: str) -> dict:
    with open(os.path.join(path, "manifest.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data.pop("timestamp")
    return data


def disk_full_on(call):
    """A _HashedFile.write_bytes that fails on its `call`-th call, the
    header being the first.  Its `calls` lists the data of every call."""
    calls = []
    write_bytes = outputs._HashedFile.write_bytes

    def write(self, data):
        calls.append(data)
        if len(calls) == call:
            raise OSError(28, "No space left on device")
        write_bytes(self, data)
    write.calls = calls
    return write
