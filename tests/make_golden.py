"""Write tests/data/golden.json: the sha256 of every artifact that a few
default runs write, except the manifest and the files whose bytes
depend on the CPU.  test_golden.py compares fresh runs against it.

    PYTHONPATH=src python tests/make_golden.py

Regenerate it only when a change moves an artifact on purpose, and name
the files that moved, and why, in CHANGES.md.
"""
import hashlib
import json
import os
import platform
import tempfile

from qisim import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "data", "golden.json")

# name -> argv of each pinned run
RUNS = {
    "reproduce-all": ["reproduce-all"],
    "eit-fit": ["eit", "--fit-gamma-s", "2.9e6"],
    "store": ["store", "--storage-times-s", "0,2e-07,1e-06"],
    "bell": ["bell"],
    "g13": ["g13"],
    "timedist-storage": ["timedist", "--with-storage", "eit"],
    "timedist-flat": ["timedist", "--set", "source.pump_kind=flat_limit",
                      "--set", "grids.n_freq=65536"],
}

# The manifest holds a timestamp.  The others are sums that numpy's SIMD
# kernels order by the CPU's instruction set, so their last bits move
# between machines (and under NPY_DISABLE_CPU_FEATURES).
UNPINNED = ("manifest.json", "visibility.csv", "checks.json",
            "timedist.csv", "timedist_tp100ns.csv", "timedist_tp30ns.csv")


def digests(argv: list) -> dict:
    """file name -> sha256 of each pinned file the run writes."""
    with tempfile.TemporaryDirectory() as out:
        cli.main(argv + ["--out", out])
        found = {}
        for name in sorted(os.listdir(out)):
            if name not in UNPINNED:
                with open(os.path.join(out, name), "rb") as fh:
                    found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def main() -> None:
    golden = {"python": platform.python_version(),
              "runs": {name: digests(argv) for name, argv in RUNS.items()}}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
