"""Golden master: the default runs of make_golden.RUNS write files with
the sha256 digests recorded in tests/data/golden.json.

A change that should keep every artifact byte for byte (a refactor, a
deletion) passes this test unchanged.  The digests hold for the Python
version recorded in the file, on a platform whose C math library rounds
exp, log, sin, cos and sqrt as glibc's does on x86-64: the qubit, EIT
and SVG layers call them through `math`, and a libm that rounds one of
them differently in the last bit moves the files that use it.
"""
import json

import make_golden


def test_default_runs_match_the_golden_digests():
    with open(make_golden.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert set(golden["runs"]) == set(make_golden.RUNS)
    moved = []
    for name, argv in make_golden.RUNS.items():
        want, got = golden["runs"][name], make_golden.digests(argv)
        moved += [f"{name}/{file}" for file in sorted(set(want) | set(got))
                  if want.get(file) != got.get(file)]
    assert not moved, (f"moved from the digests made with Python "
                       f"{golden['python']}: " + ", ".join(moved))
