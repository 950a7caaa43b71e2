"""Regenerate references.json: the key numbers of every default-seed
invocation, as the validator summarizes them.

    python3 perfbench/make_references.py

Run it only on a commit whose numbers are trusted, and say in CHANGES.md
why the references moved.
"""
from __future__ import annotations

import json
import shutil

import run
import validate
import workloads


def main() -> None:
    work = run.WORK / "references"
    shutil.rmtree(work, ignore_errors=True)
    refs = {}
    for name in workloads.NAMES:
        invocations = workloads.commands(name)
        if name == "kernel_stress":
            invocations += [workloads.dense_visibility(s)
                            for s in workloads.PUMP_SIGMAS_HZ]
        done = run.run_pass(list(dict.fromkeys(invocations)), work / name)
        for rec in done["invocations"]:
            inv = rec["inv"]
            problems = validate.check_outcome(
                inv, rec["exit_code"], open(f"{rec['out']}.stderr").read(),
                rec["out"], validate.artifact_hashes(rec["out"]))
            if problems:
                raise SystemExit(f"{inv.key}: {problems}")
            refs[inv.key] = validate.summarize(rec["out"])
    shutil.rmtree(work)
    path = run.HERE / "references.json"
    path.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":"))
                    + "\n")
    print(f"wrote {len(refs)} references to {path}")


if __name__ == "__main__":
    main()
