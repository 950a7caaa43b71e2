"""qisim benchmark: run workloads as fresh CLI processes, check every
output, and report end-to-end metrics, or per-layer metrics from a
separate traced pass.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it runs the checkout's own
``src/qisim``.  Load is a closed loop with one client: invocations run
one after another, each a fresh ``python -m qisim.cli`` process.  The
OpenBLAS thread count is recorded, never set.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; every line before it is a
readable report.  Full records (per pass, per invocation, per traced
function, environment) go to ``.perfbench_run/results/``.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import validate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
PY = sys.executable

SETUP_REPEATS = 3
SETUP_CODE = "import qisim.cli; qisim.config.load_config()"
TIMEOUT_S = 170.0
LAYERS = ("cli", "config", "spectral", "biphoton", "eit", "qubit",
          "outputs", "svgplot")

END_TO_END = {"wall_s": "s", "cmd_latency_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}

# the traced pass's metrics, name -> unit; a function a workload never
# calls reads 0
PER_LAYER = {f"{layer}.self_s": "s" for layer in LAYERS}
PER_LAYER.update({
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.errors": "count",
    "outputs.write_csv.calls": "count",
    "outputs.write_csv.self_s": "s",
    "outputs.write_csv.rows": "count",
    "outputs.write_csv.mb": "MB",
    "outputs.csv_written_ratio": "ratio",
    "outputs.sha256_of.self_s": "s",
    "svgplot.heatmap.self_s": "s",
    "svgplot.heatmap.cells": "count",
    "svgplot.written_ratio": "ratio",
    "biphoton.time_domain.self_s": "s",
    "biphoton.time_domain.exp_evals": "count",
    "biphoton.time_domain.exp_bytes": "B",
    "biphoton.visibility.calls": "count",
    "biphoton.visibility.self_s": "s",
    # the n^3 product runs in reduced_state, the fit in window_fwhm: their
    # inclusive times are what a change to either path moves
    "biphoton.visibility.total_s": "s",
    "biphoton.visibility.gflop_computed": "GFLOP",
    "biphoton.visibility.unique_ratio": "ratio",
    "spectral.build_jsa.calls": "count",
    "spectral.build_jsa.self_s": "s",
    "eit.transmission.calls": "count",
    "eit.window_fwhm.calls": "count",
    "eit.fit_gamma_s.self_s": "s",
    "eit.fit_gamma_s.total_s": "s",
})
PER_LAYER.update({f"qubit.{fn}.self_s": "s" for fn in (
    "six_state_battery", "memory_channel_two_qubit", "chsh_S",
    "correlation_curve", "crossing_time")})


# -------------------------------------------------------------- processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv: list, stderr_path: Path) -> dict:
    """Run one process to completion: wall time, its own max RSS, exit
    code.  It is killed after TIMEOUT_S."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode}


def run_pass(invocations: list, pass_dir: Path, traced: bool = False) -> dict:
    """One execution of a workload's command list."""
    pass_dir.mkdir(parents=True)
    records = []
    load_start = os.getloadavg()
    t0 = time.perf_counter()
    for i, inv in enumerate(invocations):
        out = pass_dir / f"{i:02d}-{inv.command}"
        head = ([PY, str(HERE / "tracer.py"), f"{out}.trace.json"] if traced
                else [PY, "-m", "qisim.cli"])
        rec = run_process(head + list(inv.args) + ["--out", str(out)],
                          Path(f"{out}.stderr"))
        rec.update(inv=inv, out=out)
        records.append(rec)
    return {"wall_s": time.perf_counter() - t0, "invocations": records,
            "loadavg": [load_start, os.getloadavg()], "traced": traced}


def measure_setup(work: Path) -> tuple:
    """Fresh-process ``import qisim.cli`` plus config load, repeated."""
    times, problems = [], []
    for i in range(SETUP_REPEATS):
        path = work / f"setup-{i}.stderr"
        rec = run_process([PY, "-c", SETUP_CODE], path)
        times.append(rec["wall_s"])
        if rec["exit_code"] != 0:
            problems.append(f"set-up probe exited {rec['exit_code']}: "
                            f"{path.read_text(errors='replace')[-300:]}")
    return times, problems


# ------------------------------------------------------------- validation

def build_id() -> str:
    """Content hash of the program sources: artifacts must repeat
    exactly between invocations of the same build."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Validator:
    """Checks invocations and tracks artifact hashes per input key, both
    within this run and, through WORK/hashes.json, across earlier runs
    of the same build."""

    def __init__(self, build: str):
        self.build = build
        self.refs = json.loads((HERE / "references.json").read_text())
        self.store_path = WORK / "hashes.json"
        try:
            stored = json.loads(self.store_path.read_text())
        except (OSError, ValueError):
            stored = {}
        self.earlier = stored.get(build, {})  # key -> hashes that passed
        self.passed = dict(self.earlier)      # ... including this run's
        self.first = {}                       # key -> hashes first seen now
        self.occurrences = {}                 # key -> count in this run

    def check(self, rec: dict) -> list:
        inv, out = rec["inv"], rec["out"]
        hashes = validate.artifact_hashes(out) if out.is_dir() else {}
        stderr = Path(f"{out}.stderr").read_text(errors="replace")
        problems = validate.check_outcome(inv, rec["exit_code"], stderr, out,
                                          hashes)
        # bytes that passed every check in this build need no second reading
        if out.is_dir() and hashes != self.passed.get(inv.key):
            summary = validate.summarize(out)
            problems += validate.physical_bounds(summary)
            if inv.key in self.refs:
                problems += validate.compare(summary, self.refs[inv.key])
        before = self.first.get(inv.key, self.passed.get(inv.key))
        if before is not None and before != hashes:
            problems.append("artifacts differ from an earlier invocation "
                            "with the same inputs")
        self.first.setdefault(inv.key, hashes)
        if not problems:
            self.passed[inv.key] = hashes
        self.occurrences[inv.key] = self.occurrences.get(inv.key, 0) + 1
        rec["problems"] = problems
        return problems

    def unrepeated(self, invocations: list) -> list:
        """Invocations whose artifacts nothing has been compared with."""
        return [inv for inv in dict.fromkeys(invocations)
                if self.occurrences.get(inv.key) == 1
                and inv.key not in self.earlier]

    def save(self) -> None:
        tmp = self.store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps({self.build: self.passed}))
        os.replace(tmp, self.store_path)


# ---------------------------------------------------------------- metrics

def tail(values: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"n={n}, too few samples for a tail percentile"
    p = (100 * (n - 10)) // n
    k = -(-p * n // 100) - 1          # nearest rank
    return f"p{p}={sorted(values)[k]:.6g} (n={n})"


def layer_metrics(traced: dict, untraced: dict) -> tuple:
    """Per-layer metrics, and the per-function table, of a traced pass."""
    functions, counters, digests, import_s = {}, {}, [], 0.0
    for rec in traced["invocations"]:
        path = Path(f"{rec['out']}.trace.json")
        if not path.is_file():      # the invocation died; validation says so
            continue
        t = json.loads(path.read_text())
        import_s += t["import_s"]
        digests += t["visibility_inputs"]
        for name, st in t["functions"].items():
            acc = functions.setdefault(name, dict.fromkeys(st, 0))
            for field, v in st.items():
                acc[field] += v
        for name, v in t["counters"].items():
            counters[name] = counters.get(name, 0) + v

    def ratio(num, den):
        # nothing attempted means nothing wasted
        return num / den if den else 1.0

    values = {f"{name}.{field}": v for name, st in functions.items()
              for field, v in st.items()}
    values.update(counters)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            st["self_s"] for name, st in functions.items()
            if name.split(".", 1)[0] == layer)
    values.update({
        "cli.import_s": import_s,
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.errors": sum(st["errors"] for st in functions.values()),
        "outputs.write_csv.mb": counters.get("outputs.write_csv.bytes", 0) / 1e6,
        "outputs.csv_written_ratio": ratio(
            counters.get("outputs.write_csv.rows", 0),
            counters.get("outputs.write_csv.rows_handed", 0)),
        "svgplot.written_ratio": ratio(
            counters.get("svgplot.figures_written", 0),
            counters.get("svgplot.figures_rendered", 0)),
        "biphoton.visibility.unique_ratio": ratio(len(set(digests)),
                                                  len(digests)),
    })
    metrics = {m: {"value": values.get(m, 0), "unit": unit}
               for m, unit in PER_LAYER.items()}
    return metrics, functions


# ------------------------------------------------------------ environment

def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy  # noqa: F401  (loads the library)
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "openblas": blas.get("version"),
        "openblas_threads": openblas_threads(),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS", "GOTO_NUM_THREADS")},
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


# ------------------------------------------------------------------- runs

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    invocations = workloads.commands(name, seed)
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    validator = Validator(build_id())
    problems, setup = [], []
    passes = []
    if trace:
        passes.append(run_pass(invocations, work / "p0"))
        passes.append(run_pass(invocations, work / "p1", traced=True))
    else:
        setup, problems = measure_setup(work)
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            passes.append(run_pass(invocations, work / f"p{len(passes)}"))
    # validation and the byte-identity re-runs happen outside the timing
    records = [rec for p in passes for rec in p["invocations"]]
    for rec in records:
        validator.check(rec)
    rechecks = validator.unrepeated(invocations)
    if rechecks:
        recheck = run_pass(rechecks, work / "recheck")
        for rec in recheck["invocations"]:
            validator.check(rec)
        records += recheck["invocations"]
    validator.save()

    failed_ops = [r for r in records if r["problems"]]
    attempted = len(records) + len(setup)
    failed = len(failed_ops) + len(problems)
    if trace:
        metrics, functions = layer_metrics(passes[1], passes[0])
    else:
        walls = [p["wall_s"] for p in passes]
        latencies = [r["wall_s"] for p in passes for r in p["invocations"]]
        peaks = [max(r["rss_mb"] for r in p["invocations"]) for p in passes]
        samples = {"wall_s": walls, "cmd_latency_s": latencies,
                   "peak_rss_mb": peaks, "setup_s": setup}
        metrics = {m: {"value": statistics.median(samples[m]), "unit": unit}
                   for m, unit in END_TO_END.items()}
        functions = None
    result = {
        "workload": name, "seed": seed, "trace": trace,
        "why": workloads.WHY[name],
        "commands": [" ".join(["qisim", *inv.args]) for inv in invocations],
        "environment": environment(),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "problems": problems + [f"{' '.join(r['inv'].args)}: {p}"
                                for r in failed_ops for p in r["problems"]],
        "metrics": metrics,
        "samples": None if trace else samples,
        "passes": [{"wall_s": p["wall_s"], "traced": p["traced"],
                    "loadavg": p["loadavg"],
                    "invocations": [{"args": list(r["inv"].args),
                                     "wall_s": r["wall_s"],
                                     "rss_mb": r["rss_mb"],
                                     "exit_code": r["exit_code"]}
                                    for r in p["invocations"]]}
                   for p in passes],
        "functions": functions,
    }
    shutil.rmtree(work, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))
    return result


def print_report(r: dict) -> None:
    env = r["environment"]
    print(f"== {r['workload']} (seed {r['seed']}, trace {int(r['trace'])}): "
          f"{r['why']}")
    counts = {cmd: r["commands"].count(cmd) for cmd in r["commands"]}
    for cmd, n in counts.items():
        print(f"   {cmd}" + (f"   (x{n})" if n > 1 else ""))
    print(f"   operations {r['attempted']}, failed {r['failed']}, "
          f"fail_ratio {r['failed'] / r['attempted']:.4g}")
    for p in r["problems"]:
        print(f"   FAILED: {p}")
    for m, v in r["metrics"].items():
        extra = ""
        if r["samples"] is not None:
            extra = f"  median; {tail(r['samples'][m])}"
        print(f"   {m:38s} {v['value']:<14.6g} {v['unit']}{extra}")
    if r["functions"]:
        print("   traced self time by function (s), calls, errors:")
        ranked = sorted(r["functions"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, st in ranked[:15]:
            print(f"     {name:40s} {st['self_s']:10.4f} {st['calls']:8d} "
                  f"{st['errors']:4d}")
    print("   loadavg (start, end) per pass: "
          + "; ".join(f"{a[0]:.2f}->{b[0]:.2f}"
                      for a, b in (p["loadavg"] for p in r["passes"])))
    print("   environment: " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=5.0,
                    help="minimum measured time per workload (s)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps the invocation it waits on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "qisim" / "cli.py").is_file():
        print(f"perfbench: no qisim sources under {SRC}", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names]
    for r in results:
        print_report(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v
                   for r in results for m, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
