"""Every line of every function body in src/qisim runs in a command: src/
holds only what the CLI runs, and each input is checked once, where a
command meets it.

A subprocess sets a line tracer before it imports qisim, so that bodies
run at import (config._calibrated, svgplot._build_palette) count, then
runs COMMANDS, `cli.run` and every test_cli.REFUSALS case.  A body line
(of a function, lambda or comprehension) that runs in none of them fails
the test with its file:line, unless UNREACHED names it with the reason
it stays; an UNREACHED entry one of whose lines runs fails it too.

Run as a script, this file is that subprocess:

    PYTHONPATH=src python tests/test_reachability.py CASES.json OUT_DIR

reads {"cases": [argv, ...]}, runs each case with `--out OUT_DIR/<k>`,
then `cli.run` on ["g13", "--out", OUT_DIR/run], and writes
{"codes": [...], "run_code": ..., "lines": [[file, first line, qualified
name, [lines run]], ...]} to OUT_DIR/report.json.
"""
import inspect
import json
import os
import subprocess
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "qisim")
COMMENTED = os.path.join(ROOT, "tests", "data", "commented.cfg")

# "file:line" or "file:first-last" under src/qisim -> why those lines
# stay although no command runs them
UNREACHED = {
    # numerical edges
    "eit.py:197": "_real_roots drops a leading zero coefficient, as "
    "np.roots does; no medium tried gives the fit one",
    "eit.py:208": "_real_roots: a polynomial exactly 0 at a turning point "
    "or at the largest float",
    "eit.py:286": "fit_gamma_s: only a target equal to the narrowest window "
    "to the last bit (2429705.4185120836 Hz for the default medium) "
    "reaches it, so a case would pin that bit",
    "g17.py:181": "numbers' fallback: a density cell outside (0, 1], or "
    "within HALF_MARGIN of a rounding tie; no command's density holds one, "
    "and test_outputs checks the fallback against format()",
    "g17.py:221-222": "write_grid: a band write that fails (disk full); "
    "test_outputs injects it",
    "g17.py:234": "write_grid stops handing bands over after a failed write",
    "g17.py:240": "write_grid raises the failed write",
    "svgplot.py:91": "_range: a NaN in a plotted series; no command "
    "computes one",
    # perfbench's tracer reads these; no command needs them
    "spectral.py:129-148": "JointSpectralAmplitude.factors and .amplitude",
    "spectral.py:188": "pump_table's flat branch: a flat pump's amplitude "
    "is built from its factors, except in .amplitude",
}

# (argv, exit code): every command once, and the cases that reach the
# branches no REFUSALS case does
COMMANDS = [
    (["visibility"], 0),
    (["visibility", "--set", "source.pump_kind=flat_limit"], 0),
    (["timedist", "--set", "grids.n_freq=256", "--set", "grids.n_time=96"],
     0),
    (["timedist", "--set", "grids.n_freq=256", "--set", "grids.n_time=96",
      "--with-storage", "eit"], 0),
    (["timedist", "--set", "source.pump_kind=flat_limit"], 0),
    (["timedist", "--set", "source.pump_kind=flat_limit", "--with-storage",
      "eit"], 0),
    # more than one chirp-z block, and no SVG
    (["timedist", "--set", "source.pump_kind=flat_limit", "--set",
      "grids.n_freq=65536", "--set", "output.formats=json"], 0),
    # block_mean pads a grid that its blocks do not divide
    (["timedist", "--set", "grids.n_freq=256", "--set", "grids.n_time=257"],
     0),
    (["eit"], 0),
    (["eit", "--fit-gamma-s", "2.9e6"], 0),
    (["eit", "--set", "output.formats=svg"], 0),
    # _half_x's l * p overflows quietly to inf, and _finite raises
    (["eit", "--set", "eit.od=1e-300", "--set", "eit.rabi_hz=1e50", "--set",
      "eit.gamma_ge_hz=1"], 3),
    (["store"], 0),
    # the dephasing factor's exponent overflows: exp's limit 0
    (["store", "--states", "plus", "--set",
      "channel.phase_jitter_rad=1e200"], 0),
    (["bell"], 0),
    (["g13"], 0),
    (["g13", "--set", "eit.decay_shape=exponential", "--times-s", "0"], 0),
    (["g13", "--config", COMMENTED], 0),
    (["reproduce-all"], 4),   # the C4 checks fail
    # the 3.7 MHz sweep row fails on a 1.004 % tail and is recomputed
    (["reproduce-all", "--set", "grids.freq_span_factor=31.7", "--set",
      "source.gamma_hz=3.72e6"], 3),
    # a 5e-324 Hz grid span: detunings_on's step underflows to 0, and
    # the storage filter reads the detunings before build_jsa refuses
    # the tail
    (["timedist", "--set", "source.pump_kind=flat_limit", "--with-storage",
      "eit", "--set", "grids.freq_span_factor=1e-162", "--set",
      "source.gamma_hz=1e-162"], 3),
    (["timedist", "--tp-s", "abc"], 2),   # a usage error
    (["g13", "--out", COMMENTED], 2),     # --out names a regular file
]


def trace(cases: list, out: str) -> dict:
    """Import qisim and run `cases` under a line tracer; see the module
    docstring."""
    seen = {}

    def line_event(frame, event, arg):
        if event == "line":
            seen[frame.f_code].add(frame.f_lineno)
        return line_event

    def call_event(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(SRC):
            return None
        seen.setdefault(code, set())
        return line_event

    threading.settrace(call_event)  # the grid writer's thread
    sys.settrace(call_event)
    try:
        from qisim import cli
        codes = [cli.main(argv[:1] + ["--out", os.path.join(out, str(k))]
                          + argv[1:]) for k, argv in enumerate(cases)]
        sys.argv = ["qisim", "g13", "--out", os.path.join(out, "run")]
        try:
            cli.run()
        except SystemExit as exc:
            run_code = exc.code
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {"codes": codes, "run_code": run_code,
            "lines": [[code.co_filename, code.co_firstlineno,
                       code.co_qualname, sorted(lines)]
                      for code, lines in seen.items()]}


def body_lines(path: str) -> dict:
    """(first line, qualified name) -> the lines of each function, lambda
    and comprehension body in the module at path."""
    with open(path, encoding="utf-8") as fh:
        module = compile(fh.read(), path, "exec")
    found = {}

    def visit(code):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                # a class body runs at import; only functions are checked
                if const.co_flags & inspect.CO_NEWLOCALS:
                    found[const.co_firstlineno, const.co_qualname] = {
                        ln for _, _, ln in const.co_lines() if ln}
                visit(const)
    visit(module)
    return found


def locations(entry: str) -> set:
    """("file", line) for each line an UNREACHED entry names."""
    name, span = entry.split(":")
    first, _, last = span.partition("-")
    return {(name, ln) for ln in range(int(first), int(last or first) + 1)}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The subprocess's report, with `want`, the exit code each run
    should give, `body`, ("file", line) of every body line, and
    `missed`, those that did not run."""
    from test_cli import REFUSALS
    tmp = tmp_path_factory.mktemp("traced")
    cases = [argv for argv, _ in COMMANDS] + [
        argv for argv, _, _ in REFUSALS.values()]
    (tmp / "cases.json").write_text(json.dumps({"cases": cases}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, os.path.abspath(__file__),
                           str(tmp / "cases.json"), str(tmp / "out")],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp / "out" / "report.json").read_text())
    ran = {(path, first, name): set(lines)
           for path, first, name, lines in report["lines"]}
    body, missed = set(), set()
    for module in sorted(os.listdir(SRC)):
        if not module.endswith(".py"):
            continue
        path = os.path.join(SRC, module)
        for (first, name), lines in body_lines(path).items():
            body |= {(module, ln) for ln in lines}
            # a called body's first line is its def or its decorator,
            # which holds no statement of the body
            run = ran.get((path, first, name))
            todo = lines if run is None else lines - run - {first}
            missed |= {(module, ln) for ln in todo}
    want = [code for _, code in COMMANDS] + [
        code for _, code, _ in REFUSALS.values()]
    return dict(report, want=want, body=body, missed=missed)


def test_commands_and_refusals_exit_as_expected(traced):
    assert traced["codes"] == traced["want"]
    assert traced["run_code"] == 0


def test_every_body_line_runs_in_a_command(traced):
    listed = set().union(*map(locations, UNREACHED))
    unexplained = sorted(traced["missed"] - listed)
    assert not unexplained, "no command runs " + ", ".join(
        f"{name}:{ln}" for name, ln in unexplained)


def test_every_unreached_entry_names_lines_no_command_runs(traced):
    ran = traced["body"] - traced["missed"]
    stale = [entry for entry in UNREACHED
             if not locations(entry) & traced["body"]
             or locations(entry) & ran]
    assert not stale, "listed in UNREACHED but run: " + ", ".join(stale)


if __name__ == "__main__":
    cases_path, out_dir = sys.argv[1:]
    with open(cases_path, encoding="utf-8") as fh:
        job = json.load(fh)
    report = trace(job["cases"], out_dir)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh)
