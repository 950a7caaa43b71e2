"""Every public function and method of the package, and every refusal
it raises, is reached from a command: src/ holds only what the CLI runs,
and each input is checked once, where a command meets it."""
import ast
import importlib
import inspect
import os
import pkgutil
import sys
import threading
from types import SimpleNamespace

import pytest

import qisim
from qisim import cli

from test_cli import REFUSALS

# Read only by perfbench's tracer: its visibility hook hashes the
# materialized amplitude, or a flat pump's factors, to find repeated
# inputs.  No command needs either.
TRACER_ONLY = ["spectral.JointSpectralAmplitude.amplitude",
               "spectral.JointSpectralAmplitude.factors"]

# function -> why its refusals stay although no command reaches them
UNREACHED_REFUSALS = {
    "qubit._check_density": "QubitDensity and TwoQubitDensity check a "
    "caller's own matrix; every density a command builds is physical by "
    "construction",
    "spectral.JointSpectralAmplitude.amplitude": "the dense matrix is "
    "built only for the tests and perfbench's tracer (TRACER_ONLY)",
}

# every command once, the gaussian timedist on a small grid; the last
# is a usage error
COMMANDS = [
    ["visibility"],
    ["timedist", "--set", "grids.n_freq=256", "--set", "grids.n_time=96"],
    ["timedist", "--set", "grids.n_freq=256", "--set", "grids.n_time=96",
     "--with-storage", "eit"],
    ["timedist", "--set", "source.pump_kind=flat_limit"],
    ["eit"],
    ["eit", "--fit-gamma-s", "2.9e6"],
    ["store"],
    ["bell"],
    ["g13"],
    ["reproduce-all"],
    ["timedist", "--tp-s", "abc"],
]


def public_functions() -> dict:
    """Qualified name -> code object of every public function, method
    and property getter defined in a qisim module, unwrapped."""
    found = {}
    for info in pkgutil.iter_modules(qisim.__path__):
        module = importlib.import_module(f"qisim.{info.name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(
                    obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{info.name}.{attr}"] = obj
            elif inspect.isclass(obj):
                for name, member in vars(obj).items():
                    if isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if not name.startswith("_") and inspect.isfunction(
                            member):
                        found[f"{info.name}.{attr}.{name}"] = member
    return {name: inspect.unwrap(fn).__code__ for name, fn in found.items()}


def refusals() -> dict:
    """(file, line) -> qualified name of the enclosing function, for every
    `raise InputError(...)` and `raise ModelError(...)` in a qisim
    module."""
    found = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and getattr(getattr(
                    child.exc, "func", None), "id", None) in (
                        "InputError", "ModelError"):
                found[(path, child.lineno)] = ".".join(scope)
            visit(child, path, scope)

    for info in pkgutil.iter_modules(qisim.__path__):
        path = importlib.import_module(f"qisim.{info.name}").__file__
        with open(path, encoding="utf-8") as fh:
            visit(ast.parse(fh.read()), path, [info.name])
    return found


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced pass over COMMANDS, `cli.run` and test_cli's REFUSALS:
    their exit codes, every code object called and every refusal line
    reached.  A frame is traced line by line only if its code holds a
    refusal."""
    tmp = tmp_path_factory.mktemp("traced")
    lines = {}
    for path, line in refusals():
        lines.setdefault(path, set()).add(line)
    called, reached, owned = set(), set(), {}

    def line_event(frame, event, arg):
        if event == "line" and frame.f_lineno in owned[frame.f_code]:
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return line_event

    def call_event(frame, event, arg):
        code = frame.f_code
        called.add(code)
        if code not in owned:
            mine = lines.get(code.co_filename, ())
            owned[code] = {ln for _, _, ln in code.co_lines() if ln in mine}
        return line_event if owned[code] else None

    argvs = COMMANDS + [argv for argv, _, _ in REFUSALS.values()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "argv", ["qisim", "g13", "--out", str(tmp / "run")])
        threading.settrace(call_event)  # the grid writer's thread
        sys.settrace(call_event)
        try:
            codes = [cli.main(argv + ["--out", str(tmp / str(k))])
                     for k, argv in enumerate(argvs)]
            with pytest.raises(SystemExit) as run:
                cli.run()
        finally:
            sys.settrace(None)
            threading.settrace(None)
    return SimpleNamespace(codes=codes, run_code=run.value.code,
                           called=called, reached=reached)


def test_every_public_function_is_reached_from_a_command(traced):
    # reproduce-all exits 4 on the C4 checks; the usage error exits 2
    assert traced.codes[:len(COMMANDS)] == (
        [cli.EXIT_OK] * 9 + [cli.EXIT_CHECKS, cli.EXIT_CONFIG])
    assert traced.run_code == cli.EXIT_OK
    missed = sorted(name for name, code in public_functions().items()
                    if code not in traced.called)
    assert missed == TRACER_ONLY


def test_every_refusal_is_reached_from_a_command(traced):
    assert traced.codes[len(COMMANDS):] == [
        code for _, code, _ in REFUSALS.values()]
    unreached = {key: name for key, name in refusals().items()
                 if key not in traced.reached}
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    unexplained = [f"{os.path.relpath(path, root)}:{line}"
                   for (path, line), name in sorted(unreached.items())
                   if name not in UNREACHED_REFUSALS]
    assert not unexplained, ("no command or REFUSALS case reaches "
                             + ", ".join(unexplained))
    # and each listed function still holds a refusal no command reaches
    assert set(UNREACHED_REFUSALS) <= set(unreached.values())
