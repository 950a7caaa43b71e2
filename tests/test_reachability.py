"""Every public function and method of the package is reached from a
command: src/ holds only what the CLI runs."""
import importlib
import inspect
import pkgutil
import sys
import threading

import pytest

import qisim
from qisim import cli

# Read only by perfbench's tracer: its visibility hook hashes the
# materialized amplitude, or a flat pump's factors, to find repeated
# inputs.  No command needs either.
TRACER_ONLY = ["spectral.JointSpectralAmplitude.amplitude",
               "spectral.JointSpectralAmplitude.factors"]

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


def test_every_public_function_is_reached_from_a_command(tmp_path,
                                                         monkeypatch):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    monkeypatch.setattr(sys, "argv",
                        ["qisim", "g13", "--out", str(tmp_path / "run")])
    threading.setprofile(profile)  # the grid writer's thread
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv + ["--out", str(tmp_path / str(k))])
                 for k, argv in enumerate(COMMANDS)]
        with pytest.raises(SystemExit) as run:
            cli.run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    # reproduce-all exits 4 on the C4 checks; the usage error exits 2
    assert codes == [cli.EXIT_OK] * 9 + [cli.EXIT_CHECKS, cli.EXIT_CONFIG]
    assert run.value.code == cli.EXIT_OK
    missed = sorted(name for name, code in public_functions().items()
                    if code not in called)
    assert missed == TRACER_ONLY
