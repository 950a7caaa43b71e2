"""Run one qisim CLI invocation with a span around every public function.

Usage: python3 tracer.py TRACE_JSON CLI_ARG...

Behaves like ``python -m qisim.cli CLI_ARG...`` (same artifacts, stdout,
stderr and exit code) and writes per-function totals to TRACE_JSON.  The
wrappers live here, outside the program: every public function and public
method defined in a ``qisim`` module is replaced in its module, its
class, and every module that imported it by name (``cli`` imports
``build_jsa``, ``fit_gamma_s``, ``window_fwhm``, ``group_delay`` and
``transmission`` directly).

A function's self time is its span minus the spans of wrapped functions
it called.  Per-cell and per-pixel formatters are left unwrapped (see
``UNWRAPPED``), so their cost is self time of the writer that calls them.
Counters marked "computed" are derived from argument shapes, not timed.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time

# called once per CSV cell or heatmap pixel: a span each would cost more
# than the work it measures
UNWRAPPED = frozenset({"outputs.fmt_cell", "outputs.fmt_float",
                       "svgplot.color_for"})


class Tracer:
    """Per-function call counts, total and self times, errors and counters
    for one process."""

    def __init__(self):
        self.stats = {}        # name -> {"calls", "total_s", "self_s", "errors"}
        self.counters = {}     # name -> number
        self.digests = []      # one per visibility call, to find repeats
        self._stack = []       # child time accumulated per open span
        self._wrapped = {}     # id(original) -> wrapper

    def add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            t0 = time.perf_counter()
            tracer._stack.append(0.0)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = time.perf_counter()
                child = tracer._stack.pop()
                if hook is not None and not failed:
                    hook(tracer, args, kwargs, result)
                t2 = time.perf_counter()
                st = tracer.stats.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                           "errors": 0})
                st["calls"] += 1
                st["total_s"] += t1 - t0
                st["self_s"] += (t1 - t0) - child
                st["errors"] += failed
                if tracer._stack:
                    # the hook's own cost is not the caller's work either
                    tracer._stack[-1] += t2 - t0

        return span

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{m.name}")
                   for m in pkgutil.iter_modules(package.__path__)]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrapper_for(obj)
                    if wrapper is not None:
                        setattr(mod, attr, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            wrapper = self._wrapper_for(fn)
                            if wrapper is not None:
                                setattr(obj, meth, wrapper)

    def _wrapper_for(self, fn):
        module = getattr(fn, "__module__", "") or ""
        if not module.startswith("qisim."):
            return None
        name = f"{module.split('.', 1)[1]}.{fn.__name__}"
        if name in UNWRAPPED:
            return None
        if id(fn) not in self._wrapped:
            self._wrapped[id(fn)] = self.wrap(name, fn)
        return self._wrapped[id(fn)]

    def report(self, import_s: float, exit_code) -> dict:
        return {"import_s": import_s, "exit_code": exit_code,
                "functions": self.stats, "counters": self.counters,
                "visibility_inputs": self.digests}


# ------------------------------------------------------------ counters

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _write_csv(tracer, args, kwargs, path):
    rows = _arg(args, kwargs, 3, "rows")
    n = len(rows)
    tracer.add("outputs.write_csv.rows_handed", n)
    if path is not None:
        tracer.add("outputs.write_csv.rows", n)
        tracer.add("outputs.write_csv.bytes", os.path.getsize(path))


def _write_svg(tracer, args, kwargs, path):
    if path is not None:
        tracer.add("svgplot.figures_written", 1)


def _figure(tracer, args, kwargs, svg):
    tracer.add("svgplot.figures_rendered", 1)


def _heatmap(tracer, args, kwargs, svg):
    _figure(tracer, args, kwargs, svg)
    # every cell is one <rect>; the background and the frame are two more
    tracer.add("svgplot.heatmap.cells", svg.count("<rect ") - 2)


def _time_domain(tracer, args, kwargs, result):
    jsa = _arg(args, kwargs, 0, "jsa")
    n_t = len(_arg(args, kwargs, 1, "t_grid"))
    # dense: one exp(-i d t) matrix shared by both axes; factored: one
    # per axis.  complex128 entries, 16 bytes each.
    evals = n_t * jsa.n_points * (2 if jsa.is_factored else 1)
    tracer.add("biphoton.time_domain.exp_evals", evals)
    tracer.add("biphoton.time_domain.exp_bytes", 16 * evals)


def _visibility(tracer, args, kwargs, result):
    jsa = _arg(args, kwargs, 0, "jsa")
    h = hashlib.sha256(repr((jsa.grid.span, jsa.n_points)).encode())
    if jsa.is_factored:
        for f in jsa.factors:
            h.update(f.tobytes())
    else:
        n = jsa.n_points
        tracer.add("biphoton.visibility.gflop_computed", 8.0 * n ** 3 / 1e9)
        h.update(jsa.amplitude.tobytes())
    tracer.digests.append(h.hexdigest())


_HOOKS = {
    "outputs.write_csv": _write_csv,
    "outputs.write_svg": _write_svg,
    "svgplot.heatmap": _heatmap,
    "svgplot.curve": _figure,
    "svgplot.bars": _figure,
    "biphoton.time_domain": _time_domain,
    "biphoton.visibility": _visibility,
}


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import qisim
    import qisim.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(qisim)
    code = None
    try:
        code = qisim.cli.main(cli_args)
        return code
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(import_s, code), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
