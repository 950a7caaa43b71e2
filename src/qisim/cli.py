"""Command-line driver.

Every command loads a config (defaults, optional file, --set overrides),
computes its observables, and emits CSV/JSON/SVG through a single
OutputWriter that records content hashes into manifest.json.  Exit codes:
0 success, 2 input error (InputError), 3 the model or its grid cannot
answer (ModelError), 4 one or more reference checks failed.
"""
from __future__ import annotations

import argparse
import math
import sys

from . import config, outputs, qubit, svgplot
from .config import MATERIALIZE_LIMIT, MIN_GRID_POINTS, TWO_PI
from .errors import InputError, ModelError, QisimError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_CHECKS = 4

# The commands' defaults, which reproduce-all also runs: pump bandwidths
# (Hz) and durations (s), timedist taking the last; storage times (s)
_SIGMAS_HZ = (12.5e6, 3.7e6, 1e9)
_TPS_S = (30e-9, 100e-9)
_STORE_TIMES_S = (config.STORE_TIME_S,)
_BELL_TIMES_S = (0.0, config.STORE_TIME_S, config.FRINGE_TIME_S)


def _linspace(start: float, stop: float, num: int) -> list:
    """np.linspace(start, stop, num) bit for bit, for a non-zero step."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


# the g13 command's default times (s)
_G13_TIMES_S = _linspace(0.0, 4e-6, 81)


def _comma_list(text, flag: str, states=None, required: bool = True):
    """A comma list flag's items, None when it is absent: numbers, or
    distinct members of states.  A required list holds at least one item."""
    if text is None:
        return None
    items = []
    for part in filter(None, map(str.strip, text.split(","))):
        if states is None:
            try:
                part = float(part)
            except ValueError:
                raise InputError(f"{flag} holds {part!r}, which is not a "
                                 "number") from None
        elif part not in states:
            raise InputError(f"unknown state {part!r}")
        elif part in items:
            raise InputError(f"{flag} names {part!r} twice")
        items.append(part)
    if required and not items:
        raise InputError(f"{flag} needs at least one value")
    return items


# ------------------------------------------------------------- commands
#
# Each cmd_* writes its artifacts and returns what its JSON report holds
# (cmd_timedist writes none and returns None).  A command imports the numpy
# layers it uses when it runs, as modules, so that a patched module
# attribute is what it calls.

def _visibility_of(cfg, sigma_rad: float) -> float:
    from . import biphoton, spectral
    line = config.line_from(cfg)
    pump = config.pump_from(cfg, sigma_rad)
    grid = config.grid_from(cfg, line, pump)
    return biphoton.visibility(spectral.build_jsa(grid, line, pump))


def cmd_visibility(cfg, writer, sigmas_hz, tps_s) -> dict:
    """{sigma_hz: V} for every row that succeeded.  A sweep whose every
    row failed raises the first row's error."""
    from . import spectral
    rows = []
    for s_hz, tp in ([(None, tp) for tp in tps_s]
                     + [(s_hz, None) for s_hz in sigmas_hz]):
        try:
            sigma_rad = (TWO_PI * s_hz if tp is None
                         else spectral.sigma_from_pulse_duration(tp))
            hz = s_hz if tp is None else sigma_rad / TWO_PI
            rows.append((hz, tp, _visibility_of(cfg, sigma_rad), None))
        except QisimError as exc:
            rows.append((s_hz, tp, None, str(exc)))
    writer.write_csv("visibility.csv",
                     ["sigma_hz", "T_p_s", "visibility", "error"], rows)
    good = sorted((r[0], r[2]) for r in rows if r[3] is None)
    if len(good) >= 2:
        writer.write_svg("visibility.svg", lambda: svgplot.curve(
            [g[0] for g in good],
            [("visibility", [g[1] for g in good])],
            "pump bandwidth sigma (Hz)", "visibility V",
            "Spectral-purity visibility vs pump bandwidth"))
    if not good:
        raise InputError(f"every visibility sweep row failed; first error: "
                         f"{rows[0][3]}")
    return dict(good)


def _timedist_compute(cfg, tp_s: float, with_storage):
    import numpy as np
    from . import biphoton, spectral
    line = config.line_from(cfg)
    pump = config.pump_from(cfg, spectral.sigma_from_pulse_duration(tp_s))
    grid = config.grid_from(cfg, line, pump)
    window = cfg["grids.time_span_factor"] / line.gamma
    lo, hi = -0.2 * window, 0.8 * window
    n_t = cfg["grids.n_time"]
    # np.linspace would warn on an infinite end; a subnormal window has
    # too few significant bits to space the grid evenly
    if not sys.float_info.min <= hi - lo < math.inf:
        raise InputError(
            f"the time window grids.time_span_factor / (2*pi*"
            f"source.gamma_hz) = {window:.6g} s is not a finite, normal "
            "float")
    if with_storage == "eit":
        from . import eit
        medium = config.medium_from(cfg)
        delay = 2.0 * eit.group_delay(medium)
        stretch = (hi + delay - lo) / (hi - lo)  # >= 1; not finite on overflow
        if not stretch * MIN_GRID_POINTS <= MATERIALIZE_LIMIT:
            raise InputError(
                f"the EIT delay 2*tau = {delay:.6g} s stretches the "
                f"{hi - lo:.6g} s time window {stretch:.6g}-fold; no "
                "grids.n_time keeps the time grid within the "
                f"materialization limit of {MATERIALIZE_LIMIT}")
        n_t *= math.ceil(stretch)
        hi += delay
    if n_t > MATERIALIZE_LIMIT:
        # the density holds n_t^2 values
        raise InputError(
            f"time grid of {n_t} points exceeds the materialization limit "
            f"of {MATERIALIZE_LIMIT}; lower grids.n_time")
    # a gaussian pump's half-transform holds n_freq * n_t complex values
    if pump.kind == "gaussian" and grid.n_points * n_t > MATERIALIZE_LIMIT**2:
        raise InputError(
            f"the half-transform of {grid.n_points} frequencies by {n_t} "
            f"times exceeds {MATERIALIZE_LIMIT ** 2} values; lower "
            "grids.n_freq or grids.n_time")
    eit_filter = (eit.transmission(grid.detunings, medium)
                  if with_storage == "eit" else None)
    jsa = spectral.build_jsa(grid, line, pump, eit_filter)
    t_grid = np.linspace(lo, hi, n_t)
    return t_grid, biphoton.joint_time_distribution(jsa, t_grid)


def cmd_timedist(cfg, writer, tp_s: float, with_storage=None,
                 name: str = "timedist") -> None:
    t_grid, density = _timedist_compute(cfg, tp_s, with_storage)
    t_ns = t_grid * 1e9
    writer.write_grid_csv(f"{name}.csv", ["t1_ns", "t2_ns", "density"],
                          t_ns, density)
    if not writer.wants("svg"):
        return
    # the heatmap is drawn from the block mean, once the n_t x n_t
    # density is let go
    cells = svgplot.block_mean(density)
    del density
    tag = f", storage: {with_storage}" if with_storage else ""
    writer.write_svg(f"{name}.svg", lambda: svgplot.heatmap(
        cells, (t_ns[0], t_ns[-1]), "t1 (ns)", "t2 (ns)",
        f"Joint detection-time density (T_p = {tp_s * 1e9:g} ns{tag})"))


def _intensity(t: complex) -> float:
    return t.real * t.real + t.imag * t.imag


def _eit_figures(medium) -> tuple:
    """(window FWHM in Hz, group delay in s, delay-bandwidth product,
    group velocity in m/s) of one medium."""
    from . import eit
    fwhm, tau = eit.window_fwhm(medium), eit.group_delay(medium)
    return fwhm, tau, TWO_PI * fwhm * tau, medium.length / tau


def cmd_eit(cfg, writer, fit_target_hz=None) -> dict:
    from . import eit
    medium = config.medium_from(cfg)
    if fit_target_hz is not None:
        medium, (lo, hi) = eit.fit_gamma_s(medium, fit_target_hz)
        if not lo <= fit_target_hz <= hi:
            raise ModelError(f"gamma_s fit: no gamma_s gives a "
                             f"{fit_target_hz:.6g} Hz window; this medium "
                             f"reaches {lo:.6g} to {hi:.6g} Hz")
    t_0 = _intensity(eit.transmission(0.0, medium))
    if t_0 < eit.TRANSPARENCY_FLOOR:
        raise ModelError(f"on-resonance transmission {t_0:.3g} is below the "
                         f"transparency floor {eit.TRANSPARENCY_FLOOR:g}; "
                         "there is no window to report")

    off_medium = eit.EitMedium(medium.optical_depth, 0.0, medium.gamma_ge,
                               medium.gamma_s, medium.length)
    delta_hz = _linspace(-30e6, 30e6, 2401)
    t_on = [_intensity(eit.transmission(TWO_PI * d, medium))
            for d in delta_hz]
    t_off = [_intensity(eit.transmission(TWO_PI * d, off_medium))
             for d in delta_hz]
    writer.write_csv(
        "eit_spectrum.csv",
        ["delta_hz", "transmission_control_on", "transmission_control_off"],
        list(zip(delta_hz, t_on, t_off)))
    writer.write_svg("eit_spectrum.svg", lambda: svgplot.curve(
        [d / 1e6 for d in delta_hz],
        [("control on", t_on), ("control off", t_off)],
        "probe detuning (MHz)", "intensity transmission",
        "Transparency spectrum"))

    fwhm, tau, dbp, v_g = _eit_figures(medium)
    report = {
        "window_fwhm_hz": fwhm,
        "group_delay_s": tau,
        "delay_bandwidth_product": dbp,
        "delay_bandwidth_convention": "angular: 2*pi*fwhm_hz*delay_s",
        "v_g_m_per_s": v_g,
        "length_m": medium.length,
        "gamma_s_rad_s": medium.gamma_s,
        "transmission_on_resonance": t_0,
        "transmission_control_off_resonance": _intensity(
            eit.transmission(0.0, off_medium)),
        "fit": None if fit_target_hz is None else {
            "target_hz": fit_target_hz,
            "gamma_s_rad_s": medium.gamma_s,
            "achieved_window_fwhm_hz": fwhm,
            # a literal: perfbench/references.json still pins this key
            "converged": True,
        },
    }
    writer.write_json("eit_report.json", report)
    return report


def cmd_store(cfg, writer, states, times_s) -> dict:
    results = []
    for t_s in times_s:
        params = config.channel_from(cfg, t_s)
        battery = qubit.six_state_battery(params)
        fids = {name: battery[name] for name in states}
        fids["average"] = sum(fids[n] for n in states) / len(states)
        results.append({"t_s": t_s, "fidelities": fids})
    report = {"states": list(states), "results": results}
    writer.write_json("store_report.json", report)
    first = results[0]["fidelities"]
    writer.write_svg("store_fidelities.svg", lambda: svgplot.bars(
        list(states) + ["avg"],
        [first[n] for n in states] + [first["average"]],
        "fidelity",
        f"Storage fidelities at t_s = {results[0]['t_s'] * 1e9:g} ns"))
    return report


def cmd_bell(cfg, writer, times_s) -> dict:
    v_src = cfg["channel.V_src"]
    source = qubit.werner_state(v_src)
    s_local = qubit.chsh_S(source)
    rows = []
    last_state = source
    for t_s in times_s:
        params = config.channel_from(cfg, t_s, balanced=True)
        state = qubit.memory_channel(source, params)
        s = qubit.chsh_S(state)
        rows.append({"t_s": t_s, "S": s, "violated": bool(s > 2.0)})
        last_state = state
    thetas = _linspace(0.0, math.pi, 181)
    curve_h = qubit.correlation_curve(last_state, "H", thetas)
    curve_p = qubit.correlation_curve(last_state, "plus", thetas)
    writer.write_csv("bell_curve.csv",
                     ["theta_rad", "coincidence_H", "coincidence_plus"],
                     list(zip(thetas, curve_h, curve_p)))
    writer.write_svg("bell_curve.svg", lambda: svgplot.curve(
        [t * (180.0 / math.pi) for t in thetas],
        [("flying H", curve_h), ("flying +", curve_p)],
        "analyzer angle (deg)", "normalized coincidences",
        f"Polarization correlation after {times_s[-1] * 1e6:g} us storage"))
    report = {
        "V_src": v_src,
        "angles_rad": list(qubit.CHSH_ANGLES),
        "convention": "minus",
        "S_local": s_local,
        "violated_local": bool(s_local > 2.0),
        "rows": rows,
        "curve": {
            "t_s": times_s[-1],
            "visibility_H": qubit.curve_visibility(curve_h),
            "visibility_plus": qubit.curve_visibility(curve_p),
        },
    }
    writer.write_json("bell_report.json", report)
    return report


def cmd_g13(cfg, writer, times_s) -> dict:
    g0 = cfg["g13.g0"]
    decay = config.decay_from(cfg)
    rows = []
    for t in times_s:
        g = qubit.g13_decay_model(t, g0, decay.eta)
        alpha = qubit.alpha_quality(g) if g > 1.0 else None
        rows.append((t, g, alpha))
    writer.write_csv("g13.csv", ["t_s", "g13", "alpha"], rows)
    try:
        crossing = qubit.crossing_time(g0, decay, config.G13_THRESHOLD)
    except ModelError:
        crossing = None
    report = {
        "g0": g0,
        "threshold": config.G13_THRESHOLD,
        "crossing_time_s": crossing,
        "alpha_at_threshold": 1.0,
    }
    writer.write_json("g13_report.json", report)
    writer.write_svg("g13_curve.svg", lambda: svgplot.curve(
        [t * 1e6 for t in times_s],
        [("g13", [r[1] for r in rows]),
         ("threshold", [config.G13_THRESHOLD] * len(rows))],
        "storage time (us)", "cross-correlation g13",
        "Pair cross-correlation vs storage time"))
    return report


def _check(cid, value, target, tol, relative, basis):
    err = abs(value - target)
    bound = tol * abs(target) if relative else tol
    return {
        "id": cid,
        "value": value,
        "target": target,
        "tolerance": bound,
        "relative": relative,
        "basis": basis,
        "passed": bool(err <= bound),
    }


def cmd_reproduce_all(cfg, writer) -> dict:
    """Run every command, then check the numbers they returned (and the
    two no command computes) against config.CHECKS, whose control-off
    floor is exp(-eit.od)."""
    from . import eit
    vis = cmd_visibility(cfg, writer, _SIGMAS_HZ, _TPS_S)
    for tp_s in reversed(_TPS_S):
        cmd_timedist(cfg, writer, tp_s, name=f"timedist_tp{tp_s * 1e9:g}ns")
    eit_report = cmd_eit(cfg, writer)
    store = cmd_store(cfg, writer, list(qubit.SIX_STATES), _STORE_TIMES_S)
    bell = cmd_bell(cfg, writer, _BELL_TIMES_S)
    g13 = cmd_g13(cfg, writer, _G13_TIMES_S)

    def visibility_at(sigma_hz):
        # a sweep row that failed is recomputed to raise its error here
        if sigma_hz in vis:
            return vis[sigma_hz]
        return _visibility_of(cfg, TWO_PI * sigma_hz)

    values = {"vis_sigma_12p5MHz": visibility_at(_SIGMAS_HZ[0]),
              "vis_sigma_3p7MHz": visibility_at(_SIGMAS_HZ[1])}

    fitted, _ = eit.fit_gamma_s(config.medium_from(cfg),
                                config.CHECKS["eit_window_fwhm"][0])
    (values["eit_window_fwhm"], values["eit_group_delay"], values["eit_dbp"],
     values["eit_vg"]) = _eit_figures(fitted)
    values["eit_control_off_transmission"] = (
        eit_report["transmission_control_off_resonance"])

    fids = store["results"][0]["fidelities"]
    values["six_state_each"] = max(abs(fids[n] - ref) for n, ref
                                   in config.FIDELITIES.items())
    values["six_state_average"] = fids["average"]

    values["bell_ideal_S"] = qubit.chsh_S(qubit.bell_state())
    values["bell_S_1us"] = bell["rows"][-1]["S"]
    values["fringe_visibility_1us"] = bell["curve"]["visibility_plus"]

    if g13["crossing_time_s"] is None:
        # recomputed to raise the error cmd_g13 recorded as null
        qubit.crossing_time(cfg["g13.g0"], config.decay_from(cfg),
                            config.G13_THRESHOLD)
    values["g13_crossing"] = g13["crossing_time_s"]

    floor = math.exp(-cfg["eit.od"])
    checks = [_check(cid, values[cid], floor if target is None else target,
                     *rest)
              for cid, (target, *rest) in config.CHECKS.items()]
    failed = [c["id"] for c in checks if not c["passed"]]
    report = {"checks": checks, "failed": failed}
    writer.write_json("checks.json", report)
    if failed:
        print("reproduce-all: %d reference check(s) failed: %s"
              % (len(failed), ", ".join(failed)), file=sys.stderr)
    return report


# ---------------------------------------------------------------- driver

class _Parser(argparse.ArgumentParser):
    """Ends a usage error in one `qisim:` line and exit 2; the usage block
    stays with --help.  Subparsers are made of the same class."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"qisim: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qisim",
        description="Photon-pair source and atomic-memory simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # in every subcommand
    common.add_argument("--config", default=None, help="config file path")
    common.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    common.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("visibility", parents=[common],
                       help="spectral visibility sweep")
    p.add_argument("--sigma-hz",
                   help="comma-separated pump bandwidths (Hz)")
    p.add_argument("--tp-s",
                   help="comma-separated pump durations (s)")

    p = sub.add_parser("timedist", parents=[common],
                       help="joint detection-time density")
    p.add_argument("--tp-s", type=float, default=_TPS_S[-1],
                   help="pump duration (s)")
    p.add_argument("--with-storage", choices=["eit"],
                   default=None, help="filter the signal axis")

    p = sub.add_parser("eit", parents=[common],
                       help="transparency spectrum and delay report")
    p.add_argument("--fit-gamma-s", type=float, default=None,
                   metavar="TARGET_HZ",
                   help="fit gamma_s to a target window FWHM (Hz)")

    p = sub.add_parser("store", parents=[common],
                       help="six-state storage fidelities")
    p.add_argument("--states",
                   help="comma-separated subset of H,V,plus,minus,R,L")
    p.add_argument("--storage-times-s",
                   help="comma-separated storage times (s)")

    p = sub.add_parser("bell", parents=[common],
                       help="CHSH S versus storage time")
    p.add_argument("--storage-times-s",
                   help="comma-separated storage times (s)")

    p = sub.add_parser("g13", parents=[common],
                       help="cross-correlation decay report")
    p.add_argument("--times-s",
                   help="comma-separated times (s); default 0..4us")

    sub.add_parser("reproduce-all", parents=[common],
                   help="run every command and check reference numbers")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = config.load_config(args.config, args.set)
        writer = outputs.OutputWriter(args.out, config.formats_from(cfg))
        code = EXIT_OK
        # a required list is never empty: `or` reads only an absent flag
        if args.command == "visibility":
            # the lists given are the whole sweep
            sigmas = _comma_list(args.sigma_hz, "--sigma-hz", required=False)
            tps = _comma_list(args.tp_s, "--tp-s", required=False)
            if sigmas is None and tps is None:
                sigmas, tps = _SIGMAS_HZ, _TPS_S
            if not (sigmas or tps):
                raise InputError("--sigma-hz or --tp-s needs at least one "
                                 "value")
            cmd_visibility(cfg, writer, sigmas or (), tps or ())
        elif args.command == "timedist":
            cmd_timedist(cfg, writer, args.tp_s, args.with_storage)
        elif args.command == "eit":
            cmd_eit(cfg, writer, args.fit_gamma_s)
        elif args.command == "store":
            cmd_store(cfg, writer,
                      _comma_list(args.states, "--states", qubit.SIX_STATES)
                      or list(qubit.SIX_STATES),
                      _comma_list(args.storage_times_s, "--storage-times-s")
                      or _STORE_TIMES_S)
        elif args.command == "bell":
            cmd_bell(cfg, writer, _comma_list(
                args.storage_times_s, "--storage-times-s") or _BELL_TIMES_S)
        elif args.command == "g13":
            cmd_g13(cfg, writer,
                    _comma_list(args.times_s, "--times-s") or _G13_TIMES_S)
        elif cmd_reproduce_all(cfg, writer)["failed"]:
            code = EXIT_CHECKS
        writer.write_manifest(cfg, outputs.sha256_text(
            config.canonical_text(cfg)))
        return code
    except InputError as exc:
        print(f"qisim: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as exc:
        print(f"qisim: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:
        # the output directory cannot be made or written to; no
        # manifest is written
        print(f"qisim: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
