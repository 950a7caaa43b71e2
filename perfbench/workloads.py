"""The benchmark's workloads: which qisim CLI invocations make one pass.

A pass is one execution of a workload's command list, each command a
fresh ``python -m qisim.cli`` process.  ``commands(name, seed)`` returns
that list.  The seed only picks sweep values inside the paper's ranges
at a fixed work size; ``DEFAULT_SEED`` gives the inputs the workloads
were designed around, and those are the inputs the stored references
describe.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# reproduce-all fails exactly these reference checks by design (the C4
# memory-bandwidth criterion); any other failed set is a wrong result.
C4_FAILED_CHECKS = frozenset(
    {"eit_window_fwhm", "eit_group_delay", "eit_dbp", "eit_vg"})

# Stored-light window targets below about 2.45 MHz make the gamma_s fit
# land on the window-collapse discontinuity (ROADMAP open item 4), which
# the CLI reports as exit 3.  The sweep stays above it so that no
# operation fails; the defect is tracked by the roadmap, not here.
FIT_TARGET_HZ = (2.5e6, 2.9e6)
STORAGE_TIME_S = (0.0, 2e-6)
# a few bandwidths, so references cover every one the seed can pick
# 8 cycles of 4 commands: with 20 invocations per pass the per-run
# median latency spread 9-12% between runs on a 2-vCPU VM; 32 brought
# it to about 7%
SHORT_CYCLES = 8
PUMP_SIGMAS_HZ = (3.7e6, 5e6, 6.25e6, 7.5e6, 8.75e6, 10e6, 11.25e6, 12.5e6)

WHY = {
    "reproduce_all":
        "The paper's full artifact set plus its reference checks; touches "
        "every layer, emission is about 60% of it.",
    "storage_timedist":
        "One 1536^2 density written as a 137 MB CSV: emission is about 90% "
        "and the only workload whose memory grows with output size.",
    "kernel_stress":
        "CSV-only C3-size factored time_domain plus an n_freq 2048 dense "
        "visibility: physics kernels dominate, emission does not.",
    "short_commands":
        "32 small eit/store/bell/g13 invocations: import and config set-up "
        "dominate, and the EIT fit and qubit layer run from CLI flags.",
}
NAMES = tuple(WHY)


@dataclass(frozen=True)
class Invocation:
    """One CLI command: its arguments (without ``--out``) and the exit
    code that counts as a correct outcome."""

    args: tuple
    expect_exit: int = 0

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def key(self) -> str:
        """Identifies the inputs; equal keys must give equal artifacts."""
        return " ".join(self.args)


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _storage_times(rng: random.Random) -> str:
    lo, hi = STORAGE_TIME_S
    picks = sorted(rng.uniform(lo, hi) for _ in range(2))
    return ",".join(["0"] + [_fmt(t) for t in picks])


def dense_visibility(sigma_hz: float, tiny: bool = False) -> Invocation:
    """kernel_stress's visibility call: one bandwidth, n_freq 2048."""
    return Invocation(("visibility", "--set", "output.formats=csv",
                       "--set", f"grids.n_freq={256 if tiny else 2048}",
                       "--sigma-hz", _fmt(sigma_hz), "--tp-s="))


def commands(name: str, seed: int = DEFAULT_SEED, tiny: bool = False) -> list:
    """The invocations of one pass of workload ``name``.

    ``tiny`` shrinks grids and the short-command count so the benchmark's
    own tests can run every workload in seconds; it is never timed.
    """
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(seed)
    small = ("--set", "grids.n_freq=128", "--set", "grids.n_time=64")
    if name == "reproduce_all":
        return [Invocation(("reproduce-all",) + (small if tiny else ()),
                           expect_exit=4)]
    if name == "storage_timedist":
        return [Invocation(("timedist", "--with-storage", "eit")
                           + (small if tiny else ()))]
    if name == "kernel_stress":
        sigma = 12.5e6 if seed == DEFAULT_SEED else rng.choice(PUMP_SIGMAS_HZ)
        return [Invocation(("timedist", "--set", "output.formats=csv",
                            "--set", "source.pump_kind=flat_limit",
                            "--set", f"grids.n_freq={4096 if tiny else 262144}")),
                dense_visibility(sigma, tiny)]
    # short_commands: the same four commands repeated, so every pass also
    # shows whether repeated invocations write identical artifacts
    if seed == DEFAULT_SEED:
        target, store_times, bell_times = 2.9e6, "0,2e-07,1e-06", "0,2e-07,1e-06"
    else:
        target = rng.uniform(*FIT_TARGET_HZ)
        store_times, bell_times = _storage_times(rng), _storage_times(rng)
    cycle = [
        Invocation(("eit", "--fit-gamma-s", _fmt(target))),
        Invocation(("store", "--storage-times-s", store_times)),
        Invocation(("bell", "--storage-times-s", bell_times)),
        Invocation(("g13",)),
    ]
    return cycle * (1 if tiny else SHORT_CYCLES)
