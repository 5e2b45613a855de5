"""The benchmark's workloads: inputs made from the workload seed, and op forms.

Every op is one ``locpacf`` command line run in-process.  A workload runs
its ``cycle`` of op forms over and over in a closed loop with one client.
Why each workload exists, and which layers it exercises and bypasses, is
in NOTES.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

MAX_LAG = 4
MC_LAGS = 2
MC_REPS = 20
SWEEP_WIDTHS = (4096, 512, 64)
PIECEWISE_2560 = "850:-0.2;860:0.5,0.2;850:-0.2"


@dataclass(frozen=True)
class OpForm:
    """One kind of op.

    ``argv(work, seed, k)`` builds the command line of op number k of a run
    with workload seed ``seed``; ``outputs(work)`` names the files it writes.
    ``kind`` is "long" (long-format estimate CSVs) or "rmse".  For "long"
    forms, ``T`` is the input length, ``points`` the inclusive range of
    point counts per output and ``windowed`` whether CI fields are present.
    For "rmse" forms, ``scored_per_replicate`` is the (point, lag) cells a
    replicate scores: interior points (T - L + 1) times the lags.
    """

    name: str
    kind: str
    argv: Callable[[str, int, int], list]
    outputs: Callable[[str], list]
    T: int = 0
    points: tuple = (0, 0)
    windowed: bool = False
    study: str = ""
    binwidth: int = 0
    scored_per_replicate: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[str, int], list]  # (work, seed) -> simulate command lines
    forms: dict
    cycle: tuple  # form names of one cycle
    warmup: str  # form run once during set-up


def _p(work, name):
    return os.path.join(work, name)


def _tvar(work, seed, T):
    return ["simulate", "tvar", "--T", str(T), "--seed", str(seed), "--output", _p(work, f"tvar{T}.txt")]


def _wavelet_form(name, inp, T, pad=False):
    def argv(work, seed, k):
        a = ["estimate", "--method", "wavelet", "--max-lag", str(MAX_LAG),
             "--input", _p(work, inp), "--output", _p(work, f"{name}.csv")]
        return a + ["--pad"] if pad else a

    # the last max_lag points have no forecast entries; numerical failures
    # may drop at most 1% more
    n = T - MAX_LAG
    return OpForm(name, "long", argv, lambda work: [_p(work, f"{name}.csv")], T=T,
                  points=(n - n // 100, n))


WAVELET = Workload(
    name="wavelet-estimate",
    why="wavelet plug-in estimates at T=4096, 1024 and padded 2560; the per-point solve loop dominates",
    inputs=lambda work, seed: [
        _tvar(work, seed, 4096),
        _tvar(work, seed, 1024),
        ["simulate", "piecewise-ar", "--segments", PIECEWISE_2560, "--seed", str(seed),
         "--output", _p(work, "pw2560.txt")],
    ],
    forms={
        f.name: f
        for f in (
            _wavelet_form("tvar4096", "tvar4096.txt", 4096),
            _wavelet_form("tvar1024", "tvar1024.txt", 1024),
            _wavelet_form("pw2560-pad", "pw2560.txt", 2560, pad=True),
        )
    },
    cycle=("tvar4096", "tvar1024", "pw2560-pad"),
    warmup="tvar1024",
)


def _sweep_form(kernel):
    name = f"sweep-{kernel}"

    def argv(work, seed, k):
        return ["sweep-bandwidth", "--widths", ",".join(map(str, SWEEP_WIDTHS)),
                "--kernel", kernel, "--input", _p(work, "tvar32768.txt"),
                "--output", _p(work, f"{name}.csv")]

    return OpForm(name, "long", argv,
                  lambda work: [_p(work, f"{name}_L{L}.csv") for L in SWEEP_WIDTHS],
                  T=32768, points=(32768, 32768), windowed=True)


def _stride_argv(work, seed, k):
    return ["estimate", "--method", "windowed", "--stride", "64",
            "--input", _p(work, "tvar32768.txt"), "--output", _p(work, "stride.csv")]


SWEEP = Workload(
    name="windowed-sweep",
    why="windowed estimates at T=32768: 3-width sweeps writing 393k CSV rows, and stride-64 estimates",
    inputs=lambda work, seed: [_tvar(work, seed, 32768)],
    forms={
        f.name: f
        for f in (
            _sweep_form("epanechnikov"),
            _sweep_form("rectangular"),
            OpForm("stride", "long", _stride_argv, lambda work: [_p(work, "stride.csv")],
                   T=32768, points=(512, 512), windowed=True),
        )
    },
    cycle=("sweep-epanechnikov", "stride", "sweep-rectangular", "stride"),
    warmup="stride",
)


def _mc_form(study, binwidth, T):
    def argv(work, seed, k):
        return ["benchmark", "--study", study, "--method", "windowed",
                "--binwidth", str(binwidth), "--max-lag", str(MC_LAGS),
                "--reps", str(MC_REPS), "--seed", str(seed + k),
                "--output", _p(work, f"rmse-{study}.csv")]

    return OpForm(study, "rmse", argv, lambda work: [_p(work, f"rmse-{study}.csv")],
                  study=study, binwidth=binwidth,
                  scored_per_replicate=(T - binwidth + 1) * MC_LAGS)


MC = Workload(
    name="mc-rmse",
    why="Monte-Carlo RMSE studies of 20 replicates; simulation, stability checks and the truth oracle dominate",
    inputs=lambda work, seed: [],
    forms={f.name: f for f in (_mc_form("tvar", 40, 512), _mc_form("piecewise-ar", 48, 256))},
    cycle=("tvar", "piecewise-ar"),
    warmup="piecewise-ar",
)

WORKLOADS = {w.name: w for w in (WAVELET, SWEEP, MC)}
