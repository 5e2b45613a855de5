"""End-to-end benchmark of locpacf.

    python3 perfbench/run.py --workload wavelet-estimate --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Each workload run sets up ``SETUP_REPEATS`` times, each time in a fresh op
server process (``opserver.py``) that imports ``locpacf`` from ``src/`` of
this checkout, with the OpenBLAS thread count pinned to the number of
usable cores; the last op server runs the timed phase.  This launcher
is the single client of a closed loop: it sends the next op only after the
previous reply and the check of its output.  It makes the inputs from the
seed, checks every output (``check.py``), and prints each metric with its
unit and sample count, then one JSON line with the result.

Times are reported at a reference host speed.  Between every two ops the
op server times a fixed calibration loop three times, and each op's
latency is scaled by ``CALIB_REF_S`` over the mean loop time around it.  On
a shared host whose speed drifts by tens of percent over minutes this
keeps runs comparable; the raw times are printed next to the scaled ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and traced, and reports the per-layer metrics per cycle of
the workload; the difference between the two is ``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import check
from workloads import MC_LAGS, MC_REPS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS = os.path.join(HERE, "refs")
BUDGET_S = 175.0  # a run must end within 180 s
SETUP_REPEATS = 3
# The op server's calibration loop time at the reference host speed (its
# median on the 2-core host where the benchmark was defined).  Times are
# reported at this speed: each op's latency is multiplied by
# CALIB_REF_S / (the mean of the loop times just before and after the op).
CALIB_REF_S = 0.0175

_TIMES = ("busy_s", "self_s")


class OpServerError(RuntimeError):
    pass


class OpServer:
    """Client of one op server process; every reply must arrive by ``deadline``."""

    def __init__(self, env: dict, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "opserver.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )
        try:
            self.hello = self._recv()
        except OpServerError:
            self.kill()
            raise

    def _recv(self) -> dict:
        left = self.deadline - perf_counter()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0.0))
        line = self.proc.stdout.readline() if ready else ""
        if not ready:
            raise OpServerError("op server timed out")
        if not line:
            try:
                why = f"exited with {self.proc.wait(timeout=10)}"
            except subprocess.TimeoutExpired:
                why = "closed its output"
            raise OpServerError(f"op server {why}")
        return json.loads(line)

    def request(self, req: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise OpServerError("op server exited") from None
        return self._recv()

    def calibrate(self) -> float:
        return self.request({"calibrate": True})["calib_s"]

    def close(self, spans_path: str | None = None) -> dict:
        reply = self.request({"exit": True, "spans_path": spans_path})
        self.proc.wait(timeout=max(self.deadline - perf_counter(), 1.0))
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_setup_command(server, argv) -> None:
    """Run a set-up command line (not an op); any failure aborts the run."""
    reply = server.request({"argv": argv, "op": -1})
    if reply["error"] is not None or reply["rc"] != 0:
        raise OpServerError(f"{' '.join(argv)} failed: {reply['error'] or reply['stderr']}")


def pinned_env() -> dict:
    """Environment with OpenBLAS using one thread per usable core."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def declared_units(kind) -> dict:
    """Name -> unit of the ``kind`` metrics ("end_to_end" or "per_layer")
    that BENCHMARK.json declares; the benchmark prints exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def load_references(workload, seed):
    """Decoded references for this run, or None where none were recorded."""
    if workload.name == "mc-rmse":
        refs = {}
        for fname in sorted(os.listdir(REFS)) if os.path.isdir(REFS) else []:
            if not fname.startswith("mc-rmse-seed"):
                continue
            arrs = check.load_arrays(os.path.join(REFS, fname))
            for study in workload.forms:
                for i, s in enumerate(arrs[f"{study}__op_seed"]):
                    refs[(study, int(s))] = [
                        {key: arrs[f"{study}__{key}"][i, j].item()
                         for key in ("rmse", "stderr", "replicates", "excluded")}
                        for j in range(arrs[f"{study}__rmse"].shape[1])
                    ]
        return refs
    path = os.path.join(REFS, f"{workload.name}-seed{seed}.npz.xz")
    if not os.path.exists(path):
        return None
    arrs = check.load_arrays(path)
    refs = {}
    for form in workload.forms:
        i = 0
        while f"{form}__{i}__dt" in arrs:
            refs.setdefault(form, []).append(
                check.decode_long({k.split("__")[2]: v for k, v in arrs.items()
                             if k.startswith(f"{form}__{i}__")})
            )
            i += 1
    return refs


def check_op(form, work, seed, k, refs):
    """Check one op's outputs; returns which check ran, the (point, lag)
    cells produced or scored, and the replicates used."""
    if form.kind == "rmse":
        rows = check.parse_rmse_csv(form.outputs(work)[0])
        ref = refs.get((form.study, seed + k)) if refs else None
        check.check_rmse(rows, ref, reps=MC_REPS, binwidth=form.binwidth, lags=MC_LAGS)
        used = rows[0]["replicates"]
        return ("reference" if ref else "invariant"), used * form.scored_per_replicate, used
    outs = [check.parse_long_csv(p) for p in form.outputs(work)]
    ref = refs.get(form.name) if refs else None
    for i, out in enumerate(outs):
        check.check_long_invariants(out, form.T, form.points, form.windowed)
        if ref is not None:
            check.check_long_reference(out, ref[i])
    return ("reference" if ref else "invariant"), sum(o.rows for o in outs), 0


class Ops:
    """Runs and checks ops on the current op server, keeping what the
    metrics need."""

    def __init__(self, workload, work, seed):
        self.workload, self.work, self.seed = workload, work, seed
        self.server = None
        self.refs = None
        self.calib = []  # mean calibration loop times, one between every two ops
        self.attempted = self.failed = 0
        self.checks = {"reference": 0, "invariant": 0}
        self.failures = []

    def run(self, form_name, k, trace=False):
        """One op; returns the reply with ``ok``, ``cells``, ``replicates``
        and ``scale`` (latency_s * scale is the latency at reference speed)."""
        form = self.workload.forms[form_name]
        for path in form.outputs(self.work):
            # an op that writes nothing must not be checked on an earlier op's file
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        reply = self.server.request(
            {"argv": form.argv(self.work, self.seed, k), "op": k, "trace": trace})
        self.calib.append(self.server.calibrate())
        reply["scale"] = 2 * CALIB_REF_S / (self.calib[-2] + self.calib[-1])
        self.attempted += 1
        reply["ok"], reply["cells"], reply["replicates"] = False, 0, 0
        if reply["error"] is not None or reply["rc"] != 0:
            why = reply["error"] or f"exit code {reply['rc']}: {reply['stderr'].strip()}"
        else:
            try:
                which, reply["cells"], reply["replicates"] = check_op(
                    form, self.work, self.seed, k, self.refs)
                self.checks[which] += 1
                reply["ok"] = True
                return reply
            except (check.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                why = f"check failed: {exc}"
        self.failed += 1
        self.failures.append(f"{form_name} op {k}: {why}")
        return reply


def set_up(ops, deadline):
    """One set-up in a fresh op server, which becomes ``ops.server``: the
    interpreter's imports, the inputs made from the seed, the references
    loaded, and one warm-up op of the workload's cheapest form with its
    lazy first-call work.  Returns the raw total and the three parts at
    reference speed, scaled by the median of the calibrations taken during
    the set-up."""
    server = ops.server = OpServer(pinned_env(), deadline)
    server.calibrate()  # the first one in a process carries numpy's first-call work
    calib = [server.calibrate()]
    t0 = perf_counter()
    for argv in ops.workload.inputs(ops.work, ops.seed):
        run_setup_command(server, argv)
    ops.refs = load_references(ops.workload, ops.seed)
    prepare = perf_counter() - t0
    calib.append(server.calibrate())
    ops.calib += calib
    warm = ops.run(ops.workload.warmup, 0)
    calib.append(ops.calib[-1])
    parts = (server.hello["import_s"], prepare, warm["latency_s"])
    scale = CALIB_REF_S / statistics.median(calib)
    return sum(parts), tuple(p * scale for p in parts)


def run_workload(workload, seed, seconds, trace, t_start):
    work = os.path.join(HERE, "_work", f"{workload.name}-{os.getpid()}")
    ops = Ops(workload, work, seed)
    try:
        os.makedirs(work, exist_ok=True)
        # set-up, several times, each in a fresh op server; the last one
        # runs the timed phase
        setups = []
        for _ in range(SETUP_REPEATS):
            if ops.server is not None:
                ops.server.close()
            setups.append(set_up(ops, t_start + BUDGET_S))
        server = ops.server

        cycles = []  # per cycle: list of (form, reply) for timed/traced ops
        untraced_wall = []
        k = 0
        t_loop = perf_counter()
        last = 0.0
        while not cycles or (perf_counter() - t_loop < seconds
                             and perf_counter() + 2 * last < t_start + BUDGET_S - 10):
            t_cycle, cycle, plain = perf_counter(), [], 0.0
            for form in workload.cycle:
                if trace:
                    order = (False, True) if len(cycles) % 2 == 0 else (True, False)
                    for traced in order:
                        reply = ops.run(form, k, trace=traced)
                        if traced:
                            cycle.append((form, reply))
                        else:
                            plain += reply["latency_s"] * reply["scale"]
                else:
                    cycle.append((form, ops.run(form, k)))
                k += 1
            cycles.append(cycle)
            untraced_wall.append(plain)
            last = perf_counter() - t_cycle
        loop_s = perf_counter() - t_loop
        spans_path = None
        if trace:
            os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
            spans_path = os.path.join(HERE, "traces", f"{workload.name}-seed{seed}.csv")
        peak = server.close(spans_path)["peak_rss_mb"]
    except BaseException:
        if ops.server is not None:
            ops.server.kill()
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    return {
        "ops": ops, "setups": setups, "cycles": cycles, "untraced_wall": untraced_wall,
        "calib_s": ops.calib,
        "loop_s": loop_s, "peak_rss_mb": peak, "hello": server.hello, "spans_path": spans_path,
    }


def end_to_end_metrics(workload, res):
    """The end-to-end metrics, at reference speed, and the lines that print
    them with their samples and their raw values."""
    setups = res["setups"]
    setup_raw = statistics.median(raw for raw, _ in setups)
    setup_s = statistics.median(sum(parts) for _, parts in setups)
    import_s, prepare_s, warmup_s = (statistics.median(p) for p in zip(*(p for _, p in setups)))
    by_form, raw_by_form = {}, {}
    cells = busy = raw_busy = 0.0
    for cycle in res["cycles"]:
        for form, reply in cycle:
            by_form.setdefault(form, []).append(reply["latency_s"] * reply["scale"])
            raw_by_form.setdefault(form, []).append(reply["latency_s"])
            cells += reply["cells"]
            busy += reply["latency_s"] * reply["scale"]
            raw_busy += reply["latency_s"]
    medians = {f: statistics.median(v) for f, v in by_form.items()}
    # the mean over op forms of each form's median latency: a plain median
    # of a mix of op sizes sits on the gap between two forms and jumps
    raw_p50 = statistics.fmean(statistics.median(v) for v in raw_by_form.values())
    n_ops = sum(len(v) for v in by_form.values())
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.fmean(medians.values()),
        "cells_per_s": cells / busy,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    ops = res["ops"]
    calib = res["calib_s"]
    lines = [
        f"host speed: calibration loop median {1e3 * statistics.median(calib):.2f} ms "
        f"(n={len(calib)}), reference {1e3 * CALIB_REF_S:.2f} ms; times below are at "
        "reference speed, raw values in brackets",
        f"setup_s {setup_s:.4f} s (n={len(setups)} set-ups, each in a fresh process; "
        f"medians: import {import_s:.3f} s, inputs and references {prepare_s:.3f} s, "
        f"warm-up op {warmup_s:.3f} s; raw {setup_raw:.4f} s; each: "
        + ", ".join(f"{sum(parts):.3f} s" for _, parts in setups) + ")",
        f"op_p50_s {metrics['op_p50_s']:.4f} s (n={n_ops} ops; raw {raw_p50:.4f} s; per form: "
        + ", ".join(f"{f} {medians[f]:.4f} s n={len(by_form[f])}" for f in by_form) + ")",
        f"cells_per_s {metrics['cells_per_s']:.1f} 1/s (n={n_ops} ops, {int(cells)} cells "
        f"in {busy:.3f} s of ops; raw {cells / raw_busy:.1f} 1/s)",
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (n=1 process)",
        f"failed_op_ratio {ops.failed / ops.attempted:.4f} (n={ops.attempted} ops, "
        f"{ops.failed} failed)",
    ]
    if workload.name == "mc-rmse":
        reps = sum(r["replicates"] for c in res["cycles"] for _, r in c)
        lines.append(f"replicates_per_s {reps / busy:.3f} 1/s (n={n_ops} ops, {reps} replicates)")
    return metrics, lines


def per_layer_metrics(res, names):
    """Per-layer metrics per cycle: times are means over the traced cycles at
    reference speed, counts come from the first cycle, where they repeat
    exactly."""
    cycles = res["cycles"]
    n = len(cycles)
    times, counts = {}, {}
    for ci, cycle in enumerate(cycles):
        for _, reply in cycle:
            tr = reply.get("trace", {"layers": {}, "counts": {}})
            for layer, st in tr["layers"].items():
                for stat in _TIMES:
                    if stat in st:
                        key = f"{layer}.{stat}"
                        times[key] = times.get(key, 0.0) + st[stat] * reply["scale"]
                if ci == 0:
                    counts[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0) + st["calls"]
            if ci == 0:
                for key, val in tr["counts"].items():
                    counts[key] = counts.get(key, 0) + val
    wall = sum(r["latency_s"] * r["scale"] for c in cycles for _, r in c)
    metrics = {}
    for name in names:
        if name.endswith(_TIMES):
            metrics[name] = times.get(name, 0.0) / n
        elif name == "simulate.excluded_ratio":
            reps = counts.get("simulate.replicates", 0)
            metrics[name] = counts.get("simulate.excluded", 0) / reps if reps else 0.0
        else:
            metrics[name] = counts.get(name, 0)
    metrics["trace.wall_s"] = wall / n
    metrics["trace.overhead_s"] = (wall - sum(res["untraced_wall"])) / n
    self_sum = sum(v for k, v in times.items() if k.endswith(".self_s")) / n
    lines = [
        f"per cycle at reference speed, n={n} traced cycles: traced wall {wall / n:.4f} s, untraced "
        f"{sum(res['untraced_wall']) / n:.4f} s, sum of layer self times {self_sum:.4f} s",
        f"spans written to {os.path.relpath(res['spans_path'], ROOT)}",
    ]
    for name, val in sorted(times.items(), key=lambda kv: -kv[1]):
        if name.endswith(".self_s") and val / n >= 1e-3:
            lines.append(f"  self {name[:-7]:<40} {val / n:9.4f} s  {100 * val / max(wall, 1e-12):5.1f}%")
    return metrics, lines


def run_one(name, seed, seconds, trace) -> int:
    t_start = perf_counter()
    workload = WORKLOADS[name]
    try:
        res = run_workload(workload, seed, seconds, trace, t_start)
    except OpServerError as exc:
        print(f"benchmark: {name}: {exc}", file=sys.stderr)
        return 3
    ops, hello = res["ops"], res["hello"]
    env = {
        "workload": name, "seed": seed, "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)), "python": hello["python"],
        "numpy": hello["numpy"], "scipy": hello["scipy"],
        "OPENBLAS_NUM_THREADS": pinned_env()["OPENBLAS_NUM_THREADS"],
        "blas_threads": hello["blas_threads"],
        "calib_median_s": round(statistics.median(res["calib_s"]), 6),
        "ops_attempted": ops.attempted, "cycles": len(res["cycles"]),
        "timed_ops": sum(len(c) for c in res["cycles"]), "loop_s": round(res["loop_s"], 3),
    }
    print("env " + json.dumps(env))
    print(f"checks: {ops.checks['reference']} against references, "
          f"{ops.checks['invariant']} by invariants only, {ops.failed} failed")
    for f in ops.failures[:10]:
        print(f"  FAILED {f}")
    if trace:
        units = declared_units("per_layer")
        metrics, lines = per_layer_metrics(res, units)
    else:
        units = declared_units("end_to_end")
        metrics, lines = end_to_end_metrics(workload, res)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    sys.stdout.flush()
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names)


if __name__ == "__main__":
    sys.exit(main())
