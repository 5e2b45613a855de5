"""Record the output references the benchmark checks ops against.

    python3 perfbench/record_refs.py --seed 0 --seed 1000

For each seed and workload this makes the inputs, runs every op form once
through the op server (mc-rmse: both studies for op seeds seed ..
seed+MC_REF_OPS-1), and writes ``refs/<workload>-seed<seed>.npz.xz``.
Run it only on a commit whose outputs are known good: the references are
the definition of a correct output for every later commit.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from time import perf_counter

import numpy as np

import check
from run import HERE, REFS, OpServer, pinned_env, run_setup_command
from workloads import MC_LAGS, MC_REPS, WORKLOADS

MC_REF_OPS = 128
BUDGET_S = 3600.0


def record(workload, seed) -> str:
    work = os.path.join(HERE, "_work", f"record-{workload.name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    server = OpServer(pinned_env(), perf_counter() + BUDGET_S)
    arrays = {}
    try:
        for argv in workload.inputs(work, seed):
            run_setup_command(server, argv)
        for name, form in workload.forms.items():
            if form.kind == "rmse":
                rows = []
                for op_seed in range(seed, seed + MC_REF_OPS):
                    run_setup_command(server, form.argv(work, op_seed, 0))
                    got = check.parse_rmse_csv(form.outputs(work)[0])
                    check.check_rmse(got, None, reps=MC_REPS, binwidth=form.binwidth, lags=MC_LAGS)
                    rows.append(got)
                arrays[f"{name}__op_seed"] = np.arange(seed, seed + MC_REF_OPS)
                for key, dtype in (("rmse", float), ("stderr", float),
                                   ("replicates", np.int32), ("excluded", np.int32)):
                    arrays[f"{name}__{key}"] = np.array(
                        [[r[key] for r in got] for got in rows], dtype=dtype)
                continue
            run_setup_command(server, form.argv(work, seed, 0))
            for i, path in enumerate(form.outputs(work)):
                out = check.parse_long_csv(path)
                check.check_long_invariants(out, form.T, form.points, form.windowed)
                enc = check.encode_long(out)
                ref = check.decode_long(enc)
                check.check_long_reference(out, ref)  # the encoding round-trips
                for key, val in enc.items():
                    arrays[f"{name}__{i}__{key}"] = val
        server.close()
    except BaseException:
        server.kill()
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    os.makedirs(REFS, exist_ok=True)
    path = os.path.join(REFS, f"{workload.name}-seed{seed}.npz.xz")
    check.save_arrays(path, arrays)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, action="append", required=True)
    args = ap.parse_args(argv)
    for seed in args.seed:
        for name in WORKLOADS:
            t0 = perf_counter()
            path = record(WORKLOADS[name], seed)
            print(f"{os.path.relpath(path)}: {os.path.getsize(path)} bytes, "
                  f"{perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
