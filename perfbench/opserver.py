"""Op server: the process that runs locpacf for one benchmark workload.

It imports ``locpacf`` from ``<checkout>/src`` and then answers one JSON
request per line on stdin with one JSON reply per line on stdout.  A
request ``{"argv": [...], "op": k, "trace": bool}`` runs
``locpacf.cli.main(argv)`` in-process with its stdout and stderr captured
and replies with the latency, the exit code or the exception, and, when
traced, the layer summary of that op.  ``{"calibrate": true}`` times a
fixed loop that does not touch locpacf (``calibration_loop``)
``CALIB_LOOPS`` times and replies with the mean.
``{"exit": true}`` writes the spans (if any) and replies with the peak
resident memory before exiting.

The launcher in ``run.py`` starts one op server per workload run, so each
run has a fresh interpreter and this process holds only the program under
test; references and output checks live in the launcher.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from time import perf_counter

T_START = perf_counter()
# a single loop time varies by up to 20% from one loop to the next
CALIB_LOOPS = 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MB.

    It is read from VmHWM rather than ``ru_maxrss``: Linux carries
    ``ru_maxrss`` over from the parent across exec, so it would report the
    launcher's memory (with its decoded references) when that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of interpreter loops, small numpy calls
    and vectorised numpy work: 11 to 20 ms on a shared 2-core x86-64 host,
    depending on what the other tenants do.

    The mix resembles what the locpacf ops spend their time on, so the
    launcher can scale op times by it to cancel the host's speed drift.
    It must never change: every time the benchmark reports is defined
    through it.
    """
    import numpy as np

    t0 = perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i * 0.5) % 7.0
    a = np.eye(4) * 3.0 + 0.1
    b = np.ones(4)
    for i in range(300):
        np.roots([1.0, -0.5 * i / 300])
        np.linalg.solve(a, b)
    x = np.arange(200000.0)
    float((x * x).sum())
    return perf_counter() - t0


def _run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    latency = perf_counter() - t0
    return {"latency_s": latency, "rc": rc, "error": error, "stderr": err.getvalue()[-500:]}


def main() -> int:
    proto = sys.stdout
    sys.path.insert(0, SRC)
    try:
        import numpy
        import scipy

        import locpacf
        import locpacf.cli as cli
    except ImportError as exc:
        print(f"opserver: cannot import locpacf from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(locpacf.__file__).startswith(SRC + os.sep):
        print(f"opserver: locpacf imported from {locpacf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = perf_counter() - T_START

    from tracing import Tracer

    tracer = None
    hello = {
        "import_s": import_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }
    proto.write(json.dumps(hello) + "\n")
    proto.flush()
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("exit"):
            if tracer is not None and req.get("spans_path"):
                with open(req["spans_path"], "w", encoding="utf-8") as fh:
                    fh.write("name,start,end,parent,op\n")
                    for name, start, end, parent, op in tracer.spans:
                        fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")
            proto.write(json.dumps({"peak_rss_mb": _peak_rss_mb()}) + "\n")
            proto.flush()
            return 0
        if req.get("calibrate"):
            calib_s = sum(calibration_loop() for _ in range(CALIB_LOOPS)) / CALIB_LOOPS
            proto.write(json.dumps({"calib_s": calib_s}) + "\n")
            proto.flush()
            continue
        traced = bool(req.get("trace"))
        if traced:
            if tracer is None:
                tracer = Tracer()
            tracer.install()
            tracer.begin_op(req.get("op"))
        try:
            reply = _run_op(cli, req["argv"])
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            reply["trace"] = tracer.end_op()
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
