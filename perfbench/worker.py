"""One pass over one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload probes --seed 1 --trace 0
    python3 perfbench/worker.py --workload probes --seed 1 --trace 1 --memory
    python3 perfbench/worker.py --setup-only

Only the standard library is loaded before `import curvex`, so the
monotonic clock reading taken right after that import, minus the
launcher's reading just before it started this process, is the set-up
time.  Right after the import the worker times the calibration task of
calib.py, and the pass times it again after every case, so the launcher
can scale set-up and case times to a reference speed of the machine.
The result is printed as one JSON line: the pass (with every operation's
checks, exact outputs and neighbouring calibration times), peak resident
memory, library versions and, for a traced pass, its spans; --memory
adds memory peaks to the spans, at the cost of tracing every allocation.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import warnings


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--memory", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import curvex  # noqa: F401  (the import is what set-up time measures)

    imported_at = time.monotonic()
    from calib import calibrate

    out = {"imported_at": imported_at, "cal_s": calibrate()}
    if not args.setup_only:
        import numpy
        import scipy
        from curvex.errors import PositivityWarning

        from cases import WORKLOADS, layer_metrics, run_pass
        from spans import Tracer

        # the hyperbolic acceptance cases clamp the quadratic profile near
        # the rim on purpose; the acceptance tests silence the same warning
        warnings.simplefilter("ignore", PositivityWarning)

        tracer = None
        if args.trace:
            tracer = Tracer(memory=args.memory)
            tracer.start()
        # tracemalloc would slow the calibration task itself, and the
        # memory pass's times are not used
        out["pass"] = run_pass(WORKLOADS[args.workload], args.seed, tracer,
                               None if args.memory else calibrate, out["cal_s"])
        if tracer is not None:
            tracer.stop()
            spans = tracer.finished()
            out["spans"] = spans
            out["layers"] = layer_metrics(spans)
        out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
