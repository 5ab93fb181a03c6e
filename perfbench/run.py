"""curvex benchmark: fixed workloads timed end to end, plus a traced run
that breaks each workload down by module.

    python3 perfbench/run.py --workload series_ode --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1

Closed loop, one client: every pass over a workload runs in a fresh
interpreter (worker.py), cold, as the CLI and the acceptance tests run,
and the next pass starts when the previous one has ended.  Passes repeat
until --seconds is used up, at least one; each metric is the median over
the passes of the run, taken per case for wall_s.  wall_s and setup_s
are in seconds at a reference speed: each case's time is scaled by
CAL_REF_S over the time of the calibration task in calib.py, timed just
before and just after the case, and each set-up time likewise by the
task timed by the launcher just before the launch and by the worker just
after its import.  That takes out most of the swings in speed of a
machine shared with other tenants.  With --trace 1 every untraced pass
is followed by a traced one, and the run reports the per-layer metrics
instead: times and counts from the traced passes, which run without
memory tracing, and memory peaks from one more traced pass with
tracemalloc on.

Every operation is checked against its acceptance tolerance, and every
pass must reproduce the first pass's outputs bit for bit (traced passes
included).  An operation that raises, misses a tolerance or does not
reproduce counts as failed; nothing is retried.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The environment and every pass's per-case times and
spans go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import CAL_REF_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"

WORKLOADS = ("series_hermite", "series_auto", "series_ode", "probes")
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "share"),
    ("tol_use_max", "share"),
)
# One BLAS thread, whatever the core count: BLAS reductions then sum in
# the same order on every machine, so fits compare bit for bit, and a
# worker stays on one core.  On a 2-core machine the thread count made no
# difference that the machine's own noise resolved.
BLAS_THREADS = "1"
SETUP_RUNS = 3  # set-up-only launches per run, besides each pass's own
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def launch(env: dict, *args: str) -> dict:
    """Run one worker process to completion and return its JSON result,
    with set-up time measured from just before the process started."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    cal_before = calibrate()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["raw_setup_s"] = res["imported_at"] - t0
    res["setup_cal_s"] = (cal_before + res["cal_s"]) / 2
    res["setup_s"] = res["raw_setup_s"] * CAL_REF_S / res["setup_cal_s"]
    return res


def environment(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh
                 if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' when the
    checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def scaled_times(p: dict) -> dict[str, float]:
    """Each case's time in a pass, scaled to the reference speed."""
    return {op["name"]: op["wall_s"] * CAL_REF_S / op["cal_s"]
            for op in p["pass"]["ops"]}


def pass_time(passes: list[dict]) -> float:
    """The time of a typical pass: the sum over the cases of each case's
    median scaled time over the passes.  A burst of slowness hits one
    case in one pass, and the median over passes drops it."""
    times = [scaled_times(p) for p in passes]
    return sum(statistics.median(t[name] for t in times) for name in times[0])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes over one workload for `seconds`; returns the run's report."""
    if not (SRC / "curvex" / "__init__.py").is_file():
        raise BenchError(f"no curvex sources under {SRC}")
    env = child_env()
    launch(env, "--setup-only")  # fills the byte-code and file caches; unused
    setups = [launch(env, "--setup-only") for _ in range(SETUP_RUNS)]

    def one_pass(traced: bool, memory: bool = False) -> dict:
        extra = ("--memory",) if memory else ()
        return launch(env, "--workload", workload, "--seed", str(seed),
                      "--trace", str(int(traced)), *extra)

    plain, traced, memory = [], [], []
    start = time.monotonic()
    if trace:
        # the per-layer memory peaks, from one pass with tracemalloc on;
        # the other traced passes time the spans with it off
        memory.append(one_pass(True, memory=True))
    while True:
        p0 = time.monotonic()
        plain.append(one_pass(False))
        if trace:
            traced.append(one_pass(True))
        now = time.monotonic()
        if now - start + (now - p0) > seconds:
            break
    passes = plain + traced + memory
    setups += passes

    # every pass must reproduce the first one's outputs exactly
    reference = {op["name"]: op["outputs"] for op in plain[0]["pass"]["ops"]}
    attempted = failed = 0
    uses = []
    for p in passes:
        for op in p["pass"]["ops"]:
            op["reproduced"] = op["outputs"] == reference[op["name"]]
            attempted += 1
            if op["ok"] and op["reproduced"]:
                uses += [c["use"] for c in op["checks"] if c["use"] is not None]
            else:
                failed += 1

    counts_repeat = True
    if trace:
        layers = [p["layers"] for p in traced + memory]
        counts_repeat = all(
            lay[k]["value"] == layers[0][k]["value"]
            for lay in layers for k in lay if lay[k]["unit"] == "count"
        )
        timed = [p["layers"] for p in traced]
        metrics = {
            k: {
                "value": memory[0]["layers"][k]["value"] if v["unit"] == "MB"
                else statistics.median(lay[k]["value"] for lay in timed),
                "unit": v["unit"],
            }
            for k, v in timed[0].items()
        }
        metrics["bench.trace_overhead_s"] = {
            "value": pass_time(traced) - pass_time(plain),
            "unit": "s",
        }
    else:
        plain_ops = [op for p in plain for op in p["pass"]["ops"]]
        values = {
            "wall_s": pass_time(plain),
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "pass_frac": sum(op["ok"] and op["reproduced"] for op in plain_ops)
            / len(plain_ops),
            "tol_use_max": max(uses, default=0.0),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    report = {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(plain[0]["versions"]),
        "report": report,
        "counts_repeat": counts_repeat,
        "cal_ref_s": CAL_REF_S,
        "setups": [{k: p[k] for k in ("raw_setup_s", "setup_cal_s", "setup_s")}
                   for p in setups],
        "passes": [
            {
                "kind": kind,
                "raw_wall_s": p["pass"]["wall_s"],
                "wall_s": None if kind == "memory" else sum(scaled_times(p).values()),
                "cpu_s": p["pass"]["cpu_s"],
                "peak_rss_mb": p["peak_rss_mb"],
                "ops": [
                    {k: op[k] for k in ("name", "wall_s", "cpu_s", "cal_s", "ok",
                                        "reproduced", "error", "checks")}
                    for op in p["pass"]["ops"]
                ],
            }
            for kind, group in (("plain", plain), ("traced", traced),
                                ("memory", memory))
            for p in group
        ],
        "spans": traced[0]["spans"] if traced else [],
        "memory_spans": memory[0]["spans"] if memory else [],
    }
    out = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(detail, indent=1))
    print(f"environment {json.dumps(detail['environment'])}; details in {out}")
    print("unscaled medians: wall_s %.4g s, setup_s %.4g s, calibration %.4g s"
          % (statistics.median(p["pass"]["wall_s"] for p in plain),
             statistics.median(p["raw_setup_s"] for p in setups),
             statistics.median(op["cal_s"] for p in plain
                               for op in p["pass"]["ops"])))
    return report


def print_metrics(prefix: str, report: dict) -> None:
    for name, m in report["metrics"].items():
        print(f"{prefix + name:44s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if args.workload != "all":
            report = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
            print_metrics("", report)
        else:
            # every workload untraced, and traced too with --trace 1
            report = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            modes = (False, True) if args.trace else (False,)
            for w in WORKLOADS:
                for traced in modes:
                    rep = measure(w, args.seed, args.seconds, traced)
                    print_metrics(f"{w} ", rep)
                    report["correct"] &= rep["correct"]
                    report["attempted"] += rep["attempted"]
                    report["failed"] += rep["failed"]
                    report["metrics"].update(
                        {f"{w}.{k}": v for k, v in rep["metrics"].items()}
                    )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
