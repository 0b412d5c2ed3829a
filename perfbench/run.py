"""Run one benchmark workload in-process and print its metrics.

    python3 perfbench/run.py --workload fiber-gv --seed 1 --seconds 30 --trace 0

Imports ``enrq`` from ``src/`` of the checkout that holds this file, sets the
workload up from the seed, then runs jobs one after another (a closed loop,
one thread) until the next job would end past ``--seconds``.  Every job's
outputs are verified outside the timed region.  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` the layers are wrapped from outside and it holds the per-layer
metrics instead.  Lines before it print every figure by name and unit.  The
full record, with the backends, goes to ``.perfbench-work/results/`` and a
traced run's spans to ``.perfbench-work/spans/``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 7
CACHE_PROBE_SHARE = 1 / 6  # of --seconds, outside cli-session


def check_sources():
    """Exit with an error unless this checkout has enrq's sources in ``src/``."""
    if not (ROOT / "src" / "enrq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no enrq sources under {ROOT / 'src'}")


def compile_sources():
    """Byte-compile enrq and perfbench in a child process.

    Fresh interpreters then load .pyc files, as an installed package does;
    under PYTHONDONTWRITEBYTECODE each would otherwise compile the sources.
    In a child, the compiler stays out of this process's peak_rss_mb.
    """
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "enrq"), str(HERE)],
                   cwd=ROOT, check=True, timeout=120)


def import_enrq():
    """Import enrq from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import enrq

    if Path(enrq.__file__).resolve().parent != (src / "enrq").resolve():
        sys.exit(f"perfbench: enrq was imported from {enrq.__file__}, not from {src}")
    return enrq


def provenance(enrq):
    return {
        "kernel_backend": enrq.KERNEL_BACKEND,
        "rational_backend": enrq.ring.RATIONAL_BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_setup(workload, seed):
    """Median set-up time over fresh interpreters.

    Each child times itself from just before it imports enrq to the end of
    the workload's set-up, so process creation and exit stay out of it.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return median(times), times


def percentile_summary(samples):
    """n, median, and the highest of p90/p99/p99.9 with ten samples beyond it."""
    out = {"n": len(samples), "p50": median(samples), "pct": None, "pct_value": None}
    ordered = sorted(samples)
    for p in (90, 99, 99.9):
        if len(samples) * (100 - p) / 100 >= 10:
            out["pct"] = p
            out["pct_value"] = ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
    return out


def run(args):
    check_sources()
    if not args.setup_only:
        compile_sources()
    t0 = time.perf_counter()
    enrq = import_enrq()
    from workloads import CHEAP_CHECKS, WORKLOADS, CacheProbe, CliSession

    WORK.mkdir(exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            WORKLOADS[args.workload]().setup(args.seed, tmp)
            print(time.perf_counter() - t0)
        return 0
    from tracer import Tracer, per_layer_metrics

    setup_s, setup_samples = (None, []) if args.trace else measure_setup(args.workload, args.seed)
    wl = WORKLOADS[args.workload]()
    probe_s = 0 if isinstance(wl, CliSession) else args.seconds * CACHE_PROBE_SHARE
    tracer = Tracer() if args.trace else None
    jobs, samples, warm, extra = [], [], [], {}
    attempted = failed = 0
    failures = []

    def record(problems_by_op, label):
        nonlocal attempted, failed
        for op, problems in problems_by_op.items():
            attempted += 1
            if problems:
                failed += 1
                failures.append(f"{label} {op}: {'; '.join(problems)}")

    with tempfile.TemporaryDirectory(dir=WORK) as tmp, \
            (tracer.installed() if tracer else contextlib.nullcontext()):
        if tracer:
            tracer.job = "setup"
        wl.setup(args.seed, tmp)
        if tracer:
            tracer.job = None
        wl.prepare()
        probe = None
        if probe_s:
            # Every workload reports cache_hit_ms.  Outside cli-session it comes
            # from a probe whose warm expands run half before the first job
            # and half after the last, so that they span the run.
            session = CliSession()
            session.setup(args.seed, tmp)
            probe = CacheProbe(session)
            probe.run_for(probe_s / 2)
        start = time.perf_counter()
        while True:
            job_id = f"job{len(jobs)}"
            jobs.append(job_id)
            if tracer:
                tracer.job = job_id
            t0 = time.perf_counter()
            try:
                out = wl.job(tracer)
            except Exception:
                out = None
                err = traceback.format_exc(limit=3)
            samples.append(time.perf_counter() - t0)
            if tracer:
                tracer.job = None
            if out is None:
                record({"job": [err]}, job_id)
            else:
                record(wl.verify(out), job_id)
                counts = wl.census(out)
                extra[job_id] = {
                    "ring.coeff.int": counts["int"],
                    "ring.coeff.rational": counts["rational"],
                    "ring.coeff.linexpr": counts["linexpr"],
                    "perverse.unknown_cells": wl.unknown_cells(out),
                }
                if isinstance(wl, CliSession):
                    warm += wl.warm_latencies(out)
            # Drop this job's outputs before the next job runs, so that
            # peak_rss_mb does not depend on how many jobs fit in a run.
            out = None
            elapsed = time.perf_counter() - start
            if elapsed + median(samples) > args.seconds - probe_s:
                break
        if probe:
            probe.run_for(probe_s / 2)
            record({"cache-probe": probe.problems}, "probe")
            warm = probe.latencies

    job_stats = percentile_summary(samples)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(enrq),
        "job_s": job_stats,
        "job_samples": samples,
        "setup_samples": setup_samples,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures[:20],
    }
    if tracer:
        for job_id, seconds in zip(jobs, samples):
            extra.setdefault(job_id, {})["trace.job_s"] = seconds
        layer = tracer.metrics(jobs, CHEAP_CHECKS, extra)
        metrics = {n: {"value": layer[n], "unit": u} for n, u, _ in per_layer_metrics(CHEAP_CHECKS)}
        (WORK / "spans").mkdir(exist_ok=True)
        tracer.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "job_s": {"value": job_stats["p50"], "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "cache_hit_ms": {"value": median(warm) * 1000, "unit": "ms"},
        }
    result["metrics"] = metrics
    (WORK / "results").mkdir(exist_ok=True)
    path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    prov = result["provenance"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} kernel={prov['kernel_backend']} "
          f"rational={prov['rational_backend']} python={prov['python']} nproc={prov['nproc']}")
    pct = job_stats["pct"]
    tail = "" if pct is None else f" p{pct:g}={job_stats['pct_value']:.6g}"
    print(f"job_s n={job_stats['n']} p50={job_stats['p50']:.6g}{tail} s")
    print(f"fail_ratio {result['fail_ratio']:.6g} ({failed}/{attempted})")
    for line in failures[:20]:
        print(f"FAILED {line}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fiber-gv", "perverse-identity", "cli-session"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import enrq, set the workload up, print the seconds it took, exit")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
