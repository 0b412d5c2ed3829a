"""Run every workload untraced and traced, print all figures, compare reports.

    python3 perfbench/report.py [--seconds 30] [--seed 1] [--out report.json]
    python3 perfbench/report.py --compare BEFORE.json AFTER.json

The first form prints, per workload, every end-to-end metric by name and
unit, ``fail_ratio``, the backends, the per-layer metrics of the traced run
and the tracing overhead (traced ``job_s`` minus untraced ``job_s``), and
writes the whole report as JSON.  The second compares two such reports metric
by metric against the bounds in ``BENCHMARK.json``; workloads measured on
different backends, Python versions or core counts are reported as not
comparable.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("fiber-gv", "perverse-identity", "cli-session")


def run_one(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=600)
    path = WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def build_report(seed, seconds):
    report = {}
    for w in WORKLOADS:
        plain = run_one(w, seed, seconds, 0)
        traced = run_one(w, seed, seconds, 1)
        report[w] = {
            "provenance": plain["provenance"],
            "end_to_end": plain["metrics"],
            "job_s": plain["job_s"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "fail_ratio": plain["fail_ratio"],
            "failures": plain["failures"] + traced["failures"],
            "per_layer": traced["metrics"],
            "tracing_overhead_s": traced["job_s"]["p50"] - plain["job_s"]["p50"],
        }
    return report


def print_report(report):
    for w, r in report.items():
        prov = r["provenance"]
        print(f"== {w}  kernel={prov['kernel_backend']} rational={prov['rational_backend']} "
              f"python={prov['python']} nproc={prov['nproc']}")
        for name, m in r["end_to_end"].items():
            print(f"  {name:<14} {m['value']:>12.6g} {m['unit']}")
        print(f"  {'fail_ratio':<14} {r['fail_ratio']:>12.6g} 1  ({r['failed']}/{r['attempted']})")
        stats = r["job_s"]
        pct = "" if stats["pct"] is None else f", p{stats['pct']:g} {stats['pct_value']:.6g} s"
        print(f"  job_s samples: n={stats['n']}{pct}")
        print(f"  tracing overhead: {r['tracing_overhead_s']:+.6g} s per job")
        for line in r["failures"]:
            print(f"  FAILED {line}")
        for name, m in r["per_layer"].items():
            if m["value"]:
                print(f"    {name:<40} {m['value']:>14.6g} {m['unit']}")


def comparable(a, b):
    return a["provenance"] == b["provenance"]


def compare(before, after, bounds):
    """Rows (workload, metric, verdict, relative change) for two reports."""
    rows = []
    for w in before:
        if w not in after:
            continue
        if not comparable(before[w], after[w]):
            rows.append((w, "*", "not comparable", None))
            continue
        for name, (bound, better) in bounds.items():
            a = before[w]["end_to_end"][name]["value"]
            b = after[w]["end_to_end"][name]["value"]
            change = b / a - 1
            worse = change if better == "lower" else -change
            verdict = ("worse than bound" if worse > bound
                       else "better than bound" if worse < -bound else "within bound")
            rows.append((w, name, verdict, change))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", default=str(WORK / "report.json"))
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
        before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        for w, name, verdict, change in compare(before, after, bounds):
            tail = "" if change is None else f" {change:+.2%}"
            print(f"{w:<18} {name:<14} {verdict}{tail}")
        return 0
    report = build_report(args.seed, args.seconds)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print_report(report)
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
