"""Run every workload, report spreads, per-layer metrics and probes.

    python3 perfbench/suite.py                  # one run per workload
    python3 perfbench/suite.py --runs 10 --record baseline.json

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``.  For
each workload this makes ``--runs`` untraced runs with seeds
``--first-seed``, ``--first-seed + 1``, ..., each in its own process via
``run.py``, and prints every end-to-end metric's median, quartiles and
spread (quartile distance over median) next to the bound in
``BENCHMARK.json``.  It then makes one traced run per workload and prints
the per-layer metrics, and runs the known-failure probes once.
``--record`` writes all of it, with the Python and numpy versions, the
CPU count and the load average at start, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
NAMES = [w["name"] for w in BENCHMARK["workloads"]]
RUN_TIMEOUT = 180


def run_workload(name, seed, trace):
    """One run.py process; returns its report.json, or None on failure."""
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT)
    print(proc.stdout.rsplit("\n", 2)[0])
    if proc.returncode != 0:
        print(f"  exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    return json.loads((run.ROOT / run.WORK / name / "report.json").read_text())


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def environment():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg_at_start": os.getloadavg()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", help="write the results as JSON here")
    args = parser.parse_args(argv)
    env = environment()
    print(f"environment: {json.dumps(env)}")
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    record = {"environment": env, "seconds": SECONDS,
              "runs": args.runs, "first_seed": args.first_seed,
              "workloads": {}}
    ok = True
    for name in NAMES:
        reports = []
        for i in range(args.runs):
            report = run_workload(name, args.first_seed + i, 0)
            ok &= report is not None and report["correct"]
            if report is not None:
                reports.append(report)
        entry = record["workloads"][name] = {
            "argv": " ".join(run.WORKLOADS[name].argv), "end_to_end": {}}
        if not reports:
            continue
        print(f"{name}: {len(reports)} runs")
        for metric, first in reports[0]["report"].items():
            s = summarize([r["report"][metric]["value"] for r in reports])
            s["unit"] = first["unit"]
            entry["end_to_end"][metric] = s
            bound = bounds.get(metric)
            flag = "" if bound is None else \
                f"  bound {bound}" + ("  SPREAD OVER BOUND/3"
                                      if s["spread"] > bound / 3 else "")
            print(f"  {metric:<16} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f} {s['unit']}{flag}")
    for name in NAMES:
        report = run_workload(name, args.first_seed, 1)
        ok &= report is not None and report["correct"]
        if report is not None:
            print("\n".join(report["lines"][1:]))
            record["workloads"][name]["per_layer"] = {
                k: v["value"] for k, v in report["report"].items()}
    fs = run.load_flowsgd()
    record["probes"] = run.run_probes(fs, run.ROOT / run.WORK / "probes")
    for probe, outcome in record["probes"].items():
        print(f"{probe}: {outcome}")
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
