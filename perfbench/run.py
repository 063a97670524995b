"""Benchmark one workload of the flowsgd CLI.

    python3 perfbench/run.py --workload plan-torus --seed 1 --seconds 30 \
        --trace 0

A closed loop with one client: each operation calls
``flowsgd.cli.main(argv)`` in this process and waits for it, one after
another, until the next one would end past ``--seconds``.  Before each
operation the client sets up twice (imports ``flowsgd`` afresh from
``src/`` of the checkout this file sits in and writes the inputs generated
from ``--seed``, see ``workloads.py``).  Reference passes timed during
each operation measure the machine's current speed (see ``speed.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics from the
traced ones (see ``tracing.py``), plus the tracing overhead.  Every
operation is checked outside its timed interval: exit code 0, no exception
escaping ``main``, and stdout, stderr and output files byte-identical to
the first operation, whose outputs are checked in full once the loop ends.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import SAMPLE_INTERVAL_S, SpeedSampler, speed
from tracing import Tracer
from workloads import PROBES, WORKLOADS, CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so argv and stdout match
SETUPS_PER_OP = 2


@dataclass
class OpResult:
    rc: object
    error: Exception | None
    seconds: float
    stdout: str
    stderr: str
    traced: bool = False
    passes: list = field(default_factory=list)  # speed sampler pass times
    sampler_seconds: float = 0.0  # spent in the sampler's handler

    @property
    def program_seconds(self):
        """Wall time without the speed sampler's handler."""
        return self.seconds - self.sampler_seconds

    @property
    def ok(self):
        return self.error is None and self.rc == 0

    def describe(self):
        if self.error is not None:
            return f"exception {type(self.error).__name__}"
        return f"exit {self.rc}"


def load_flowsgd():
    """Import ``flowsgd`` afresh from this checkout's ``src/``."""
    if not (SRC / "flowsgd" / "__init__.py").is_file():
        raise ImportError(f"no flowsgd package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "flowsgd" or m.startswith("flowsgd.")]:
        del sys.modules[name]
    fs = importlib.import_module("flowsgd")
    importlib.import_module("flowsgd.cli")
    if Path(fs.__file__).resolve().parent != SRC / "flowsgd":
        raise ImportError(f"flowsgd imported from {fs.__file__}, not {SRC}")
    return fs


def run_op(fs, argv, tracer=None, op_id=None, sampler=None):
    """One CLI operation; only the ``main`` call is timed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        span = tracer.operation(op_id) if tracer is not None \
            else contextlib.nullcontext()
        if sampler is not None:
            stack.enter_context(sampler.sampling())
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr), span:
                rc = fs.cli.main(list(argv))
        except Exception as exc:  # counted as a failed operation
            error = exc
        seconds = time.perf_counter() - start
    result = OpResult(rc, error, seconds, stdout.getvalue(),
                      stderr.getvalue(), tracer is not None)
    if sampler is not None:
        result.passes = list(sampler.passes)
        result.sampler_seconds = sampler.seconds
    return result


def digest(result, out_dir):
    h = hashlib.sha256()
    for part in (result.describe(), result.stdout, result.stderr):
        h.update(part.encode() + b"\0")
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def set_up(workload, seed, work, tracer, rep):
    """Import the program afresh and write the seeded inputs.

    Returns the import, the argv fields and the seconds it took.
    """
    start = time.perf_counter()
    fs = load_flowsgd()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
            stack.enter_context(tracer.operation(f"setup{rep}", "setup"))
        graph, fields = workload.make_graph(fs, random.Random(seed))
        text = fs.serialize_topology(graph)
    (work / "topology.json").write_text(text)
    seconds = time.perf_counter() - start
    return fs, dict(fields, topology=str(work / "topology.json"),
                    out=str(work / "out")), seconds


def run_probes(fs, work):
    """Run each known-failure probe once; report exit code or exception."""
    out = {}
    for name, template in PROBES.items():
        argv = [a.format(out=str(work / name)) for a in template]
        out[name] = run_op(fs, argv).describe()
    return out


def measure(args):
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    sampler = SpeedSampler()

    out_dir, first_dir = work / "out", work / "first"

    # Set-ups are spread between the operations, so that their median
    # samples the machine over the whole run.
    ops, digests, setup_times = [], [], []
    loop_start = time.perf_counter()
    while True:
        if ops:
            median = statistics.median(op.seconds for op in ops)
            modes = {op.traced for op in ops}
            due = time.perf_counter() - loop_start + median > args.seconds
            if due and (not args.trace or len(modes) == 2):
                break
        for _ in range(SETUPS_PER_OP):
            fs, fields, seconds = set_up(workload, args.seed, work, tracer,
                                         len(setup_times))
            setup_times.append((seconds, len(ops)))
        argv = [a.format(**fields) for a in workload.argv]
        traced = bool(args.trace) and len(ops) % 2 == 1
        gc.collect()
        op = run_op(fs, argv, tracer if traced else None, len(ops), sampler)
        digests.append(digest(op, out_dir))
        op.stdout, op.stderr = "", op.stderr[-300:]  # keep memory flat
        ops.append(op)
        if len(ops) == 1 and out_dir.is_dir():
            os.replace(out_dir, first_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
    # The loop's wall time, set-ups and checks included, without the
    # speed sampler's handler, which is the harness's own.
    loop_seconds = time.perf_counter() - loop_start \
        - sum(op.sampler_seconds for op in ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = {i for i, op in enumerate(ops)
              if not op.ok or digests[i] != digests[0]}
    problems = [f"op {i}: {op.describe()}: {op.stderr.strip()}"
                for i, op in enumerate(ops) if not op.ok]
    problems += [f"op {i}: outputs differ from op 0"
                 for i, d in enumerate(digests) if d != digests[0]]
    try:
        graph = fs.parse_topology(Path(fields["topology"]).read_text())
        extra = workload.check(fs, graph, first_dir, fields)
    except (CheckError, OSError, ValueError, KeyError) as exc:
        # Every op whose outputs match op 0 fails the same check.
        problems.append(f"output check: {type(exc).__name__}: {exc}")
        failed, extra = set(range(len(ops))), {}

    return dict(workload=workload, ops=ops, setup_times=setup_times,
                peak_rss_mb=peak_rss_mb, loop_seconds=loop_seconds,
                problems=problems, failed=len(failed), extra=extra,
                digest=digests[0], tracer=tracer, work=work)


def reference_times(m):
    """Each operation's time at reference speed, and the run's speed."""
    ops = m["ops"]
    run_speed = speed([p for op in ops for p in op.passes])
    # An operation too short to be sampled takes the run's speed.
    return [op.program_seconds * (speed(op.passes) if op.passes
                                  else run_speed) for op in ops], run_speed


def setup_reference_times(m, run_speed):
    """Each set-up's time at the speed of the first second of the
    operation that follows it (set-ups are too short to be sampled)."""
    ops = m["ops"]
    first = round(1 / SAMPLE_INTERVAL_S)
    return [wall * (speed(ops[i].passes[:first]) if ops[i].passes
                    else run_speed) for wall, i in m["setup_times"]]


def end_to_end(m):
    """Contract metrics, plus the workload-specific ones printed beside
    them (``ops_failed_frac`` can be 0 and the simulated times repeat
    exactly, so they are reported but carry no bound).  Timed metrics are
    at reference machine speed (see ``speed.py``); the raw wall times are
    reported as ``*_wall_*``."""
    ops = m["ops"]
    times, run_speed = reference_times(m)
    setup_times = setup_reference_times(m, run_speed)
    # The loop at reference speed: operations and set-ups as above, the
    # rest (checks, clean-up) at the run's mean speed.
    setup_walls = [wall for wall, _ in m["setup_times"]]
    rest = m["loop_seconds"] - sum(op.program_seconds for op in ops) \
        - sum(setup_walls)
    loop_seconds = sum(times) + sum(setup_times) + rest * run_speed
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "ops_per_s": (len(ops) / loop_seconds, "1/s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }
    report = dict(metrics, ops_failed_frac=(m["failed"] / len(ops), "ratio"))
    extra = m["extra"]
    if "allreduce_sim_s" in extra:
        report["allreduce_sim_s"] = (extra["allreduce_sim_s"], "sim_s")
    if "sim_iter_s" in extra:
        report["sim_iter_s"] = (extra["sim_iter_s"], "sim_s")
        report["samples_per_s"] = (extra["samples"] * len(ops)
                                   / loop_seconds, "1/s")
    report.update({
        "setup_wall_s": (statistics.median(setup_walls), "s"),
        "op_wall_p50_s": (statistics.median(op.program_seconds
                                            for op in ops), "s"),
        "machine_speed": (run_speed, "ratio")})
    passes = sum(len(op.passes) for op in ops)
    notes = {"setup_s": f"median of {len(m['setup_times'])} set-ups",
             "op_p50_s": f"n={len(ops)}",
             "ops_per_s": f"{len(ops)} ops in {loop_seconds:.3f} s of the "
                          "loop, set-ups and checks included",
             "ops_failed_frac": f"{m['failed']} of {len(ops)}",
             "machine_speed": f"from {passes} reference passes"}
    return metrics, report, notes


def per_layer(m):
    tracer = m["tracer"]
    ops = m["ops"]
    traced = [i for i, op in enumerate(ops) if op.traced]
    times, _ = reference_times(m)
    untraced = [t for t, op in zip(times, ops) if not op.traced]
    setup_ids = [f"setup{r}" for r in range(len(m["setup_times"]))]
    metrics = tracer.per_layer(setup_ids, traced)
    for i in traced:
        m["problems"] += [f"op {i}: {problem}"
                          for problem in tracer.audit(i, ops[i].seconds)]
    overhead = statistics.median(times[i] for i in traced) \
        / statistics.median(untraced)
    report = dict(metrics, **{"trace.overhead": (overhead, "ratio")})
    notes = {"trace.overhead": f"traced / untraced op_p50_s, "
                               f"{len(traced)} traced and {len(untraced)} "
                               f"untraced ops, {len(tracer.spans)} spans"}
    unused = tracer.unused_sites()
    if unused:
        m["lines"].append("wrapped sites not called: " + ", ".join(unused))
    tracer.write(m["work"] / "spans.csv")
    return metrics, report, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one client, no extra threads
    os.chdir(ROOT)
    try:
        m = measure(args)
        m["lines"] = []
        metrics, report, notes = (per_layer if args.trace else end_to_end)(m)
    except (ImportError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = not m["problems"]
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{len(m['ops'])} ops, outputs sha256 {m['digest']}"]
    lines += [f"  {name:<44} {value:<12.6g} {unit:<6} "
              f"{notes.get(name, '')}".rstrip()
              for name, (value, unit) in report.items()]
    lines += [f"  {line}" for line in m["lines"]]
    lines += [f"  FAILED {problem}" for problem in m["problems"]]
    print("\n".join(lines))
    result = {"correct": correct, "attempted": len(m["ops"]),
              "failed": m["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (m["work"] / "report.json").write_text(json.dumps(dict(
        result, report={k: {"value": v, "unit": u}
                        for k, (v, u) in report.items()},
        lines=lines, digest=m["digest"],
        op_seconds=[op.seconds for op in m["ops"]]), indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
