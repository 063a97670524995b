"""Check that the sampled machine speed does not follow the program's footprint.

    python3 perfbench/footprint_check.py

Runs the ``plan-torus`` operation OPS_PER_ARM times in each of two arms,
alternating: as it is, and with a ballast.  In the ballast arm, every call
of ``flowsgd.graph_core.max_flow_min_cut`` first reads one byte of each
cache line of a 16 MB buffer, as a program with a larger working set
would; that evicts the core's caches between the speed sampler's passes.
The operation slows down, but the machine does not: the speed sampled
during the operations (see ``speed.py``) should stay put.  The check
passes when the two arms' median speeds differ by less than a fifth of
the slowdown, so that rescaling hides at most a fifth of a change that
comes only from the footprint.  Exit code 0 when it passes.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import sys

import run
from speed import SpeedSampler, speed
from workloads import WORKLOADS

WORKLOAD = "plan-torus"
OPS_PER_ARM = 10
BALLAST = bytearray(range(256)) * (16 << 20 >> 8)


def main():
    os.chdir(run.ROOT)
    work = run.WORK / "footprint"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[WORKLOAD]
    fs, fields, _ = run.set_up(workload, 1, work, None, 0)
    argv = [a.format(**fields) for a in workload.argv]
    original = fs.graph_core.max_flow_min_cut

    def with_ballast(*args, **kwargs):
        BALLAST[::64]  # one byte of every cache line
        return original(*args, **kwargs)

    sampler = SpeedSampler()
    arms = {"as is": ([], []), "ballast": ([], [])}
    try:
        for i in range(2 * OPS_PER_ARM):
            name = "ballast" if i % 2 else "as is"
            fs.graph_core.max_flow_min_cut = \
                with_ballast if i % 2 else original
            gc.collect()
            op = run.run_op(fs, argv, sampler=sampler)
            if not op.ok:
                print(f"operation {i} failed: {op.describe()}",
                      file=sys.stderr)
                return 1
            arms[name][0].append(op.program_seconds)
            arms[name][1].append(speed(op.passes))
            shutil.rmtree(fields["out"], ignore_errors=True)
    finally:
        fs.graph_core.max_flow_min_cut = original

    (t_a, s_a), (t_b, s_b) = [(statistics.median(times),
                               statistics.median(speeds))
                              for times, speeds in arms.values()]
    slowdown, moved = t_b / t_a - 1, abs(s_b / s_a - 1)
    for name, (times, speeds) in arms.items():
        print(f"{name:<8} op wall median {statistics.median(times):.4f} s, "
              f"speed median {statistics.median(speeds):.4f} "
              f"({len(times)} ops)")
    ok = moved < slowdown / 5
    print(f"the ballast slowed the operation by {slowdown:.1%}; the speed "
          f"moved by {moved:.1%}: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
