"""The benchmark's traced names still exist in the program.

``perfbench/tracing.py`` wraps layer functions at the module attributes
their callers look up; a refactor that drops one makes a traced benchmark
run stop with ``LookupError``.  These tests resolve every site the same
way, pin the two call shapes the benchmark reads positionally, and run
small commands traced to check that the recorded spans pass the audit.
"""

import contextlib
import dataclasses
import importlib.util
import inspect
import io
import pathlib
import time

import pytest

from flowsgd import TreePacking, find_fastest_subset
from flowsgd.cli import main

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "site", [site for site, _ in tracing.SPAN_SITES + tracing.COUNT_SITES])
def test_traced_site_resolves(site):
    owner, attr = tracing._resolve(site)
    assert callable(getattr(owner, attr))


def test_plan_group_sites_are_traced():
    assert tracing.PLAN_GROUP_SITES <= {s for s, _ in tracing.SPAN_SITES}


def test_positional_shapes_the_benchmark_reads():
    # the tracer reads find_fastest_subset's args[1] as the params
    assert list(inspect.signature(find_fastest_subset).parameters)[:2] \
        == ["g", "params"]
    # the plan check builds TreePacking from four positional fields
    assert [f.name for f in dataclasses.fields(TreePacking)] \
        == ["trees", "terminals", "pivot", "alpha"]


COMMANDS = [
    ["plan", "--gen", "torus:7x7", "--d", "1000", "--sigma2", "1000"],
    ["plan", "--gen", "clusters:30x3:b_slow=0.1", "--d", "1000",
     "--sigma2", "1000"],
    ["experiment", "--gen", "torus:4x4", "--methods", "grace,leon,sync,hero",
     "--seeds", "0:2"],
    ["analyze", "--gen", "torus:7x7"],
]

# Sites the commands above do not reach.  Some read 0 on every bench
# workload too (ROADMAP, "dead bench counters"); the rest belong to
# generators and entry points these commands do not use.
UNREACHED_SITES = {
    "flowsgd.graph_core:max_flow_min_cut", "flowsgd.graph_core:build_graph",
    "flowsgd.topologies:star", "flowsgd.topologies:ring",
    "flowsgd.topologies:all_to_all",
    "flowsgd.steiner_packing:min_S_cut_multigraph",
    "flowsgd.optimizers:StochasticOracle.gradient_sum",
    "flowsgd.selection:subset_score",
}


def _traced(tracer, op_id, argv, out):
    """Run one command as a traced operation; return (rc, seconds)."""
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()), \
            tracer.operation(op_id):
        start = time.perf_counter()
        rc = main(argv + ["--out", str(out)])
        seconds = time.perf_counter() - start
    return rc, seconds


@pytest.mark.parametrize("argv", COMMANDS)
def test_traced_command_passes_the_audit(tmp_path, argv):
    # Nested spans of one name mean a site is wrapped twice.  The command
    # is timed inside the root span, on graphs big enough that the few
    # statements between the two clocks stay well under the 1% tolerance.
    tracer = tracing.Tracer()
    rc, seconds = _traced(tracer, "op", argv, tmp_path)
    assert rc == 0
    assert tracer.audit("op", seconds) == []


def test_traced_commands_reach_the_pinned_sites(tmp_path):
    # A refactor that moves a wrapped call to another module leaves the
    # old site resolvable but silent, and its per-layer metric reads 0.
    tracer = tracing.Tracer()
    for i, argv in enumerate(COMMANDS):
        assert _traced(tracer, i, argv, tmp_path / str(i))[0] == 0
    # A site that becomes reachable must leave UNREACHED_SITES too.
    every = {site for site, _ in tracing.SPAN_SITES + tracing.COUNT_SITES}
    assert UNREACHED_SITES <= every
    assert every - tracer.seen_sites == UNREACHED_SITES
    assert len(every - UNREACHED_SITES) == 22
