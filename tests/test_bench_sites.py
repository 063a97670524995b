"""The benchmark's traced names still exist in the program.

``perfbench/tracing.py`` wraps layer functions at the module attributes
their callers look up; a refactor that drops one makes a traced benchmark
run stop with ``LookupError``.  These tests resolve every site the same
way, and pin the two call shapes the benchmark reads positionally.
"""

import dataclasses
import importlib.util
import inspect
import pathlib

import pytest

from flowsgd import TreePacking, find_fastest_subset

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
