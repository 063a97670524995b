import math

import pytest
from hypothesis import settings

from flowsgd import build_graph

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

# Five workers, weight-2 spine plus a weight-1 triangle tail; its cut tree
# has the weight multiset {1, 2, 2, 3}.
FIVE_NODE_SPEC = {
    "nodes": [{"id": i, "h": 1.0} for i in range(1, 6)],
    "links": [
        {"a": 1, "b": 2, "bandwidth": 2},
        {"a": 2, "b": 3, "bandwidth": 2},
        {"a": 4, "b": 5, "bandwidth": 1},
        {"a": 1, "b": 5, "bandwidth": 1},
        {"a": 2, "b": 5, "bandwidth": 1},
    ],
}

# Two workers joined directly (multiplicity 2 and 3) and through a switch
# (node 5, infinite compute time) -- supports exactly three disjoint trees
# spanning {1, 2, 6}.
SWITCH_SPEC = {
    "nodes": [{"id": 1, "h": 1.0}, {"id": 2, "h": 1.0},
              {"id": 5, "h": "inf"}, {"id": 6, "h": 1.0}],
    "links": [
        {"a": 1, "b": 2, "bandwidth": 2},
        {"a": 1, "b": 6, "bandwidth": 3},
        {"a": 1, "b": 5, "bandwidth": 1},
        {"a": 2, "b": 5, "bandwidth": 1},
    ],
}

# Workers 1..4 in a line behind node 5; every transfer to 5 crosses 4-5.
LINE_SPEC = {
    "nodes": [{"id": i, "h": 1.0} for i in range(1, 6)],
    "links": [{"a": i, "b": i + 1, "bandwidth": 1} for i in range(1, 5)],
}


def spec_edges(spec):
    return {(ls["a"], ls["b"]): float(ls["bandwidth"])
            for ls in spec["links"]}


@pytest.fixture
def five_node():
    return build_graph(FIVE_NODE_SPEC)


@pytest.fixture
def switch_graph():
    return build_graph(SWITCH_SPEC)


@pytest.fixture
def line_graph():
    return build_graph(LINE_SPEC)


def random_graph_spec(rng, n_max=7, w_max=9, h_max=4):
    """Connected random graph: a random spanning tree plus extra edges."""
    n = rng.randint(2, n_max)
    nodes = list(range(1, n + 1))
    links = []
    seen = set()
    for v in nodes[1:]:
        u = rng.choice(nodes[:v - 1])
        seen.add((u, v))
        links.append({"a": u, "b": v, "bandwidth": rng.randint(1, w_max)})
    for u in nodes:
        for v in nodes:
            if u < v and (u, v) not in seen and rng.random() < 0.35:
                seen.add((u, v))
                links.append({"a": u, "b": v,
                              "bandwidth": rng.randint(1, w_max)})
    return {
        "nodes": [{"id": v, "h": rng.randint(1, h_max)} for v in nodes],
        "links": links,
    }


def random_infinite_links_spec(rng, n_max=7, w_max=9):
    """:func:`random_graph_spec` with at least one infinite link and at
    least one finite link."""
    spec = random_graph_spec(rng, n_max, w_max)
    while len(spec["links"]) < 2:
        spec = random_graph_spec(rng, n_max, w_max)
    links = spec["links"]
    for i in rng.sample(range(len(links)), rng.randint(1, len(links) - 1)):
        links[i]["bandwidth"] = "inf"
    return spec


def assert_close(a, b, rel=1e-12):
    assert math.isclose(a, b, rel_tol=rel, abs_tol=rel), (a, b)
