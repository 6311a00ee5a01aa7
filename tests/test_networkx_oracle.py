"""networkx as an independent oracle for the graph engines, on random
graphs small enough for every engine to answer exactly."""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from u6n_ncg.graphs import Graph, _bits, find_induced
from u6n_ncg.invariants import (
    UNREACHABLE,
    clique_number,
    distance_matrix,
    eccentricities,
    independence_number,
    is_connected,
)

nx = pytest.importorskip("networkx")


@st.composite
def random_graphs(draw, max_vertices=8):
    v = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = list(combinations(range(v), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, picks) if keep]
    return Graph.from_edges([f"v{i}" for i in range(v)], edges)


def to_nx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.vertex_count))
    g.add_edges_from((u, v) for u in range(graph.vertex_count) for v in _bits(graph.adj[u]) if u < v)
    return g


def nx_clique_number(g):
    return max(len(c) for c in nx.find_cliques(g))


@given(random_graphs())
@settings(max_examples=100, deadline=None)
def test_distances_and_connectivity(graph):
    g = to_nx(graph)
    lengths = dict(nx.all_pairs_shortest_path_length(g))
    expected = tuple(
        tuple(lengths[u].get(v, UNREACHABLE) for v in range(graph.vertex_count))
        for u in range(graph.vertex_count)
    )
    assert distance_matrix(graph) == expected
    assert is_connected(graph) == nx.is_connected(g)


@given(random_graphs())
@settings(max_examples=100, deadline=None)
def test_eccentricities_of_connected_graphs(graph):
    g = to_nx(graph)
    assume(nx.is_connected(g))
    ecc = nx.eccentricity(g)
    assert eccentricities(graph) == tuple(ecc[v] for v in range(graph.vertex_count))


@given(random_graphs())
@settings(max_examples=100, deadline=None)
def test_clique_and_independence_numbers(graph):
    g = to_nx(graph)
    assert clique_number(graph) == nx_clique_number(g)
    assert independence_number(graph) == nx_clique_number(nx.complement(g))


@pytest.mark.parametrize("pattern", ["path_4", "cycle_5"])
@given(graph=random_graphs())
@settings(max_examples=100, deadline=None)
def test_induced_pattern_presence(pattern, graph):
    shape = nx.path_graph(4) if pattern == "path_4" else nx.cycle_graph(5)
    # GraphMatcher's subgraph isomorphism is node-induced
    expected = nx.isomorphism.GraphMatcher(to_nx(graph), shape).subgraph_is_isomorphic()
    assert (find_induced(graph, pattern) is not None) == expected
