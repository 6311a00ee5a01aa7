import json
from itertools import combinations
from time import perf_counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u6n_ncg import graphs
from u6n_ncg.graphs import (
    Graph,
    export_chunks,
    export_graph,
    find_induced,
    is_complete_multipartite,
    is_k_regular,
    non_commuting_graph,
    twin_classes,
)
from u6n_ncg.closed_forms import cf_omega_classes
from u6n_ncg.groups import group_from_table, u6n_group

from test_groups import TABLE_GROUPS, double_loop_u6n_table, relabelled

TRIANGLE = Graph.from_edges(["x", "y", "z"], [(0, 1), (1, 2), (0, 2)])
PATH4 = Graph.from_edges(["p0", "p1", "p2", "p3"], [(0, 1), (1, 2), (2, 3)])

N1_DOT = """graph G {
  0 [label="b"];
  1 [label="b^2"];
  2 [label="a"];
  3 [label="ab"];
  4 [label="ab^2"];
  0 -- 2;
  0 -- 3;
  0 -- 4;
  1 -- 2;
  1 -- 3;
  1 -- 4;
  2 -- 3;
  2 -- 4;
  3 -- 4;
}"""


def ncg(n):
    return non_commuting_graph(u6n_group(n))


def edge_pairs(graph):
    """Edges as pairs u < v, lexicographic, one adjacency bit at a time."""
    v_count = graph.vertex_count
    return [(u, v) for u in range(v_count) for v in range(u + 1, v_count) if graph.adj[u] >> v & 1]


def reference_dot(graph):
    """The DOT writer that built the whole text from a list of lines."""
    lines = ["graph G {"]
    for v, label in enumerate(graph.labels):
        lines.append(f'  {v} [label="{label}"];')
    for u, v in edge_pairs(graph):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)


def reference_json(graph):
    """The JSON writer that built an object tree for json.dumps."""
    obj = {
        "vertices": [{"id": v, "label": label} for v, label in enumerate(graph.labels)],
        "edges": [[u, v] for u, v in edge_pairs(graph)],
    }
    return json.dumps(obj)


def vid(graph, label):
    return graph.labels.index(label)


def sweep_induced(graph, pattern):
    """Reference search: every k-subset in lexicographic order, tested by its
    degree sequence and connectivity."""
    kind, _, tail = pattern.partition("_")
    k = int(tail)
    if kind == "cycle":
        want_degrees = [2] * k
    elif k == 1:
        want_degrees = [0]
    else:
        want_degrees = sorted([1, 1] + [2] * (k - 2))
    for combo in combinations(range(graph.vertex_count), k):
        mask = sum(1 << u for u in combo)
        degrees = sorted((graph.adj[u] & mask).bit_count() for u in combo)
        if degrees != want_degrees:
            continue
        seen = frontier = mask & -mask
        while frontier:
            reach = 0
            for u in combo:
                if (frontier >> u) & 1:
                    reach |= graph.adj[u]
            frontier = reach & mask & ~seen
            seen |= frontier
        if seen == mask:
            return combo
    return None


@st.composite
def random_graphs(draw, max_vertices=10):
    v = draw(st.integers(min_value=0, max_value=max_vertices))
    pairs = list(combinations(range(v), 2))
    fill = draw(st.sampled_from(["random", "edgeless", "complete"]))
    if fill == "random":
        picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    else:
        picks = [fill == "complete"] * len(pairs)
    edges = [e for e, keep in zip(pairs, picks) if keep]
    return Graph.from_edges([f"v{i}" for i in range(v)], edges)


@st.composite
def twin_blowups(draw, max_vertices=12):
    """A random base graph on at most 5 vertices with each vertex replaced
    by an independent set of 1-4 twins, relabelled at random so that the
    twin classes interleave; at most max_vertices vertices in all."""
    base = draw(random_graphs(max_vertices=5))
    sizes, room = [], max_vertices - base.vertex_count
    for _ in range(base.vertex_count):
        extra = draw(st.integers(min_value=0, max_value=min(3, room)))
        sizes.append(1 + extra)
        room -= extra
    owner = [b for b, size in enumerate(sizes) for _ in range(size)]
    order = draw(st.permutations(range(len(owner))))
    owner = [owner[i] for i in order]
    edges = [
        (a, b)
        for a, b in combinations(range(len(owner)), 2)
        if base.has_edge(owner[a], owner[b])
    ]
    return Graph.from_edges([f"v{i}" for i in range(len(owner))], edges)


@st.composite
def multipartite_blowups(draw):
    """A complete multipartite graph on 0-5 parts of 1-4 vertices,
    relabelled at random, that loses one edge half the time."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), max_size=5))
    part = [p for p, size in enumerate(sizes) for _ in range(size)]
    part = [part[i] for i in draw(st.permutations(range(len(part))))]
    edges = [(a, b) for a, b in combinations(range(len(part)), 2) if part[a] != part[b]]
    if edges and draw(st.booleans()):
        edges.pop(draw(st.integers(min_value=0, max_value=len(edges) - 1)))
    return Graph.from_edges([f"v{i}" for i in range(len(part))], edges)


def bitwise_induced_subgraph(graph, vertices):
    """Reference: each kept row rebuilt bit by bit through a map from kept
    vertex to its position."""
    chosen = sorted(set(vertices))
    for v in chosen:
        if not 0 <= v < graph.vertex_count:
            raise IndexError(f"vertex {v} out of range for {graph.vertex_count} vertices")
    pos = {v: i for i, v in enumerate(chosen)}
    rows = []
    for v in chosen:
        row = 0
        for u in range(graph.vertex_count):
            if (graph.adj[v] >> u) & 1 and u in pos:
                row |= 1 << pos[u]
        rows.append(row)
    return Graph(labels=tuple(graph.labels[v] for v in chosen), adj=tuple(rows))


@st.composite
def graphs_with_subsets(draw):
    """A random graph or twin blow-up on 0-12 vertices and a vertex list:
    empty, full, a permutation, or drawn unsorted with duplicates."""
    graph = draw(st.one_of(random_graphs(max_vertices=12), twin_blowups()))
    everything = list(range(graph.vertex_count))
    drawn = st.lists(st.sampled_from(everything), max_size=20) if everything else st.just([])
    subset = draw(
        st.one_of(st.just([]), st.just(everything), st.permutations(everything), drawn)
    )
    return graph, subset


def multipartite_by_pairs(graph):
    """Reference: a graph is complete multipartite exactly when every
    non-adjacent pair has equal rows; the parts are then the classes of
    "equal or non-adjacent". None when some pair fails."""
    v = graph.vertex_count
    for a, b in combinations(range(v), 2):
        if not graph.has_edge(a, b) and graph.adj[a] != graph.adj[b]:
            return None
    return {
        frozenset(w for w in range(v) if w == u or not graph.has_edge(u, w))
        for u in range(v)
    }


PATTERNS = [f"path_{k}" for k in range(1, 9)] + [f"cycle_{k}" for k in range(3, 9)]

# C5 with each vertex b replaced by the false twins of class b, their
# labels interleaved
C5_BLOWUP_CLASSES = (2, 2, 1, 0, 3, 0, 4, 1, 0, 4)
C5_BLOWUP = Graph.from_edges(
    [f"v{i}" for i in range(len(C5_BLOWUP_CLASSES))],
    [
        (a, b)
        for a, b in combinations(range(len(C5_BLOWUP_CLASSES)), 2)
        if (C5_BLOWUP_CLASSES[a] - C5_BLOWUP_CLASSES[b]) % 5 in (1, 4)
    ],
)


class TestConstruction:
    def test_n1_vertices_and_edges(self):
        graph = ncg(1)
        assert graph.vertex_count == 5
        assert graph.edge_count() == 9
        assert graph.labels == ("b", "b^2", "a", "ab", "ab^2")

    def test_n2_vertices_and_edges(self):
        graph = ncg(2)
        assert graph.vertex_count == 10
        assert graph.edge_count() == 36

    @pytest.mark.parametrize("n", range(1, 7))
    def test_edge_count_formula(self, n):
        assert ncg(n).edge_count() == 9 * n * n

    def test_abelian_group_rejected(self):
        c3 = group_from_table(["e", "g", "g2"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        with pytest.raises(ValueError, match="abelian"):
            non_commuting_graph(c3)

    def test_validation_rejects_loops_and_asymmetry(self):
        with pytest.raises(ValueError, match="loop"):
            Graph(labels=("u",), adj=(1,))
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(labels=("u", "v"), adj=(2, 0))
        with pytest.raises(ValueError, match="unique"):
            Graph.from_edges(["u", "u"], [])

    @pytest.mark.parametrize(
        "labels, adj, message",
        [
            (("u", "v", "w"), (2, 1), "2 adjacency rows for 3 labels"),
            (("u", "v"), (6, 1), "adjacency row 0 has bits outside the vertex range"),
            (("u", "v", "w"), (2, 1, -8), "adjacency row 2 has bits outside the vertex range"),
            (("u", "v", "w"), (8, 8, 8), "adjacency row 0 has bits outside the vertex range"),
            (("u", "v", "w"), (6, 1, 5), "loop at vertex 2 ('w')"),
            (("u", "v", "w"), (2, 5, 0), "asymmetric adjacency between 1 and 2"),
        ],
    )
    def test_validation_rejects_bad_rows(self, labels, adj, message):
        with pytest.raises(ValueError) as info:
            Graph(labels=labels, adj=adj)
        assert str(info.value) == message

    def test_from_edges_rejects_out_of_range_edges_and_loops(self):
        with pytest.raises(IndexError) as info:
            Graph.from_edges(["u", "v", "w"], [(0, 1), (1, 3)])
        assert str(info.value) == "edge (1, 3) out of range for 3 vertices"
        with pytest.raises(ValueError) as info:
            Graph.from_edges(["u", "v", "w"], [(0, 1), (2, 2)])
        assert str(info.value) == "loop edge at vertex 2"


class TestDegrees:
    def test_class_degrees_n2(self):
        graph = ncg(2)
        assert graph.degree(vid(graph, "a")) == 8
        assert graph.degree(vid(graph, "b")) == 6

    def test_isolated_vertex(self):
        graph = Graph.from_edges(["u", "v", "w"], [(0, 1)])
        assert graph.degree(2) == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            TRIANGLE.degree(3)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_degree_is_order_minus_centralizer(self, n):
        g = u6n_group(n)
        graph = non_commuting_graph(g)
        center = g.center()
        non_central = [x for x in range(g.order) if x not in center]
        for v, x in enumerate(non_central):
            assert graph.degree(v) == g.order - len(g.centralizer(x))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_degree_sum_is_twice_edges(self, n):
        graph = ncg(n)
        total = sum(graph.degree(v) for v in range(graph.vertex_count))
        assert total == 2 * graph.edge_count()

    @given(st.one_of(random_graphs(), twin_blowups()))
    @settings(max_examples=200, deadline=None)
    def test_edge_count_matches_edge_pairs(self, graph):
        # counted a class of twins at a time, against every pair
        assert graph.edge_count() == len(edge_pairs(graph))


class TestInducedSubgraph:
    def test_full_subset_is_identity(self):
        graph = ncg(1)
        sub = graph.induced_subgraph(range(5))
        assert sub == graph

    def test_empty_subset(self):
        sub = TRIANGLE.induced_subgraph([])
        assert sub.vertex_count == 0 and sub.edge_count() == 0

    def test_commuting_pair_has_no_edge(self):
        graph = ncg(1)
        sub = graph.induced_subgraph([vid(graph, "b"), vid(graph, "b^2")])
        assert sub.vertex_count == 2
        assert sub.edge_count() == 0

    def test_invalid_vertex(self):
        # out of range or negative, as a list or as an iterator
        for vertices in ([0, 5], [3], [-1], [0, -1], [2, 1, 3], [-4, 0, 1, 2]):
            with pytest.raises(IndexError):
                TRIANGLE.induced_subgraph(vertices)
            with pytest.raises(IndexError):
                TRIANGLE.induced_subgraph(iter(vertices))

    @given(graphs_with_subsets())
    @settings(max_examples=300, deadline=None)
    def test_matches_bitwise_construction(self, case):
        graph, subset = case
        assert graph.induced_subgraph(iter(subset)) == bitwise_induced_subgraph(graph, subset)


class TestCompleteMultipartite:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_parts_match_omega_classes(self, n):
        g = u6n_group(n)
        graph = non_commuting_graph(g)
        parts = is_complete_multipartite(graph)
        assert parts is not None
        assert sorted(map(len, parts)) == sorted([n, n, n, 2 * n])
        part_labels = {frozenset(graph.labels[v] for v in c) for c in parts}
        omega_labels = {
            frozenset(g.labels[x] for x in c) for c in cf_omega_classes(n)
        }
        assert part_labels == omega_labels

    @pytest.mark.parametrize("n", range(1, 5))
    def test_parts_are_the_twin_classes(self, n):
        graph = ncg(n)
        assert is_complete_multipartite(graph) == twin_classes(graph)

    def test_parts_ordered_by_smallest_vertex(self):
        # K(2, 1) with the singleton part listed between the pair's members
        graph = Graph.from_edges(["x", "y", "z"], [(0, 1), (1, 2)])
        assert is_complete_multipartite(graph) == ((0, 2), (1,))

    def test_triangle_is_k111(self):
        assert is_complete_multipartite(TRIANGLE) == ((0,), (1,), (2,))

    def test_path4_is_not_multipartite(self):
        assert is_complete_multipartite(PATH4) is None

    def test_parts_certificate_holds(self):
        graph = ncg(2)
        parts = is_complete_multipartite(graph)
        for cls in parts:
            for u in cls:
                for v in cls:
                    assert u == v or not graph.has_edge(u, v)
        for i, ci in enumerate(parts):
            for cj in parts[i + 1 :]:
                for u in ci:
                    for v in cj:
                        assert graph.has_edge(u, v)

    @given(st.one_of(random_graphs(), multipartite_blowups()))
    @settings(max_examples=200, deadline=None)
    def test_matches_pair_oracle(self, graph):
        expected = multipartite_by_pairs(graph)
        parts = is_complete_multipartite(graph)
        if expected is None:
            assert parts is None
        else:
            assert parts is not None
            assert len(parts) == len(expected)
            assert set(map(frozenset, parts)) == expected
            assert [c[0] for c in parts] == sorted(c[0] for c in parts)


class TestTwinClasses:
    @given(random_graphs())
    def test_classes_are_the_distinct_rows(self, graph):
        classes = twin_classes(graph)
        assert sorted(v for c in classes for v in c) == list(range(graph.vertex_count))
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)
        for c in classes:
            assert list(c) == sorted(c)
            assert len({graph.adj[v] for v in c}) == 1
        assert len({graph.adj[c[0]] for c in classes}) == len(classes)

    def test_path_is_twin_free_and_star_leaves_are_twins(self):
        assert twin_classes(PATH4) == ((0,), (1,), (2,), (3,))
        star = Graph.from_edges(["c", "x", "y", "z"], [(0, 1), (0, 2), (0, 3)])
        assert twin_classes(star) == ((0,), (1, 2, 3))

    def test_triangle_vertices_are_not_false_twins(self):
        assert twin_classes(TRIANGLE) == ((0,), (1,), (2,))

    @given(st.one_of(random_graphs(), twin_blowups()))
    @settings(max_examples=200, deadline=None)
    def test_equal_graphs_built_apart_agree(self, graph):
        # the same graph again, from its edge list: equal, but nothing shared
        other = Graph.from_edges(list(graph.labels), edge_pairs(graph))
        assert other == graph and other is not graph
        classes = twin_classes(graph)
        assert twin_classes(other) == classes
        assert twin_classes(graph) is classes  # kept, not recomputed
        quotient, sizes = graph._twin_quotient
        assert other._twin_quotient == (quotient, sizes)
        assert graph._twin_quotient[0] is quotient
        # the quotient as built from the classes by hand
        assert quotient == graph.induced_subgraph(c[0] for c in classes)
        assert sizes == tuple(len(c) for c in classes)


class TestFindInduced:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_induced_c5(self, n):
        assert find_induced(ncg(n), "cycle_5") is None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_induced_p4(self, n):
        assert find_induced(ncg(n), "path_4") is None

    def test_p3_witness_exists_n1(self):
        graph = ncg(1)
        combo = find_induced(graph, "path_3")
        assert combo is not None
        sub = graph.induced_subgraph(combo)
        degrees = sorted(sub.degree(v) for v in range(3))
        assert degrees == [1, 1, 2]

    def test_triangle_contains_c3(self):
        assert find_induced(TRIANGLE, "cycle_3") == (0, 1, 2)

    def test_c5_found_in_c5(self):
        c5 = Graph.from_edges(
            ["0", "1", "2", "3", "4"], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        )
        assert find_induced(c5, "cycle_5") == (0, 1, 2, 3, 4)

    def test_pattern_cap(self):
        with pytest.raises(ValueError, match="cap"):
            find_induced(TRIANGLE, "path_9")

    def test_bad_pattern(self):
        with pytest.raises(ValueError):
            find_induced(TRIANGLE, "star_3")
        with pytest.raises(ValueError):
            find_induced(TRIANGLE, "cycle_2")

    def test_empty_path_refused(self):
        with pytest.raises(ValueError) as info:
            find_induced(TRIANGLE, "path_0")
        assert str(info.value) == "paths need at least 1 vertex"

    # a superscript two, which int() refuses, and an Arabic-Indic three,
    # which int() reads as 3: str.isdigit accepts both
    @pytest.mark.parametrize("pattern", ["path_\u00b2", "cycle_\u0663"])
    def test_order_is_ascii_digits(self, pattern):
        with pytest.raises(ValueError, match="unknown pattern"):
            find_induced(TRIANGLE, pattern)

    def test_first_p3_holds_two_twins(self):
        # the leaves 1, 2, 3 of the star are false twins
        star = Graph.from_edges(["c", "x", "y", "z"], [(0, 1), (0, 2), (0, 3)])
        assert find_induced(star, "path_3") == (0, 1, 2)

    def test_first_c4_holds_two_twins_of_each_class(self):
        # K2,2 with parts {0, 2} and {1, 3}
        k22 = Graph.from_edges(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert find_induced(k22, "cycle_4") == (0, 1, 2, 3)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_matches_subset_sweep_on_an_interleaved_blowup(self, pattern):
        assert find_induced(C5_BLOWUP, pattern) == sweep_induced(C5_BLOWUP, pattern)

    @given(random_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_subset_sweep(self, graph):
        for pattern in PATTERNS:
            assert find_induced(graph, pattern) == sweep_induced(graph, pattern), pattern

    @given(twin_blowups())
    @settings(max_examples=150, deadline=None)
    def test_matches_subset_sweep_with_twins(self, graph):
        for pattern in PATTERNS:
            assert find_induced(graph, pattern) == sweep_induced(graph, pattern), pattern

    @given(twin_blowups())
    @settings(max_examples=150, deadline=None)
    def test_twin_free_patterns_hold_one_member_per_class(self, graph):
        classes = twin_classes(graph)
        class_of = {u: i for i, c in enumerate(classes) for u in c}
        for pattern in [p for p in PATTERNS if p not in ("path_3", "cycle_4")]:
            combo = find_induced(graph, pattern)
            if combo is not None:
                assert len({class_of[u] for u in combo}) == len(combo), pattern
                assert set(combo) <= {c[0] for c in classes}, pattern


class TestRegularity:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_omega123_is_2n_regular(self, n):
        g = u6n_group(n)
        graph = non_commuting_graph(g)
        omega1, omega2, omega3, _ = cf_omega_classes(n)
        center = g.center()
        non_central = [x for x in range(g.order) if x not in center]
        pos = {x: i for i, x in enumerate(non_central)}
        keep = sorted(pos[x] for x in omega1 | omega2 | omega3)
        assert is_k_regular(graph.induced_subgraph(keep)) == 2 * n

    def test_omega123_at_n600_is_1200_regular_and_fast(self):
        # Γ(U(3600)) has 3000 vertices, 1800 of them in Ω1 ∪ Ω2 ∪ Ω3; only
        # the restriction is timed
        g = u6n_group(600)
        graph = non_commuting_graph(g)
        omega1, omega2, omega3, _ = cf_omega_classes(600)
        vertex_of = {label: v for v, label in enumerate(graph.labels)}
        keep = [vertex_of[g.labels[x]] for x in omega1 | omega2 | omega3]
        start = perf_counter()
        sub = graph.induced_subgraph(keep)
        elapsed = perf_counter() - start
        assert sub.vertex_count == 1800
        assert is_k_regular(sub) == 1200
        assert elapsed < 1.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_full_graph_not_regular(self, n):
        assert is_k_regular(ncg(n)) is None

    def test_single_vertex(self):
        assert is_k_regular(Graph.from_edges(["u"], [])) == 0

    def test_empty_graph_has_no_degree(self):
        assert is_k_regular(Graph.from_edges([], [])) is None


class TestExport:
    def test_dot_golden_n1(self):
        assert export_graph(ncg(1), "dot") == N1_DOT

    def test_dot_triangle_edge_lines(self):
        lines = export_graph(TRIANGLE, "dot").splitlines()
        assert sum("--" in line for line in lines) == 3

    def test_json_empty_graph(self):
        empty = Graph.from_edges([], [])
        assert export_graph(empty, "json") == '{"vertices": [], "edges": []}'

    def test_json_n1_structure(self):
        data = json.loads(export_graph(ncg(1), "json"))
        assert [v["label"] for v in data["vertices"]] == ["b", "b^2", "a", "ab", "ab^2"]
        assert len(data["edges"]) == 9
        assert data["edges"] == sorted([sorted(e) for e in data["edges"]])

    def test_export_dispatch(self):
        for fmt in ("dot", "json"):
            assert export_graph(TRIANGLE, fmt) == "".join(export_chunks(TRIANGLE, fmt))
        with pytest.raises(ValueError, match="format"):
            export_graph(TRIANGLE, "gml")

    def test_json_edges_lexicographic(self):
        edges = json.loads(export_graph(ncg(2), "json"))["edges"]
        assert edges == sorted(edges) and all(u < v for u, v in edges)

    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_writers_match_the_reference_writers(self, n):
        graph = ncg(n)
        assert export_graph(graph, "dot") == reference_dot(graph)
        assert export_graph(graph, "json") == reference_json(graph)

    @given(st.one_of(random_graphs(), twin_blowups()))
    @settings(max_examples=100, deadline=None)
    def test_writers_match_the_reference_writers_on_random_graphs(self, graph):
        assert export_graph(graph, "dot") == reference_dot(graph)
        assert export_graph(graph, "json") == reference_json(graph)

    def test_json_labels_are_escaped_as_json_dumps_does(self):
        labels = ['"', "\\", "\n", "é", "\u2028", "\U0001f600"]
        graph = Graph.from_edges(labels, [(0, 1), (2, 5), (3, 4)])
        assert export_graph(graph, "json") == reference_json(graph)
        assert json.loads(export_graph(graph, "json"))["vertices"][4]["label"] == "\u2028"

    def test_chunks_are_header_vertices_rows_footer(self):
        # a piece per vertex, then one per vertex with a neighbour above it
        # (0, 1 and 2 on the path 0-1-2-3)
        assert list(export_chunks(PATH4, "dot")) == [
            "graph G {",
            *(f'\n  {v} [label="p{v}"];' for v in range(4)),
            "\n  0 -- 1;",
            "\n  1 -- 2;",
            "\n  2 -- 3;",
            "\n}",
        ]
        assert list(export_chunks(PATH4, "json")) == [
            '{"vertices": [',
            *(f'{", " if v else ""}{{"id": {v}, "label": "p{v}"}}' for v in range(4)),
            '], "edges": [',
            "[0, 1]",
            ", [1, 2]",
            ", [2, 3]",
            "]}",
        ]

    def test_a_row_is_one_chunk(self):
        star = Graph.from_edges(["c", "x", "y", "z"], [(0, 1), (0, 2), (0, 3), (2, 3)])
        assert list(export_chunks(star, "dot"))[5:7] == ["\n  0 -- 1;\n  0 -- 2;\n  0 -- 3;", "\n  2 -- 3;"]
        assert list(export_chunks(star, "json"))[6:8] == ["[0, 1], [0, 2], [0, 3]", ", [2, 3]"]

    def test_chunks_refuse_an_unknown_format_before_writing(self):
        with pytest.raises(ValueError, match="format"):
            export_chunks(TRIANGLE, "gml")


# -- reference constructions, kept as oracles for the commutation rows -----

def pair_loop_non_commuting_graph(g):
    """Every pair of non-central elements tested by two `mul` lookups."""
    order = g.order
    vertices = [
        x for x in range(order) if any(g.mul(x, y) != g.mul(y, x) for y in range(order))
    ]
    rows = [0] * len(vertices)
    for i, x in enumerate(vertices):
        for j in range(i + 1, len(vertices)):
            y = vertices[j]
            if g.mul(x, y) != g.mul(y, x):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(labels=tuple(g.labels[x] for x in vertices), adj=tuple(rows))


def edge_loop_asymmetry(adj):
    """The error an edge-by-edge symmetry check raises first, or None."""
    for u in range(len(adj)):
        for w in range(len(adj)):
            if (adj[u] >> w) & 1 and not (adj[w] >> u) & 1:
                return f"asymmetric adjacency between {u} and {w}"
    return None


@st.composite
def loopless_rows(draw, max_vertices=8):
    """Adjacency rows without loops: a random graph or a twin blow-up (so
    that rows repeat), then a few arcs flipped one way only, so that about
    half come out asymmetric."""
    graph = draw(
        st.one_of(random_graphs(max_vertices=max_vertices), twin_blowups(max_vertices=max_vertices))
    )
    v = graph.vertex_count
    rows = list(graph.adj)
    arcs = [(u, w) for u in range(v) for w in range(v) if u != w]
    if arcs:
        for u, w in draw(st.lists(st.sampled_from(arcs), max_size=3)):
            rows[u] ^= 1 << w
    return tuple(rows)


class TestConstructionAgainstPairLoop:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_u6n(self, n):
        g = u6n_group(n)
        assert non_commuting_graph(g) == pair_loop_non_commuting_graph(g)

    def test_s3_from_its_table(self):
        g1 = u6n_group(1)
        table = [[g1.mul(x, y) for y in range(g1.order)] for x in range(g1.order)]
        g = group_from_table(list(g1.labels), table)
        assert non_commuting_graph(g) == pair_loop_non_commuting_graph(g)

    @pytest.mark.parametrize("n", [*range(1, 13), 43])
    def test_relabelled_u6n(self, n):
        # the center and the vertices at scattered indices, which the
        # vertex selector picks out in index order
        table = relabelled(double_loop_u6n_table(n), seed=n)
        g = group_from_table([f"g{x}" for x in range(6 * n)], table)
        assert sorted(g.center()) != list(range(0, 6 * n, 6))
        assert non_commuting_graph(g) == pair_loop_non_commuting_graph(g)

    @pytest.mark.parametrize("labels, table", TABLE_GROUPS)
    def test_table_groups(self, labels, table):
        g = group_from_table(labels, table)
        expected = pair_loop_non_commuting_graph(g)
        if expected.vertex_count:
            assert non_commuting_graph(g) == expected
        else:
            with pytest.raises(ValueError, match="abelian"):
                non_commuting_graph(g)

    @given(loopless_rows())
    @settings(max_examples=200, deadline=None)
    def test_symmetry_check_matches_edge_loop(self, rows):
        labels = tuple(f"v{i}" for i in range(len(rows)))
        expected = edge_loop_asymmetry(rows)
        if expected is None:
            # symmetric rows pass the symmetry check without the per-edge loop
            with mock.patch.object(graphs, "_bits", side_effect=AssertionError("edge loop")):
                assert Graph(labels=labels, adj=rows).adj == rows
        else:
            with pytest.raises(ValueError) as info:
                Graph(labels=labels, adj=rows)
            assert str(info.value) == expected


# -- the string symmetry check, kept as the oracle for the class-pair one --

def string_check_graph(labels, adj):
    """Graph validation as it was before the class-pair check: the row
    checks, then every row compared with its column as a string of V
    characters, then the per-edge scan for the message. Returns the
    message of the refusal, or None."""
    v = len(labels)
    if len(adj) != v:
        return f"{len(adj)} adjacency rows for {v} labels"
    if len(set(labels)) != v:
        return "vertex labels must be unique"
    for u, row in enumerate(adj):
        if row < 0 or row >> v:
            return f"adjacency row {u} has bits outside the vertex range"
        if (row >> u) & 1:
            return f"loop at vertex {u} ({labels[u]!r})"
    strings = [format(row, f"0{v}b")[::-1] for row in adj]
    big = "".join(strings)
    if all(s == big[u::v] for u, s in enumerate(strings)):
        return None
    for u in range(v):
        for w in range(v):
            if (adj[u] >> w) & 1 and not (adj[w] >> u) & 1:
                return f"asymmetric adjacency between {u} and {w}"


def refusal(labels, adj):
    try:
        Graph(labels=labels, adj=adj)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def small_quotient_blowups(draw):
    """A twin blow-up of a random quotient on at most 4 vertices, each class
    of 1 to 9 vertices."""
    base = draw(random_graphs(max_vertices=4))
    q = base.vertex_count
    sizes = draw(st.lists(st.integers(1, 9), min_size=q, max_size=q))
    owner = [b for b, size in enumerate(sizes) for _ in range(size)]
    owner = [owner[i] for i in draw(st.permutations(range(len(owner))))]
    edges = [
        (a, b) for a, b in combinations(range(len(owner)), 2) if base.has_edge(owner[a], owner[b])
    ]
    return Graph.from_edges([f"v{i}" for i in range(len(owner))], edges).adj


@st.composite
def validation_inputs(draw):
    """Rows of a twin blow-up or of a random graph, left symmetric or with
    one bit flipped in one row, one bit flipped in every row of a class,
    the bits of one class flipped in every row of another (one way only,
    so each sees all or none of the other but the two disagree), a loop,
    a bit at or past V in one row or in every row of a class, or one row
    or every row of a class made negative with its lanes below V kept."""
    rows = list(draw(st.one_of(small_quotient_blowups(), st.builds(lambda g: g.adj, random_graphs()))))
    v = len(rows)
    changes = ["none", "flip_row", "flip_class", "flip_pair", "loop"]
    change = draw(st.sampled_from(changes + ["wide", "wide_class", "negative", "negative_class"]))
    if v and change != "none":
        u = draw(st.integers(0, v - 1))
        w = draw(st.integers(0, v - 1))
        if change == "flip_row":
            rows[u] ^= 1 << w
        elif change == "flip_class":
            rows = [row ^ (1 << w) if row == rows[u] else row for row in rows]
        elif change == "flip_pair":
            mask = sum(1 << x for x in range(v) if rows[x] == rows[w])
            rows = [row ^ mask if row == rows[u] else row for row in rows]
        elif change == "loop":
            rows[u] |= 1 << u
        elif change == "wide":
            rows[u] |= 1 << (v + draw(st.integers(0, 3)))
        elif change == "wide_class":
            rows = [row | 1 << (v + w) if row == rows[u] else row for row in rows]
        elif change == "negative":
            rows[u] -= 1 << (v + w)
        else:
            rows = [row - (1 << (v + w)) if row == rows[u] else row for row in rows]
    return tuple(rows)


# -- the per-vertex checks, kept as the oracle for the per-class ones -------

def per_vertex_check_graph(labels, adj):
    """Graph validation as it was before the range check moved to the
    twin classes: the range and the loop checked row by row, then the
    class-pair symmetry check, then the per-edge scan for the message.
    Returns the message of the refusal, or None."""
    v = len(labels)
    if len(adj) != v:
        return f"{len(adj)} adjacency rows for {v} labels"
    if len(set(labels)) != v:
        return "vertex labels must be unique"
    for u, row in enumerate(adj):
        if row < 0 or row >> v:
            return f"adjacency row {u} has bits outside the vertex range"
        if (row >> u) & 1:
            return f"loop at vertex {u} ({labels[u]!r})"
    classes = {}
    for u, row in enumerate(adj):
        classes.setdefault(row, []).append(u)
    if graphs._classes_symmetric(adj, list(classes.values())):
        return None
    return edge_loop_asymmetry(adj)


class TestPerClassChecksAgainstPerVertex:
    @given(validation_inputs())
    @settings(max_examples=400, deadline=None)
    def test_same_verdict_and_message(self, rows):
        labels = tuple(f"v{i}" for i in range(len(rows)))
        expected = per_vertex_check_graph(labels, rows)
        if expected is None:
            # accepted rows are never scanned vertex by vertex
            with mock.patch.object(Graph, "_scan_rows", side_effect=AssertionError("scan")):
                assert Graph(labels=labels, adj=rows).adj == rows
        else:
            assert refusal(labels, rows) == expected


class TestSymmetryCheckAgainstStrings:
    @given(validation_inputs())
    @settings(max_examples=400, deadline=None)
    def test_same_verdict_and_message(self, rows):
        labels = tuple(f"v{i}" for i in range(len(rows)))
        assert refusal(labels, rows) == string_check_graph(labels, rows)

    @given(validation_inputs())
    @settings(max_examples=400, deadline=None)
    def test_class_pairs_alone_match_strings(self, rows):
        # on rows within range
        v = len(rows)
        if any(row >> v for row in rows):
            return
        classes = {}
        for u, row in enumerate(rows):
            classes.setdefault(row, []).append(u)
        labels = tuple(f"v{i}" for i in range(v))
        expected = string_check_graph(labels, rows) is None
        assert graphs._classes_symmetric(rows, list(classes.values())) == expected

    def test_refused_twin_classes_name_the_first_asymmetric_pair(self):
        # K_{5,5} with one arc dropped one way only: 3 twin classes
        labels = tuple(f"v{i}" for i in range(10))
        rows = list(Graph.from_edges(labels, [(a, b) for a in range(5) for b in range(5, 10)]).adj)
        rows[6] &= ~(1 << 1)
        with pytest.raises(ValueError) as info:
            Graph(labels=labels, adj=tuple(rows))
        assert str(info.value) == "asymmetric adjacency between 1 and 6"
