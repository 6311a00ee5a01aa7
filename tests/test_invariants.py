from itertools import combinations
from math import comb
from time import perf_counter
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from u6n_ncg import closed_forms, invariants
from u6n_ncg.graphs import Graph, _bits, non_commuting_graph, twin_classes
from u6n_ncg.groups import u6n_group
from u6n_ncg.invariants import (
    DEFAULT_CAPS,
    CapacityError,
    DisconnectedGraphError,
    UNREACHABLE,
    is_connected,
    chromatic_number,
    clique_number,
    detour_index,
    detour_polynomial,
    distance_matrix,
    eccentric_connectivity_polynomial,
    eccentricities,
    eccentricity,
    independence_number,
    independence_polynomial,
    metric_dimension,
    resolving_polynomial,
    total_eccentricity_polynomial,
    vertex_cover_number,
    vertex_cover_polynomial,
    _bfs_layers,
    _disagreement_masks,
    _ore_condition,
)
from u6n_ncg.polynomials import IntPolynomial


def ncg(n):
    return non_commuting_graph(u6n_group(n))


def edge_pairs(graph):
    """Edges as pairs u < v, lexicographic."""
    return [(u, v) for u in range(graph.vertex_count) for v in _bits(graph.adj[u]) if u < v]


def vid(graph, label):
    return graph.labels.index(label)


def path_graph(k):
    return Graph.from_edges([f"p{i}" for i in range(k)], [(i, i + 1) for i in range(k - 1)])


def matching_graph(k):
    """k disjoint edges."""
    return Graph.from_edges([f"m{i}" for i in range(2 * k)], [(2 * i, 2 * i + 1) for i in range(k)])


def twin_free_disconnected(v):
    """A matching of v // 2 disjoint edges, plus one isolated vertex when v
    is odd: no two vertices share a neighbourhood, so there are v classes
    of twins, and for v >= 3 the graph is disconnected."""
    edges = [(2 * i, 2 * i + 1) for i in range(v // 2)]
    return Graph.from_edges([f"m{i}" for i in range(v)], edges)


def complete_graph(k):
    return Graph.from_edges([f"k{i}" for i in range(k)], combinations(range(k), 2))


def cycle_graph(k):
    edges = [(i, (i + 1) % k) for i in range(k)]
    return Graph.from_edges([f"c{i}" for i in range(k)], edges)


def complete_bipartite(k):
    """K_{k,k}: vertices 0..k-1 joined to k..2k-1."""
    return Graph.from_edges([f"b{i}" for i in range(2 * k)], [(i, k + j) for i in range(k) for j in range(k)])


K2 = complete_graph(2)
DISCONNECTED = Graph.from_edges(["u", "v", "w"], [(0, 1)])


@st.composite
def random_graphs(draw, max_vertices=8, min_vertices=1):
    v = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    pairs = list(combinations(range(v), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, picks) if keep]
    return Graph.from_edges([f"v{i}" for i in range(v)], edges)


class TestDistances:
    def test_twins_at_distance_two(self):
        graph = ncg(2)
        d = distance_matrix(graph)
        assert d[vid(graph, "a")][vid(graph, "a^3")] == 2

    def test_zero_diagonal(self):
        d = distance_matrix(ncg(1))
        assert all(d[v][v] == 0 for v in range(5))

    def test_adjacent_non_commuters(self):
        graph = ncg(1)
        assert distance_matrix(graph)[vid(graph, "a")][vid(graph, "b")] == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetry_and_triangle_inequality(self, n):
        d = distance_matrix(ncg(n))
        v = len(d)
        for i in range(v):
            for j in range(v):
                assert d[i][j] == d[j][i]
                for k in range(v):
                    assert d[i][j] <= d[i][k] + d[k][j]

    def test_unreachable_sentinel(self):
        d = distance_matrix(DISCONNECTED)
        assert d[0][2] == UNREACHABLE


class TestEccentricity:
    def test_all_two_at_n2(self):
        assert set(eccentricities(ncg(2))) == {2}

    def test_dominating_vertex_has_eccentricity_one_at_n1(self):
        graph = ncg(1)
        assert eccentricity(graph, vid(graph, "a")) == 1

    def test_complete_graph(self):
        assert eccentricity(complete_graph(4), 0) == 1

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            eccentricity(DISCONNECTED, 0)

    def test_total_eccentricity_polynomials(self):
        assert total_eccentricity_polynomial(ncg(2)) == IntPolynomial.monomial(2, 10)
        assert total_eccentricity_polynomial(ncg(1)) == IntPolynomial.from_terms(
            [(1, 3), (2, 2)]
        )
        assert total_eccentricity_polynomial(complete_graph(3)) == IntPolynomial.monomial(1, 3)

    def test_eccentric_connectivity_polynomials(self):
        assert eccentric_connectivity_polynomial(ncg(2)) == IntPolynomial.monomial(2, 72)
        assert eccentric_connectivity_polynomial(ncg(1)) == IntPolynomial.from_terms(
            [(1, 12), (2, 6)]
        )
        assert eccentric_connectivity_polynomial(complete_graph(3)) == IntPolynomial.monomial(1, 6)


class TestDetour:
    def test_commuting_pair_n1(self):
        # b and b^2 commute, yet one term x^4 puts them at detour 4 too
        graph = ncg(1)
        assert not graph.has_edge(vid(graph, "b"), vid(graph, "b^2"))
        assert detour_polynomial(graph) == IntPolynomial.monomial(4, 10)

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_pair_is_hamiltonian(self, n):
        # one term C(V, 2) x^(5n-1) puts every pair at 5n - 1
        graph = ncg(n)
        assert graph.vertex_count == 5 * n
        assert detour_polynomial(graph) == IntPolynomial.monomial(5 * n - 1, comb(5 * n, 2))

    def test_path_endpoints(self):
        # two adjacent pairs at 1, the endpoints at 2
        assert detour_polynomial(path_graph(3)) == IntPolynomial.from_terms([(1, 2), (2, 1)])

    def test_cycle_detour(self):
        # longest simple path between adjacent cycle vertices walks the
        # long way round, 4 edges; the other five pairs take 3
        assert detour_polynomial(cycle_graph(5)) == IntPolynomial.from_terms([(3, 5), (4, 5)])

    def test_polynomials(self):
        assert detour_polynomial(ncg(1)) == IntPolynomial.monomial(4, 10)
        assert detour_polynomial(ncg(2)) == IntPolynomial.monomial(9, 45)
        assert detour_polynomial(K2) == IntPolynomial.monomial(1)

    def test_index(self):
        assert detour_index(ncg(1)) == 40
        assert detour_index(ncg(2)) == 405
        assert detour_index(K2) == 1

    def test_cap(self):
        with pytest.raises(CapacityError):
            detour_polynomial(path_graph(16))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            detour_polynomial(DISCONNECTED)

    @pytest.mark.parametrize("n", [1, 2])
    def test_pair_count_identity(self, n):
        graph = ncg(n)
        v = graph.vertex_count
        assert detour_polynomial(graph).evaluate(1) == v * (v - 1) // 2


class TestIndependence:
    def test_alpha(self):
        assert independence_number(ncg(1)) == 2
        assert independence_number(ncg(2)) == 4
        assert independence_number(complete_graph(5)) == 1

    def test_polynomials(self):
        assert independence_polynomial(ncg(1)) == IntPolynomial.from_terms(
            [(0, 1), (1, 5), (2, 1)]
        )
        assert independence_polynomial(ncg(2)) == IntPolynomial.from_terms(
            [(0, 1), (1, 10), (2, 9), (3, 4), (4, 1)]
        )

    def test_edgeless_graph(self):
        graph = Graph.from_edges(["u", "v", "w"], [])
        assert independence_number(graph) == 3
        assert independence_polynomial(graph) == (IntPolynomial.monomial(1) + 1) ** 3

    def test_cap(self):
        # the cap counts classes of twins: 25 of them are refused, while 25
        # vertices in one class run
        with pytest.raises(CapacityError, match="at most 24 twin classes, got 25"):
            independence_polynomial(twin_free_disconnected(25))
        graph = Graph.from_edges([f"v{i}" for i in range(25)], [])
        assert independence_polynomial(graph) == (IntPolynomial.monomial(1) + 1) ** 25

    def test_search_depth_not_bounded_by_recursion_limit(self):
        graph = Graph.from_edges([f"v{i}" for i in range(1500)], [])
        assert independence_number(graph) == 1500

    def test_clique_search_depth_not_bounded_by_recursion_limit(self):
        # K1500 has no twins, so the clique search takes its vertices one at
        # a time, 1500 levels deep; built from its rows, not its 1.1 M edges
        full = (1 << 1500) - 1
        graph = Graph(
            labels=tuple(f"v{i}" for i in range(1500)),
            adj=tuple(full ^ (1 << u) for u in range(1500)),
        )
        start = perf_counter()
        assert clique_number(graph) == 1500
        assert perf_counter() - start < 2.0

    def test_search_depth_without_twins(self):
        # The edgeless graph above is one class of twins, so its quotient has
        # one vertex. Here a 56-clique K is joined to 1500 independent
        # vertices, each missing a different set of at most two vertices of K:
        # no two vertices are twins, and the search excludes K one vertex at
        # a time, then takes the 1500 one at a time, about 1556 levels deep.
        k = 56
        missed = [()] + [(a,) for a in range(k)] + list(combinations(range(k), 2))
        edges = list(combinations(range(k), 2))
        for i, gaps in enumerate(missed[:1500]):
            edges += [(k + i, a) for a in range(k) if a not in gaps]
        graph = Graph.from_edges([f"v{i}" for i in range(k + 1500)], edges)
        assert len(twin_classes(graph)) == graph.vertex_count
        assert independence_number(graph) == 1500

    @pytest.mark.parametrize(
        "graph, alpha",
        [
            (matching_graph(20), 20),
            (path_graph(40), 20),
            (cycle_graph(41), 20),
        ],
        ids=["perfect-matching-40", "path-40", "cycle-41"],
    )
    def test_sparse_graphs_without_twins(self, graph, alpha):
        # no class collapses here, and the size + weight bound alone leaves
        # the search exponential; the matching bound prunes it
        assert len(twin_classes(graph)) == graph.vertex_count
        start = perf_counter()
        assert independence_number(graph) == alpha
        assert perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_maximum_set_count_positive(self, n):
        graph = ncg(n)
        alpha = independence_number(graph)
        poly = independence_polynomial(graph)
        assert poly.degree() == alpha
        assert poly.coefficient(alpha) >= 1


class TestVertexCover:
    def test_tau(self):
        assert vertex_cover_number(ncg(1)) == 3
        assert vertex_cover_number(ncg(2)) == 6

    def test_polynomials(self):
        assert vertex_cover_polynomial(ncg(1)) == IntPolynomial.from_terms(
            [(3, 1), (4, 5), (5, 1)]
        )
        assert vertex_cover_polynomial(K2) == IntPolynomial.from_terms([(1, 2), (2, 1)])

    def test_minimum_cover_size_is_lowest_exponent(self):
        for graph in (ncg(1), ncg(2), path_graph(4), complete_graph(4)):
            poly = vertex_cover_polynomial(graph)
            lowest = min(e for e, _ in poly.terms())
            assert lowest == vertex_cover_number(graph)

    def test_covers_checked_directly(self):
        # every counted size-2 cover of P4 really covers each edge
        graph = path_graph(4)
        poly = vertex_cover_polynomial(graph)
        direct = 0
        for combo in combinations(range(4), 2):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in edge_pairs(graph)):
                direct += 1
        assert poly.coefficient(2) == direct


class TestCliqueAndChromatic:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_clique_number_is_four(self, n):
        assert clique_number(ncg(n)) == 4

    def test_complete_graph_clique(self):
        assert clique_number(complete_graph(5)) == 5

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chromatic_number_is_four(self, n):
        assert chromatic_number(ncg(n)) == 4

    def test_even_cycle(self):
        assert chromatic_number(cycle_graph(4)) == 2

    def test_odd_cycle(self):
        assert chromatic_number(cycle_graph(5)) == 3

    def test_cap(self):
        with pytest.raises(CapacityError, match="at most 40 twin classes, got 41"):
            chromatic_number(twin_free_disconnected(41))
        graph = Graph.from_edges([f"v{i}" for i in range(41)], [])
        assert chromatic_number(graph) == 1

    def test_first_dsatur_colouring_is_not_optimal(self):
        # twin-free, so the search runs on the graph itself
        edges = "01 02 04 05 06 07 08 13 14 15 16 18 23 24 25 26 27 34 47 57 67 68 78"
        graph = Graph.from_edges(
            [f"v{i}" for i in range(9)], [(int(e[0]), int(e[1])) for e in edges.split()]
        )
        assert len(twin_classes(graph)) == 9
        assert dsatur_upper_bound(graph) == 5
        assert chromatic_number(graph) == 4

    def test_long_odd_cycle_needs_no_recursion(self):
        start = perf_counter()
        assert chromatic_number(cycle_graph(999), cap=10**6) == 3
        assert perf_counter() - start < 5.0


class TestResolvingSets:
    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            metric_dimension(DISCONNECTED)

    def test_metric_dimension(self):
        assert metric_dimension(ncg(1)) == 3
        assert metric_dimension(ncg(2)) == 6
        assert metric_dimension(path_graph(4)) == 1

    def test_metric_dimension_at_scale(self):
        # 3000 vertices in 4 twin classes: the sweep tests 2^4 class patterns,
        # so the time is the disagreement masks, not the vertex count
        graph = ncg(600)
        twin_classes(graph)  # built before the clock starts, as in a report
        start = perf_counter()
        assert metric_dimension(graph, cap=10**6) == 2996
        assert perf_counter() - start < 0.2

    def test_metric_dimension_without_twins_at_the_cap(self):
        # no twins, so all 2^20 vertex subsets are tested
        graph = path_graph(20)
        start = perf_counter()
        assert metric_dimension(graph) == 1
        assert perf_counter() - start < 2.0

    def test_metric_dimension_cap(self):
        with pytest.raises(CapacityError):
            metric_dimension(path_graph(21))

    def test_resolving_polynomial_n1(self):
        poly, seq = resolving_polynomial(ncg(1))
        assert poly == IntPolynomial.from_terms([(3, 6), (4, 5), (5, 1)])
        assert seq.beta == 3
        assert seq.counts == (6, 5, 1)

    def test_resolving_polynomial_n2(self):
        poly, seq = resolving_polynomial(ncg(2))
        assert str(poly) == "32*x^6 + 56*x^7 + 36*x^8 + 10*x^9 + x^10"
        assert seq.counts == (32, 56, 36, 10, 1)

    def test_resolving_polynomial_k2(self):
        poly, seq = resolving_polynomial(K2)
        assert poly == IntPolynomial.from_terms([(1, 2), (2, 1)])
        assert seq.beta == 1

    def test_resolving_polynomial_cap(self):
        with pytest.raises(CapacityError):
            resolving_polynomial(path_graph(17))

    # resolving sets checked by their distance vectors, tied to the engines
    def test_known_resolving_set_n1(self):
        graph = ncg(1)
        witness = [vid(graph, "a"), vid(graph, "ab"), vid(graph, "b")]
        assert resolves_by_vectors(distance_matrix(graph), witness)
        assert metric_dimension(graph) == len(witness)

    def test_known_non_resolving_set_n1(self):
        graph = ncg(1)
        assert not resolves_by_vectors(distance_matrix(graph), [vid(graph, "a"), vid(graph, "ab")])

    def test_full_vertex_set_resolves(self):
        for graph in (ncg(1), ncg(2), path_graph(5)):
            v = graph.vertex_count
            assert resolves_by_vectors(distance_matrix(graph), range(v))
            assert resolving_polynomial(graph)[0].coefficient(v) == 1

    def test_supersets_of_resolving_sets_resolve(self):
        graph = ncg(1)
        v = graph.vertex_count
        dist = distance_matrix(graph)
        minimal = [
            set(c) for c in combinations(range(v), 3) if resolves_by_vectors(dist, c)
        ]
        poly, _ = resolving_polynomial(graph)
        assert len(minimal) == poly.coefficient(3)
        supersets = set()
        for base in minimal:
            for extra in range(v):
                if extra not in base:
                    assert resolves_by_vectors(dist, base | {extra})
                    supersets.add(frozenset(base | {extra}))
        assert len(supersets) == poly.coefficient(4)

    @pytest.mark.parametrize("graph", [ncg(1), ncg(2), path_graph(4), complete_graph(3)])
    def test_top_two_counts(self, graph):
        _, seq = resolving_polynomial(graph)
        assert seq.counts[-1] == 1
        assert seq.counts[-2] == graph.vertex_count


def naive_detour_matrix(graph):
    """Longest simple paths by plain DFS over all paths; independent of
    the subset DP it checks."""
    v = graph.vertex_count
    neighbours = [[u for u in range(v) if graph.has_edge(w, u)] for w in range(v)]
    best = [[0] * v for _ in range(v)]

    def dfs(start, current, visited, length):
        if length > best[start][current]:
            best[start][current] = length
        for nxt in neighbours[current]:
            if nxt not in visited:
                visited.add(nxt)
                dfs(start, nxt, visited, length + 1)
                visited.remove(nxt)

    for s in range(v):
        dfs(s, s, {s}, 0)
    return best


def spread_detours(graph, cap=invariants._DETOUR_CAP):
    """All-pairs detour distances: the DP's class-pair values spread over
    the class members, 0 on the diagonal."""
    best = invariants._class_detours(graph, cap)
    index = invariants._class_index(graph)
    return tuple(
        tuple(best[a][index[w]] if u != w else 0 for w in range(graph.vertex_count))
        for u, a in enumerate(index)
    )


class TestDetourAgainstNaiveSearch:
    @given(random_graphs(max_vertices=7))
    @settings(max_examples=60)
    def test_matrix_matches_path_enumeration(self, graph):
        assume(is_connected(graph))
        expected = naive_detour_matrix(graph)
        assert [list(row) for row in spread_detours(graph)] == expected


def resolves_by_vectors(dist, members):
    """Reference resolving test: the representation vectors of all
    vertices, sorted, contain no repeat."""
    reps = sorted(tuple(row[w] for w in members) for row in dist)
    return all(reps[i] != reps[i + 1] for i in range(len(reps) - 1))


def naive_resolving_counts(graph):
    """Resolving sets by size, each subset tested by its distance
    vectors; independent of the disagreement masks it checks."""
    v = graph.vertex_count
    dist = distance_matrix(graph)
    return [
        sum(1 for combo in combinations(range(v), k) if resolves_by_vectors(dist, combo))
        for k in range(v + 1)
    ]


def naive_cover_counts(graph):
    """Vertex covers by size, each subset checked edge by edge."""
    v = graph.vertex_count
    edges = edge_pairs(graph)
    return [
        sum(
            1
            for combo in combinations(range(v), k)
            if all(a in combo or b in combo for a, b in edges)
        )
        for k in range(v + 1)
    ]


class TestResolvingAgainstDirectEnumeration:
    @pytest.mark.parametrize("graph", [ncg(1), cycle_graph(5), path_graph(4)])
    def test_counts_match_subset_checks(self, graph):
        poly, _ = resolving_polynomial(graph)
        expected = naive_resolving_counts(graph)
        assert [poly.coefficient(k) for k in range(graph.vertex_count + 1)] == expected

    @given(random_graphs())
    @settings(max_examples=60)
    def test_engines_match_distance_vectors(self, graph):
        assume(is_connected(graph))
        v = graph.vertex_count
        expected = naive_resolving_counts(graph)
        poly, seq = resolving_polynomial(graph)
        assert [poly.coefficient(k) for k in range(v + 1)] == expected
        beta = next(k for k, c in enumerate(expected) if c)
        assert seq.beta == beta
        assert metric_dimension(graph) == beta


class TestCoverAgainstDirectEnumeration:
    @given(random_graphs())
    @settings(max_examples=60)
    def test_counts_match_edge_checks(self, graph):
        poly = vertex_cover_polynomial(graph)
        expected = naive_cover_counts(graph)
        assert [poly.coefficient(k) for k in range(graph.vertex_count + 1)] == expected


class TestRandomGraphProperties:
    @given(random_graphs())
    def test_alpha_plus_tau_is_vertex_count(self, graph):
        assert independence_number(graph) + vertex_cover_number(graph) == graph.vertex_count

    @given(random_graphs())
    def test_clique_at_most_chromatic(self, graph):
        assert clique_number(graph) <= chromatic_number(graph)

    @given(random_graphs())
    def test_cover_polynomial_is_reversed_independence_polynomial(self, graph):
        v = graph.vertex_count
        ind = independence_polynomial(graph)
        cover = vertex_cover_polynomial(graph)
        assert cover == IntPolynomial.from_terms((v - e, c) for e, c in ind.terms())

    @given(random_graphs())
    def test_degree_sum_is_twice_edges(self, graph):
        total = sum(graph.degree(v) for v in range(graph.vertex_count))
        assert total == 2 * graph.edge_count()

    @given(random_graphs(max_vertices=6))
    @settings(max_examples=50)
    def test_independence_counts_against_direct_enumeration(self, graph):
        v = graph.vertex_count
        poly = independence_polynomial(graph)
        for k in range(v + 1):
            direct = sum(
                1
                for combo in combinations(range(v), k)
                if all(not graph.has_edge(a, b) for a, b in combinations(combo, 2))
            )
            assert poly.coefficient(k) == direct


# -- 2^V subset engines, kept as oracles for the twin-class engines ------

def subset_independence_polynomial(graph):
    """Independent sets by size over all 2^V subsets: S is independent iff
    S minus its lowest vertex is, and that vertex has no neighbour in the
    rest."""
    v = graph.vertex_count
    counts = [0] * (v + 1)
    counts[0] = 1
    independent = bytearray(1 << v)
    independent[0] = 1
    for subset in range(1, 1 << v):
        low = subset & -subset
        rest = subset ^ low
        if independent[rest] and not graph.adj[low.bit_length() - 1] & rest:
            independent[subset] = 1
            counts[subset.bit_count()] += 1
    return IntPolynomial.from_terms(enumerate(counts))


def pair_disagreement_masks(graph):
    """One mask per vertex pair: the vertices whose distances to the two
    differ, sparsest first; raises on a disconnected graph."""
    dist = distance_matrix(graph)
    if any(UNREACHABLE in row for row in dist):
        raise DisconnectedGraphError("resolving sets require a connected graph")
    v = graph.vertex_count
    masks = []
    for a in range(v):
        for b in range(a + 1, v):
            masks.append(sum(1 << w for w in range(v) if dist[a][w] != dist[b][w]))
    masks.sort(key=int.bit_count)
    return masks


def bfs_disagreement_masks(graph):
    """The resolving masks by a BFS over all V vertices from each class's
    first member, sparsest first: the vertices whose distances to two
    firsts differ, kept when all of them are firsts, since any other
    vertex is always chosen."""
    v_count = graph.vertex_count
    everything = (1 << v_count) - 1
    firsts = [members[0] for members in twin_classes(graph)]
    others = everything ^ sum(1 << u for u in firsts)
    layers = [_bfs_layers(graph, u) for u in firsts]
    if any(sum(layer) != everything for layer in layers):
        raise DisconnectedGraphError("resolving sets require a connected graph")
    masks = set()
    for i in range(len(firsts)):
        for j in range(i + 1, len(firsts)):
            same = 0
            for a, b in zip(layers[i], layers[j]):
                same |= a & b
            mask = everything ^ same
            if not mask & others:
                masks.add(mask)
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def first_member_masks(graph):
    """_disagreement_masks with class k's bit moved to its first member."""
    firsts = [members[0] for members in twin_classes(graph)]
    return [sum(1 << firsts[k] for k in _bits(mask)) for mask in _disagreement_masks(graph)]


def hits_all(subset, masks):
    return all(subset & mask for mask in masks)


def subset_resolving_counts(graph):
    """Resolving sets by size over all 2^V subsets."""
    v = graph.vertex_count
    masks = pair_disagreement_masks(graph)
    counts = [0] * (v + 1)
    for subset in range(1 << v):
        if hits_all(subset, masks):
            counts[subset.bit_count()] += 1
    return counts


def gosper_masks(v, k):
    """All k-subsets of range(v) as bitmasks, ascending."""
    if k == 0:
        yield 0
        return
    subset = (1 << k) - 1
    while subset < 1 << v:
        yield subset
        low = subset & -subset
        ripple = subset + low
        subset = (((ripple ^ subset) >> 2) // low) | ripple


def gosper_metric_dimension(graph):
    """Smallest resolving set, subsets by increasing size (colex within
    each size), stopping at the first hit."""
    v = graph.vertex_count
    masks = pair_disagreement_masks(graph)
    for k in range(v + 1):
        for subset in gosper_masks(v, k):
            if hits_all(subset, masks):
                return k
    raise AssertionError("a connected graph is resolved by its full vertex set")


def subset_detour_matrix(graph):
    """Longest simple paths by a DP over (visited subset, endpoint) states,
    each keeping the bitmask of possible path starts."""
    v = graph.vertex_count
    if v == 0:
        return ()
    if not is_connected(graph):
        raise DisconnectedGraphError("detour distance requires a connected graph")
    starts = [0] * ((1 << v) * v)
    for u in range(v):
        starts[(1 << u) * v + u] = 1 << u
    longest = [0] * (v * v)
    for subset in range(1, 1 << v):
        row = (subset.bit_count() - 1) * v
        for w in range(v):
            sm = starts[subset * v + w]
            if not sm:
                continue
            longest[row + w] |= sm
            for x in range(v):
                if graph.adj[w] >> x & 1 and not subset >> x & 1:
                    starts[(subset | 1 << x) * v + x] |= sm
    matrix = [[0] * v for _ in range(v)]
    for w in range(v):
        assigned = 0
        for length in range(v - 1, -1, -1):
            fresh = longest[length * v + w] & ~assigned
            assigned |= fresh
            for u in range(v):
                if fresh >> u & 1:
                    matrix[u][w] = length
    return tuple(tuple(r) for r in matrix)


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


def assert_engines_match_oracles(graph):
    v = graph.vertex_count
    expected = subset_independence_polynomial(graph)
    assert independence_polynomial(graph) == expected
    assert vertex_cover_polynomial(graph) == IntPolynomial.from_terms(
        (v - k, c) for k, c in expected.terms()
    )
    if not is_connected(graph):
        for engine in (resolving_polynomial, metric_dimension, detour_polynomial):
            with pytest.raises(DisconnectedGraphError):
                engine(graph)
        return
    counts = subset_resolving_counts(graph)
    poly, seq = resolving_polynomial(graph)
    assert [poly.coefficient(k) for k in range(v + 1)] == counts
    beta = next(k for k, c in enumerate(counts) if c)
    assert (seq.beta, seq.counts) == (beta, tuple(counts[beta:]))
    assert metric_dimension(graph) == gosper_metric_dimension(graph) == beta
    assert spread_detours(graph) == subset_detour_matrix(graph)


class TestTwinClassEnginesAgainstSubsetOracles:
    @given(random_graphs(max_vertices=10, min_vertices=0))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, graph):
        assert_engines_match_oracles(graph)

    @given(twin_blowups())
    @settings(max_examples=60, deadline=None)
    def test_planted_twin_blowups(self, graph):
        assert_engines_match_oracles(graph)

    @pytest.mark.parametrize("n", [1, 2])
    def test_non_commuting_graphs(self, n):
        assert_engines_match_oracles(ncg(n))

    @pytest.mark.parametrize("v", [0, 1])
    def test_tiny_graphs(self, v):
        graph = Graph.from_edges([f"v{i}" for i in range(v)], [])
        assert_engines_match_oracles(graph)
        assert independence_polynomial(graph) == (IntPolynomial.monomial(1) + 1) ** v
        assert resolving_polynomial(graph)[1].beta == 0
        assert spread_detours(graph) == ((0,),) * v

    @pytest.mark.parametrize("v", [2, 3])
    @pytest.mark.parametrize(
        "engine", [metric_dimension, resolving_polynomial, eccentricities, detour_polynomial]
    )
    def test_one_class_of_twins_without_neighbours_is_disconnected(self, engine, v):
        # the twin quotient is one vertex, connected, yet no path joins the twins
        graph = Graph.from_edges([f"v{i}" for i in range(v)], [])
        assert len(twin_classes(graph)) == 1
        with pytest.raises(DisconnectedGraphError):
            engine(graph)

    @pytest.mark.parametrize(
        "engine, cap",
        [
            (independence_polynomial, DEFAULT_CAPS.indep),
            (vertex_cover_polynomial, DEFAULT_CAPS.indep),
            (resolving_polynomial, DEFAULT_CAPS.resolving),
            (metric_dimension, DEFAULT_CAPS.metric),
            (chromatic_number, DEFAULT_CAPS.chromatic),
            (detour_polynomial, invariants._DETOUR_CAP),
        ],
    )
    def test_one_vertex_over_the_cap_is_refused_before_any_work(self, engine, cap):
        # twin-free, so one class per vertex, and disconnected: the cap is
        # checked before anything
        graph = twin_free_disconnected(cap + 1)
        assert len(twin_classes(graph)) == cap + 1
        assert not is_connected(graph)
        with pytest.raises(CapacityError):
            engine(graph)

    @given(random_graphs(max_vertices=9))
    @settings(max_examples=60, deadline=None)
    def test_masks_are_the_distinct_pair_masks(self, graph):
        assume(is_connected(graph))
        assume(len(twin_classes(graph)) == graph.vertex_count)
        pairs = set(pair_disagreement_masks(graph))
        masks = _disagreement_masks(graph)
        assert len(set(masks)) == len(masks)
        assert [m.bit_count() for m in masks] == sorted(m.bit_count() for m in masks)
        assert set(masks) == pairs

    @given(twin_blowups())
    @settings(max_examples=60, deadline=None)
    def test_class_masks_match_the_full_graph_bfs(self, graph):
        assume(is_connected(graph))
        assert first_member_masks(graph) == bfs_disagreement_masks(graph)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_class_masks_match_the_full_graph_bfs_on_ncg(self, n):
        graph = ncg(n)
        assert first_member_masks(graph) == bfs_disagreement_masks(graph)

    @given(twin_blowups(max_vertices=10))
    @settings(max_examples=40, deadline=None)
    def test_resolving_counts_match_distance_vectors_with_twins(self, graph):
        assume(is_connected(graph))
        poly, _ = resolving_polynomial(graph)
        expected = naive_resolving_counts(graph)
        assert [poly.coefficient(k) for k in range(graph.vertex_count + 1)] == expected


def shift_unpacking_independence_polynomial(graph):
    """The twin-quotient recursion of independence_polynomial with its
    earlier packing: x = 2^(V + 1), each class gain a big-int power, and
    one shift of the whole packed int per coefficient."""
    quotient, sizes = graph._twin_quotient
    adj = quotient.adj
    v_count = graph.vertex_count
    width = v_count + 1
    gain = [((1 << width) + 1) ** size - 1 for size in sizes]
    memo = {0: 1}

    def count(mask):
        total = memo.get(mask)
        if total is None:
            total, rest = 1, mask
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                total += gain[v] * count(rest & ~adj[v])
            memo[mask] = total
        return total

    packed = count((1 << quotient.vertex_count) - 1)
    digit = (1 << width) - 1
    return IntPolynomial.from_terms(
        (k, packed >> (k * width) & digit) for k in range(v_count + 1)
    )


class TestBytePackingAgainstShiftUnpacking:
    @given(random_graphs(max_vertices=18, min_vertices=0))
    @settings(max_examples=100, deadline=None)
    def test_random_graphs(self, graph):
        expected = shift_unpacking_independence_polynomial(graph)
        assert independence_polynomial(graph) == expected

    @given(twin_blowups(max_vertices=20))
    @settings(max_examples=100, deadline=None)
    def test_planted_twin_blowups(self, graph):
        # up to 5 classes of up to 4 twins: V crosses the byte widths at 8 and 16
        expected = shift_unpacking_independence_polynomial(graph)
        assert independence_polynomial(graph) == expected

    @pytest.mark.parametrize("n", [1, 5, 40, 200])
    def test_non_commuting_graphs(self, n):
        graph = ncg(n)
        assert independence_polynomial(graph) == shift_unpacking_independence_polynomial(graph)

    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 255, 256, 2000])
    def test_one_class_of_twins(self, size):
        # (1 + x)^size, with its central binomial near the top of a byte width
        graph = Graph.from_edges([f"v{i}" for i in range(size)], [])
        poly = independence_polynomial(graph)
        assert [poly.coefficient(k) for k in range(size + 1)] == [
            comb(size, k) for k in range(size + 1)
        ]


class TestCapsCountTwinClasses:
    """Γ(U(6n)) has 4 classes of twins at every n, so no class cap is
    reached, however many vertices there are."""

    def test_beta_past_the_old_vertex_cap(self):
        # the resolving sweep counts classes; β is its first nonzero count
        graph = ncg(5)  # U(30), 25 vertices
        assert graph.vertex_count > DEFAULT_CAPS.metric
        assert resolving_polynomial(graph)[1].beta == 21 == closed_forms.cf_metric_dimension(5)

    def test_metric_cap_still_counts_vertices(self):
        with pytest.raises(CapacityError, match="at most 20 vertices, got 25"):
            metric_dimension(ncg(5))
        assert metric_dimension(ncg(5), cap=25) == 21

    def test_resolving_polynomial_past_the_old_vertex_cap(self):
        poly, seq = resolving_polynomial(ncg(4))
        assert poly == closed_forms.cf_resolving_polynomial(4)
        assert seq.counts == closed_forms.cf_resolving_sequence(4)

    def test_chromatic_number_past_the_old_vertex_cap(self):
        graph = ncg(9)
        assert graph.vertex_count > DEFAULT_CAPS.chromatic
        assert chromatic_number(graph) == closed_forms.cf_chi_omega(9)

    def test_independence_polynomial_at_n200(self):
        graph = ncg(200)
        expected = closed_forms.cf_independence_polynomial(200)
        assert independence_polynomial(graph) == expected
        assert vertex_cover_polynomial(graph) == closed_forms.cf_vertex_cover_polynomial(200)

    def test_class_cap_refusals_name_twin_classes(self):
        graph = ncg(3)
        for engine in (resolving_polynomial, independence_polynomial, chromatic_number):
            with pytest.raises(CapacityError, match="at most 3 twin classes, got 4"):
                engine(graph, cap=3)


class TestClosedFormsPastTheOracles:
    """The 2^V oracles stop at V = 12; here classes of up to 2n twins meet
    the paper's closed forms."""

    @pytest.mark.parametrize("n", range(5, 11))
    def test_counting_engines_match_closed_forms(self, n):
        graph = ncg(n)
        big = 10**6
        poly, seq = resolving_polynomial(graph, cap=big)
        assert poly == closed_forms.cf_resolving_polynomial(n)
        assert seq.counts == closed_forms.cf_resolving_sequence(n)
        assert metric_dimension(graph, cap=big) == closed_forms.cf_metric_dimension(n)
        assert independence_polynomial(graph, cap=big) == closed_forms.cf_independence_polynomial(n)
        assert vertex_cover_polynomial(graph, cap=big) == closed_forms.cf_vertex_cover_polynomial(n)
        # one term C(V, 2) x^(5n-1) puts every pair at 5n - 1
        v = graph.vertex_count
        assert detour_polynomial(graph, cap=big) == IntPolynomial.monomial(5 * n - 1, comb(v, 2))


def blowup(sizes, joined):
    """Class i an independent set of sizes[i] twins, numbered in class
    order; classes a < b joined all-or-none, when (a, b) is in joined."""
    owner = [c for c, size in enumerate(sizes) for _ in range(size)]
    edges = [(a, b) for a, b in combinations(range(len(owner)), 2) if (owner[a], owner[b]) in joined]
    return Graph.from_edges([f"v{i}" for i in range(len(owner))], edges)


@st.composite
def dense_blowups(draw, max_vertices):
    """A base graph on 2-5 vertices keeping each edge with probability 3/4,
    each vertex replaced by an independent set of 1-6 twins; at most
    max_vertices vertices in all. Dense bases with large classes are where
    every pair tends to be joined by a path through all vertices."""
    m = draw(st.integers(min_value=2, max_value=5))
    keep = st.sampled_from((True, True, True, False))
    kept = {p for p in combinations(range(m), 2) if draw(keep)}
    sizes, room = [], max_vertices - m
    for _ in range(m):
        extra = draw(st.integers(min_value=0, max_value=min(5, room)))
        sizes.append(1 + extra)
        room -= extra
    return blowup(sizes, kept)


def dp_detour_polynomial(graph, cap=10**6):
    """The detour polynomial with Ore's verdict forced to False, so that
    the DP over count vectors answers every pair."""
    with patch.object(invariants, "_ore_condition", lambda graph: False):
        return detour_polynomial(graph, cap=cap)


def assert_ore_verdict_is_sound(graph):
    """Ore's condition is sufficient only: when it accepts, every two
    distinct vertices are at detour distance V - 1, and a graph it rejects
    may be at V - 1 too. Either way detour_polynomial gives the distances
    of the 2^V subset DP, the oracle."""
    accepted = _ore_condition(graph)
    if not is_connected(graph):
        assert not accepted
        return
    v = graph.vertex_count
    matrix = subset_detour_matrix(graph)
    if accepted:
        assert all(matrix[u][w] == v - 1 for u in range(v) for w in range(u + 1, v))
    assert detour_polynomial(graph) == IntPolynomial.from_terms(
        (matrix[u][w], 1) for u in range(v) for w in range(u + 1, v)
    )


@st.composite
def dense_many_class_blowups(draw):
    """7-9 classes of 1-3 twins, 16-18 vertices in all, each class pair
    joined with probability 7/8: dense enough that most pass Ore's
    condition."""
    v = draw(st.integers(min_value=16, max_value=18))
    m = draw(st.integers(min_value=7, max_value=9))
    sizes, room = [], v
    for left in reversed(range(m)):  # the classes after this one
        size = draw(st.integers(min_value=max(1, room - 3 * left), max_value=min(3, room - left)))
        sizes.append(size)
        room -= size
    keep = st.sampled_from((True,) * 7 + (False,))
    return blowup(sizes, {p for p in combinations(range(m), 2) if draw(keep)})


class TestDetourOnTheTwinQuotient:
    """Every pair at detour distance V - 1 is shown by Ore's degree
    condition, one check per pair of twin classes, at a cost independent
    of the class sizes; every graph that fails it goes to the DP over
    count vectors, under the cap on vertices."""

    @given(twin_blowups())
    @settings(max_examples=100, deadline=None)
    def test_planted_twin_blowups(self, graph):
        assert_ore_verdict_is_sound(graph)

    @given(random_graphs(max_vertices=8))
    @settings(max_examples=100, deadline=None)
    def test_random_graphs(self, graph):
        assert_ore_verdict_is_sound(graph)

    @given(dense_blowups(max_vertices=12))
    @settings(max_examples=100, deadline=None)
    def test_dense_twin_blowups(self, graph):
        assert_ore_verdict_is_sound(graph)

    @pytest.mark.parametrize("v", [0, 1, 2, 3])
    def test_one_class_of_twins(self, v):
        # no edges: a single vertex has no pairs, more are disconnected
        graph = Graph.from_edges([f"v{i}" for i in range(v)], [])
        assert _ore_condition(graph) == (v <= 1)

    @given(dense_blowups(max_vertices=30))
    @settings(max_examples=100, deadline=None)
    def test_past_the_cap_against_the_dp(self, graph):
        # up to 5 classes of up to 6 twins: V crosses the detour cap of 15
        assume(is_connected(graph))
        if _ore_condition(graph):
            assert detour_polynomial(graph) == dp_detour_polynomial(graph)
        elif graph.vertex_count > invariants._DETOUR_CAP:
            with pytest.raises(CapacityError):
                detour_polynomial(graph)

    @pytest.mark.parametrize("n", [*range(1, 11), 40, 1000])
    def test_closed_forms_at_default_caps(self, n):
        # the class of 2n twins has degree 3n, and 6n > V = 5n: Ore's
        # condition settles the graph, so the DP never runs
        def refused(graph, cap):
            raise AssertionError("Ore's condition should settle this graph")

        graph = ncg(n)
        with patch.object(invariants, "_class_detours", refused):
            assert detour_polynomial(graph) == closed_forms.cf_detour_polynomial(n)
            assert detour_index(graph) == closed_forms.cf_detour_index(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_dp_agrees_on_non_commuting_graphs(self, n):
        assert dp_detour_polynomial(ncg(n)) == closed_forms.cf_detour_polynomial(n)

    @pytest.mark.parametrize("k", [2, 3])
    def test_degree_sums_of_exactly_v_are_not_enough(self, k):
        # K_{k,k}: two non-adjacent vertices of one side have degree sum
        # 2k = V, one short of Ore's condition, and no path through all
        # vertices joins them, since its ends lie on opposite sides
        graph = complete_bipartite(k)
        assert {row.bit_count() for row in graph.adj} == {k}
        assert 2 * k == graph.vertex_count
        assert not _ore_condition(graph)
        assert detour_polynomial(graph) == dp_detour_polynomial(graph)

    def test_the_dp_answers_what_ore_rejects(self):
        # the wheel W5, a hub on C5: two rim vertices apart have degree sum
        # 3 + 3 = V, so Ore's condition fails, yet every two vertices are
        # joined by a path through all six, which the DP finds
        graph = Graph.from_edges(
            [f"w{i}" for i in range(6)],
            [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)],
        )
        assert len(twin_classes(graph)) == graph.vertex_count == 6
        assert not _ore_condition(graph)
        assert detour_polynomial(graph) == IntPolynomial.monomial(5, 15)

    def test_the_dp_refuses_what_the_quotient_leaves(self):
        # a star of 20 leaves: one leaf class of 20 twins, which a path
        # through the centre cannot cover, so the DP and its cap decide
        graph = Graph.from_edges([f"s{i}" for i in range(21)], [(0, i) for i in range(1, 21)])
        assert not _ore_condition(graph)
        message = "^detour_polynomial handles at most 15 vertices, got 21$"
        with pytest.raises(CapacityError, match=message):
            detour_polynomial(graph)
        # 20 centre-leaf pairs at 1, C(20, 2) leaf pairs at 2
        expected = IntPolynomial.from_terms([(1, 20), (2, comb(20, 2))])
        assert detour_polynomial(graph, cap=21) == dp_detour_polynomial(graph) == expected


class TestOreSettlesAnyNumberOfClasses:
    """Ore's condition runs at every number of twin classes, so a graph
    past the detour cap that passes it is answered without the DP; one
    that fails it goes to the DP and its cap, even when every pair is at
    V - 1."""

    def test_k16_past_the_cap(self):
        # 16 classes of one vertex, each of degree 15: 30 > 16
        graph = complete_graph(16)
        expected = IntPolynomial.monomial(15, comb(16, 2))
        assert detour_polynomial(graph) == expected
        assert dp_detour_polynomial(graph, cap=16) == expected

    @given(dense_many_class_blowups())
    @settings(max_examples=40, deadline=None)
    def test_many_classes_past_the_cap(self, graph):
        assume(len(twin_classes(graph)) > 6 and _ore_condition(graph))
        v = graph.vertex_count
        expected = IntPolynomial.monomial(v - 1, comb(v, 2))
        assert detour_polynomial(graph) == expected
        assert dp_detour_polynomial(graph, cap=v) == expected

    def test_a_hamilton_connected_graph_that_fails_ore_is_refused(self):
        # classes A, B, C, D of 4, 5, 3 and 4 twins: B is joined to A, C and
        # D, and A to D, so C hangs off B alone. Two members of C have
        # degree 5 + 5 <= V = 16 and fail Ore's condition, yet every two
        # vertices are joined by a path through all 16
        graph = blowup((4, 5, 3, 4), {(0, 1), (1, 2), (1, 3), (0, 3)})
        assert len(twin_classes(graph)) == 4
        assert not _ore_condition(graph)
        message = "^detour_polynomial handles at most 15 vertices, got 16$"
        with pytest.raises(CapacityError, match=message):
            detour_polynomial(graph)
        assert detour_polynomial(graph, cap=16) == IntPolynomial.monomial(15, comb(16, 2))


# -- full-graph searches, kept as oracles for the twin-quotient ones ------

def full_independence_number(graph):
    """Unweighted branch and bound over every vertex of the graph."""
    adj = graph.adj
    best = 0
    stack = [((1 << graph.vertex_count) - 1, 0)]
    while stack:
        mask, size = stack.pop()
        if size + mask.bit_count() <= best:
            continue
        if not mask:
            best = size
            continue
        pivot = max(_bits(mask), key=lambda u: (adj[u] & mask).bit_count())
        stack.append((mask & ~(1 << pivot), size))
        stack.append((mask & ~(adj[pivot] | (1 << pivot)), size + 1))
    return best


def full_clique_number(graph):
    """Bron-Kerbosch with pivoting over every vertex of the graph."""
    adj = graph.adj
    best = 0

    def expand(size, candidates, excluded):
        nonlocal best
        if not candidates and not excluded:
            best = max(best, size)
            return
        if size + candidates.bit_count() <= best:
            return
        pivot = max(
            _bits(candidates | excluded),
            key=lambda u: (adj[u] & candidates).bit_count(),
        )
        for v in _bits(candidates & ~adj[pivot]):
            expand(size + 1, candidates & adj[v], excluded & adj[v])
            candidates &= ~(1 << v)
            excluded |= 1 << v

    expand(0, (1 << graph.vertex_count) - 1, 0)
    return best


def dsatur_upper_bound(graph):
    """Colours used by the DSATUR heuristic."""
    v_count = graph.vertex_count
    adj = graph.adj
    colors = [-1] * v_count
    neighbour_colors = [set() for _ in range(v_count)]
    used = 0
    for _ in range(v_count):
        v = max(
            (u for u in range(v_count) if colors[u] < 0),
            key=lambda u: (len(neighbour_colors[u]), adj[u].bit_count(), -u),
        )
        c = 0
        while c in neighbour_colors[v]:
            c += 1
        colors[v] = c
        used = max(used, c + 1)
        for u in _bits(adj[v]):
            neighbour_colors[u].add(c)
    return used


def is_k_colorable(graph, k):
    """Backtracking decision search, one recursion level per vertex."""
    v_count = graph.vertex_count
    adj = graph.adj
    order = sorted(range(v_count), key=lambda v: -adj[v].bit_count())
    colors = [-1] * v_count

    def assign(i, used):
        if i == v_count:
            return True
        v = order[i]
        forbidden = 0
        for u in _bits(adj[v]):
            if colors[u] >= 0:
                forbidden |= 1 << colors[u]
        # allowing at most one brand-new colour breaks colour symmetry
        for c in range(min(used + 1, k)):
            if not (forbidden >> c) & 1:
                colors[v] = c
                if assign(i + 1, max(used, c + 1)):
                    return True
        colors[v] = -1
        return False

    return assign(0, 0)


def full_chromatic_number(graph):
    """Clique bound, DSATUR bound and backtracking on the whole graph."""
    if graph.vertex_count == 0:
        return 0
    if graph.edge_count() == 0:
        return 1
    lower, upper = full_clique_number(graph), dsatur_upper_bound(graph)
    return next((k for k in range(lower, upper) if is_k_colorable(graph, k)), upper)


def complement(graph):
    full = (1 << graph.vertex_count) - 1
    rows = tuple(full ^ row ^ (1 << u) for u, row in enumerate(graph.adj))
    return Graph(labels=graph.labels, adj=rows)


def per_vertex_eccentricities(graph):
    """One eccentricity, hence one BFS, per vertex."""
    return tuple(eccentricity(graph, v) for v in range(graph.vertex_count))


def assert_quotient_searches_match_oracles(graph):
    assert independence_number(graph) == full_independence_number(graph)
    assert clique_number(graph) == full_clique_number(graph)
    assert chromatic_number(graph) == full_chromatic_number(graph)
    if is_connected(graph):
        eccs = per_vertex_eccentricities(graph)
        assert eccentricities(graph) == eccs
        assert total_eccentricity_polynomial(graph) == IntPolynomial.from_terms(
            (e, 1) for e in eccs
        )
        assert eccentric_connectivity_polynomial(graph) == IntPolynomial.from_terms(
            (e, graph.degree(v)) for v, e in enumerate(eccs)
        )
    else:
        with pytest.raises(DisconnectedGraphError):
            per_vertex_eccentricities(graph)
        for engine in (
            eccentricities,
            total_eccentricity_polynomial,
            eccentric_connectivity_polynomial,
        ):
            with pytest.raises(DisconnectedGraphError):
                engine(graph)


class TestTwinQuotientSearchesAgainstFullGraphOracles:
    @given(random_graphs(max_vertices=12, min_vertices=0))
    @settings(max_examples=100, deadline=None)
    def test_random_graphs(self, graph):
        assert_quotient_searches_match_oracles(graph)

    @given(twin_blowups())
    @settings(max_examples=100, deadline=None)
    def test_planted_twin_blowups(self, graph):
        assert_quotient_searches_match_oracles(graph)

    @given(twin_blowups().map(complement))
    @settings(max_examples=100, deadline=None)
    def test_complements_of_twin_blowups(self, graph):
        # the blown-up classes become true twins, which the false-twin
        # quotient keeps apart and its complement holds as false twins
        assert_quotient_searches_match_oracles(graph)

    @given(random_graphs(max_vertices=24, min_vertices=13))
    @settings(max_examples=40, deadline=None)
    def test_chromatic_number_on_larger_twin_free_graphs(self, graph):
        assume(len(twin_classes(graph)) == graph.vertex_count)
        assert chromatic_number(graph) == full_chromatic_number(graph)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_non_commuting_graphs(self, n):
        assert_quotient_searches_match_oracles(ncg(n))

    @pytest.mark.parametrize("v", [0, 1])
    def test_tiny_graphs(self, v):
        graph = Graph.from_edges([f"v{i}" for i in range(v)], [])
        assert_quotient_searches_match_oracles(graph)
        assert eccentricities(graph) == (0,) * v
