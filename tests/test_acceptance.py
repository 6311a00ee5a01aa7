"""Acceptance suite: every headline result at its exact value, one
pass/fail line per criterion (run with -s to see them), with the agreed
wall-clock budgets enforced."""

import io
import json
from contextlib import redirect_stdout
from time import perf_counter

import pytest

from u6n_ncg import closed_forms
from u6n_ncg.cli import cli_main
from u6n_ncg.graphs import find_induced, is_complete_multipartite, is_k_regular, non_commuting_graph
from u6n_ncg.groups import u6n_group
from u6n_ncg.invariants import (
    chromatic_number,
    clique_number,
    detour_polynomial,
    eccentric_connectivity_polynomial,
    eccentricities,
    independence_number,
    independence_polynomial,
    metric_dimension,
    resolving_polynomial,
    total_eccentricity_polynomial,
    vertex_cover_number,
    vertex_cover_polynomial,
)
from u6n_ncg.polynomials import IntPolynomial, integer_roots
from u6n_ncg.verify import verify_all


def criterion(number, description, budget_seconds, body):
    start = perf_counter()
    ok = False
    try:
        body()
        elapsed = perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )
        ok = True
    finally:
        elapsed = perf_counter() - start
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {number:02d} {verdict} ({elapsed:6.2f}s)  {description}")


def graphs_up_to(limit):
    for n in range(1, limit + 1):
        yield n, non_commuting_graph(u6n_group(n))


def test_criterion_01_edge_count():
    def body():
        for n, graph in graphs_up_to(6):
            assert graph.edge_count() == 9 * n * n

    criterion(1, "edge count 9n^2 for n=1..6", 1.0, body)


def test_criterion_02_degrees():
    def body():
        for n in range(1, 7):
            g = u6n_group(n)
            graph = non_commuting_graph(g)
            center = g.center()
            non_central = [x for x in range(g.order) if x not in center]
            vertex_of = {x: i for i, x in enumerate(non_central)}
            for cls_index, members in enumerate(closed_forms.cf_omega_classes(n), start=1):
                expected = closed_forms.cf_degree(cls_index, n)
                for x in members:
                    degree = graph.degree(vertex_of[x])
                    assert degree == g.order - len(g.centralizer(x))
                    assert degree == expected

    criterion(2, "degrees equal |G|-|C(x)| and the 4n/3n class values, n=1..6", 1.0, body)


def test_criterion_03_multipartite_structure():
    def body():
        for n in range(1, 7):
            g = u6n_group(n)
            graph = non_commuting_graph(g)
            parts = is_complete_multipartite(graph)
            assert parts is not None
            assert sorted(map(len, parts)) == sorted([n, n, n, 2 * n])
            part_labels = {frozenset(graph.labels[v] for v in c) for c in parts}
            omega_labels = {
                frozenset(g.labels[x] for x in c)
                for c in closed_forms.cf_omega_classes(n)
            }
            assert part_labels == omega_labels

    criterion(3, "complete multipartite with classes = omega partition, n=1..6", 1.0, body)


def test_criterion_04_alpha_tau_omega_chi():
    def body():
        for n, graph in graphs_up_to(4):
            alpha = independence_number(graph)
            tau = vertex_cover_number(graph)
            assert alpha == 2 * n
            assert tau == 3 * n
            assert alpha + tau == 5 * n
            assert clique_number(graph) == 4
            assert chromatic_number(graph) == 4

    criterion(4, "alpha=2n, tau=3n, alpha+tau=5n, omega=chi=4 for n=1..4", 5.0, body)


def test_criterion_05_forbidden_subgraphs():
    def body():
        for _, graph in graphs_up_to(12):
            assert find_induced(graph, "cycle_5") is None
            assert find_induced(graph, "path_4") is None

    criterion(5, "no induced C5 and no induced P4, exhaustive for n=1..12", 10.0, body)


def test_criterion_06_regularity():
    def body():
        for n in range(1, 7):
            g = u6n_group(n)
            graph = non_commuting_graph(g)
            omega1, omega2, omega3, _ = closed_forms.cf_omega_classes(n)
            center = g.center()
            non_central = [x for x in range(g.order) if x not in center]
            vertex_of = {x: i for i, x in enumerate(non_central)}
            keep = sorted(vertex_of[x] for x in omega1 | omega2 | omega3)
            assert is_k_regular(graph.induced_subgraph(keep)) == 2 * n
            assert is_k_regular(graph) is None

    criterion(6, "omega123 subgraph is 2n-regular, full graph is not, n=1..6", 1.0, body)


def test_criterion_07_metric_dimension():
    def body():
        expected = {1: 3, 2: 6, 3: 11}
        for n, graph in graphs_up_to(3):
            assert metric_dimension(graph) == expected[n]
            assert metric_dimension(graph) == closed_forms.cf_metric_dimension(n)

    criterion(7, "metric dimension 3 at n=1 and 5n-4 at n=2,3 by enumeration", 30.0, body)


def test_criterion_08_resolving_polynomial():
    def body():
        for n, graph in graphs_up_to(3):
            poly, seq = resolving_polynomial(graph)
            assert poly == closed_forms.cf_resolving_polynomial(n)
            assert seq.counts == closed_forms.cf_resolving_sequence(n)
            if n >= 2:
                assert seq.counts == (2 * n**4, 7 * n**3, 9 * n**2, 5 * n, 1)
            for root in closed_forms.cf_resolving_roots(n):
                assert poly.evaluate(root) == 0
            assert set(integer_roots(poly)) == closed_forms.cf_resolving_roots(n)

    criterion(8, "resolving polynomial, sequence and roots by 2^V enumeration, n=1..3", 60.0, body)


def test_criterion_09_detour():
    def body():
        for n, graph in graphs_up_to(3):
            # one term, C(5n, 2) x^(5n-1), puts every pair at 5n - 1
            poly = detour_polynomial(graph)
            assert poly == IntPolynomial.monomial(5 * n - 1, 5 * n * (5 * n - 1) // 2)
            assert poly.derivative_at_one() == 5 * n * (5 * n - 1) ** 2 // 2

    criterion(9, "detour distance 5n-1 on every pair, polynomial and index, n=1..3", 60.0, body)


def test_criterion_10_eccentricity_polynomials():
    def body():
        for n in range(2, 7):
            graph = non_commuting_graph(u6n_group(n))
            assert total_eccentricity_polynomial(graph) == IntPolynomial.monomial(2, 5 * n)
            assert eccentric_connectivity_polynomial(graph) == IntPolynomial.monomial(
                2, 18 * n * n
            )
        graph1 = non_commuting_graph(u6n_group(1))
        assert total_eccentricity_polynomial(graph1) == IntPolynomial.from_terms(
            [(1, 3), (2, 2)]
        )
        assert eccentric_connectivity_polynomial(graph1) == IntPolynomial.from_terms(
            [(1, 12), (2, 6)]
        )
        report = verify_all(1)
        statuses = {e.name: e.status for e in report.entries}
        assert statuses["total_eccentricity_polynomial"] == "known_paper_exception"
        assert statuses["eccentric_connectivity_polynomial"] == "known_paper_exception"
        assert not report.has_mismatch()

    criterion(10, "theta=5nx^2 and xi=18n^2x^2 for n=2..6; recorded exception at n=1", 1.0, body)


def test_criterion_11_counting_polynomials():
    def body():
        for n, graph in graphs_up_to(4):
            ind = independence_polynomial(graph)
            cover = vertex_cover_polynomial(graph)
            assert ind == closed_forms.cf_independence_polynomial(n)
            assert cover == closed_forms.cf_vertex_cover_polynomial(n)
            assert cover == IntPolynomial.from_terms(
                (5 * n - e, c) for e, c in ind.terms()
            )

    criterion(11, "independence and vertex-cover polynomials by enumeration, n=1..4", 30.0, body)


def test_criterion_12_property_suite():
    def body():
        # polynomial ring axioms over a fixed small family
        x = IntPolynomial.monomial(1)
        family = [
            IntPolynomial(),
            IntPolynomial.constant(-3),
            IntPolynomial.constant(2),
            x,
            2 * x + 1,
            x**2 + -1 * x,
            3 * x**3 + -2 * x + 1,
            x**4 + 3,
        ]
        for p in family:
            for q in family:
                assert p + q == q + p
                assert p * q == q * p
                for r in family:
                    assert (p + q) + r == p + (q + r)
                    assert (p * q) * r == p * (q * r)
                    assert p * (q + r) == p * q + p * r

        # top two resolving counts are (vertex count, 1)
        for n in (1, 2, 3):
            graph = non_commuting_graph(u6n_group(n))
            _, seq = resolving_polynomial(graph)
            assert seq.counts[-1] == 1
            assert seq.counts[-2] == 5 * n

        # Lagrange divisibility of centralizer sizes
        for n in range(1, 7):
            g = u6n_group(n)
            for element in range(g.order):
                assert g.order % len(g.centralizer(element)) == 0

    criterion(12, "ring axioms, top resolving counts, Lagrange", 60.0, body)


def test_criterion_13_cli_contract():
    def body():
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["verify", "--n", "2", "--format", "json"])
        assert code == 0
        report = json.loads(buffer.getvalue())
        assert all(e["status"] == "match" for e in report["entries"])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(closed_forms, "cf_edge_count", lambda n: 0)
            with redirect_stdout(io.StringIO()):
                assert cli_main(["verify", "--n", "2", "--format", "json"]) == 2

    criterion(13, "CLI verify exits 0 on all-match, 2 on a corrupted closed form", 60.0, body)
