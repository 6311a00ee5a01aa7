from math import comb

import pytest

from u6n_ncg.closed_forms import (
    cf_alpha,
    cf_center,
    cf_centralizer,
    cf_chi_omega,
    cf_degree,
    cf_detour_index,
    cf_detour_polynomial,
    cf_eccentric_connectivity_polynomial,
    cf_edge_count,
    cf_independence_polynomial,
    cf_metric_dimension,
    cf_omega_classes,
    cf_partition_sizes,
    cf_resolving_polynomial,
    cf_resolving_roots,
    cf_resolving_sequence,
    cf_tau,
    cf_total_eccentricity_polynomial,
    cf_vertex_cover_polynomial,
)
from u6n_ncg.groups import U6nElement, u6n_group
from u6n_ncg.polynomials import IntPolynomial


class TestScalars:
    def test_degrees(self):
        assert cf_degree(1, 2) == 8
        assert cf_degree(2, 1) == 4
        assert cf_degree(4, 2) == 6
        with pytest.raises(ValueError):
            cf_degree(5, 2)

    def test_edge_count(self):
        assert cf_edge_count(1) == 9
        assert cf_edge_count(2) == 36
        assert cf_edge_count(10) == 900

    def test_alpha_tau_chi(self):
        assert cf_alpha(3) == 6
        assert cf_tau(1) == 3
        assert cf_chi_omega(7) == 4

    @pytest.mark.parametrize("n", range(1, 21))
    def test_alpha_plus_tau_is_5n(self, n):
        assert cf_alpha(n) + cf_tau(n) == 5 * n

    def test_partition_sizes(self):
        assert cf_partition_sizes(2) == (2, 2, 2, 4)

    def test_metric_dimension(self):
        assert cf_metric_dimension(1) == 3
        assert cf_metric_dimension(2) == 6
        assert cf_metric_dimension(5) == 21

    def test_invalid_n(self):
        for fn in (cf_edge_count, cf_alpha, cf_metric_dimension, cf_omega_classes, cf_center):
            with pytest.raises(ValueError):
                fn(0)


class TestResolvingFormulas:
    def test_n1_expansion(self):
        assert cf_resolving_polynomial(1) == IntPolynomial.from_terms(
            [(3, 6), (4, 5), (5, 1)]
        )

    def test_n2_expansion(self):
        assert str(cf_resolving_polynomial(2)) == "32*x^6 + 56*x^7 + 36*x^8 + 10*x^9 + x^10"

    @pytest.mark.parametrize("n", range(2, 7))
    def test_expansion_matches_counting_identities(self, n):
        poly = cf_resolving_polynomial(n)
        base = 5 * n - 4
        assert tuple(poly.coefficient(base + i) for i in range(5)) == cf_resolving_sequence(n)
        assert poly.coefficient(base) == 2 * n**4

    def test_sequence_values(self):
        assert cf_resolving_sequence(1) == (6, 5, 1)
        assert cf_resolving_sequence(2) == (32, 56, 36, 10, 1)
        assert cf_resolving_sequence(3) == (162, 189, 81, 15, 1)

    def test_roots(self):
        assert cf_resolving_roots(1) == {0, -2, -3}
        assert cf_resolving_roots(2) == {0, -2, -4}
        assert cf_resolving_roots(3) == {0, -3, -6}

    @pytest.mark.parametrize("n", range(2, 21))
    def test_roots_annihilate_the_polynomial(self, n):
        poly = cf_resolving_polynomial(n)
        for root in cf_resolving_roots(n):
            assert poly.evaluate(root) == 0


class TestDetourFormulas:
    def test_values(self):
        assert cf_detour_polynomial(1) == IntPolynomial.monomial(4, 10)
        assert cf_detour_polynomial(2) == IntPolynomial.monomial(9, 45)
        assert cf_detour_polynomial(3) == IntPolynomial.monomial(14, 105)
        assert cf_detour_index(1) == 40
        assert cf_detour_index(2) == 405
        assert cf_detour_index(3) == 1470

    @pytest.mark.parametrize("n", range(1, 21))
    def test_index_is_derivative_at_one(self, n):
        assert cf_detour_polynomial(n).derivative_at_one() == cf_detour_index(n)


class TestEccentricityFormulas:
    def test_values(self):
        assert cf_total_eccentricity_polynomial(2).value == IntPolynomial.monomial(2, 10)
        assert cf_total_eccentricity_polynomial(3).value == IntPolynomial.monomial(2, 15)
        assert cf_eccentric_connectivity_polynomial(2).value == IntPolynomial.monomial(2, 72)
        assert cf_eccentric_connectivity_polynomial(3).value == IntPolynomial.monomial(2, 162)

    def test_validity_flags(self):
        theta1 = cf_total_eccentricity_polynomial(1)
        assert theta1.applies is False
        assert theta1.value == IntPolynomial.monomial(2, 5)
        assert cf_eccentric_connectivity_polynomial(2).applies is True


class TestCountingPolynomials:
    def test_independence_values(self):
        assert cf_independence_polynomial(1) == IntPolynomial.from_terms(
            [(0, 1), (1, 5), (2, 1)]
        )
        assert cf_independence_polynomial(2) == IntPolynomial.from_terms(
            [(0, 1), (1, 10), (2, 9), (3, 4), (4, 1)]
        )

    def test_vertex_cover_values(self):
        assert cf_vertex_cover_polynomial(1) == IntPolynomial.from_terms(
            [(3, 1), (4, 5), (5, 1)]
        )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cover_is_reversed_independence(self, n):
        ind = cf_independence_polynomial(n)
        cover = cf_vertex_cover_polynomial(n)
        assert cover == IntPolynomial.from_terms((5 * n - e, c) for e, c in ind.terms())

    @pytest.mark.parametrize("n", range(1, 61))
    def test_independence_counts_match_comb(self, n):
        # the running products against math.comb, term by term
        expected = [(0, 1)]
        expected += [(k, comb(2 * n, k) + 3 * comb(n, k)) for k in range(1, n + 1)]
        expected += [(k, comb(2 * n, k)) for k in range(n + 1, 2 * n + 1)]
        assert cf_independence_polynomial(n).terms() == tuple(expected)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_total_independent_set_count(self, n):
        expected = 1 + 3 * (2**n - 1) + (2 ** (2 * n) - 1)
        assert cf_independence_polynomial(n).evaluate(1) == expected

    @pytest.mark.parametrize("n", range(1, 21))
    def test_degree_sum_identity(self, n):
        sizes = {1: n, 2: n, 3: n, 4: 2 * n}
        total = sum(sizes[c] * cf_degree(c, n) for c in (1, 2, 3, 4))
        assert total == 2 * cf_edge_count(n)


class TestOmegaClasses:
    def test_n1_explicit(self):
        labels = u6n_group(1).labels
        named = [sorted(labels[i] for i in c) for c in cf_omega_classes(1)]
        assert named == [["a"], ["ab"], ["ab^2"], ["b", "b^2"]]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sizes(self, n):
        assert tuple(map(len, cf_omega_classes(n))) == (n, n, n, 2 * n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_classes_partition_the_non_central_elements(self, n):
        g = u6n_group(n)
        classes = cf_omega_classes(n)
        union = frozenset().union(*classes)
        assert union == frozenset(range(g.order)) - g.center()
        assert sum(map(len, classes)) == len(union)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_classes_and_center_are_read_off_the_table(self, n):
        # the non-central elements grouped by their computed centralizer
        g = u6n_group(n)
        by_centralizer: dict[frozenset[int], set[int]] = {}
        for x in frozenset(range(g.order)) - g.center():
            by_centralizer.setdefault(g.centralizer(x), set()).add(x)
        assert set(map(frozenset, by_centralizer.values())) == set(cf_omega_classes(n))
        assert cf_center(n) == g.center()


class TestCentralizerFormulas:
    def test_class1(self):
        got = cf_centralizer(1, U6nElement(1, 0), 2)
        labels = u6n_group(2).labels
        assert sorted(labels[i] for i in got) == ["1", "a", "a^2", "a^3"]

    def test_class4_at_n1(self):
        got = cf_centralizer(4, U6nElement(0, 1), 1)
        assert got == {0, 1, 2}

    def test_class2_at_n1(self):
        got = cf_centralizer(2, U6nElement(1, 1), 1)
        labels = u6n_group(1).labels
        assert sorted(labels[i] for i in got) == ["1", "ab"]

    def test_mismatched_representative(self):
        with pytest.raises(ValueError, match="not in omega class"):
            cf_centralizer(1, U6nElement(0, 1), 2)
        with pytest.raises(ValueError, match="out of range"):
            cf_centralizer(1, U6nElement(5, 0), 2)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_predictions_match_computed_centralizers(self, n):
        g = u6n_group(n)
        for cls, members in enumerate(cf_omega_classes(n), start=1):
            for x in members:
                rep = U6nElement(x // 3, x % 3)
                predicted = cf_centralizer(cls, rep, n)
                assert g.centralizer(x) == predicted

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sizes(self, n):
        reps = {1: U6nElement(1, 0), 2: U6nElement(1, 1), 3: U6nElement(1, 2), 4: U6nElement(0, 1)}
        for cls, size in ((1, 2 * n), (2, 2 * n), (3, 2 * n), (4, 3 * n)):
            assert len(cf_centralizer(cls, reps[cls], n)) == size
