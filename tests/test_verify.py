import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from u6n_ncg import closed_forms, graphs, invariants, verify
from u6n_ncg.graphs import find_induced, is_complete_multipartite, is_k_regular, non_commuting_graph
from u6n_ncg.groups import u6n_group
from u6n_ncg.invariants import Caps, CapacityError, DEFAULT_CAPS
from u6n_ncg.polynomials import IntPolynomial, integer_roots
from u6n_ncg.verify import verify_all


def entry_map(report):
    return {e.name: e for e in report.entries}


# each engine a report calls, and the entries that turn into `error` when
# it raises: the entries that call it, and those whose engine calls it
CALLERS = {
    (invariants, "independence_number"): {"alpha", "tau"},
    (invariants, "vertex_cover_number"): {"tau"},
    (invariants, "clique_number"): {"omega"},
    (invariants, "chromatic_number"): {"chi"},
    (invariants, "metric_dimension"): {"metric_dimension"},
    (invariants, "resolving_polynomial"): {
        "resolving_polynomial",
        "resolving_sequence",
        "resolving_roots",
    },
    (verify, "integer_roots"): {"resolving_roots"},
    (invariants, "detour_polynomial"): {"detour_distances", "detour_polynomial", "detour_index"},
    (invariants, "detour_index"): {"detour_index"},
    (invariants, "eccentricities"): {"eccentricities"},
    (invariants, "total_eccentricity_polynomial"): {"total_eccentricity_polynomial"},
    (invariants, "eccentric_connectivity_polynomial"): {"eccentric_connectivity_polynomial"},
    (invariants, "independence_polynomial"): {"independence_polynomial", "vertex_cover_polynomial"},
    (invariants, "vertex_cover_polynomial"): {"vertex_cover_polynomial"},
    (verify, "is_complete_multipartite"): {"partition_sizes", "partition_classes"},
    (verify, "find_induced"): {"no_induced_c5", "no_induced_p4"},
    (verify, "is_k_regular"): {"full_graph_not_regular"},
}


class TestStatuses:
    def test_n2_all_match(self):
        report = verify_all(2)
        assert {e.status for e in report.entries} == {"match"}
        assert not report.has_mismatch()

    def test_n1_known_exceptions(self):
        report = verify_all(1)
        exceptions = {
            e.name for e in report.entries if e.status == "known_paper_exception"
        }
        assert exceptions == {
            "eccentricities",
            "total_eccentricity_polynomial",
            "eccentric_connectivity_polynomial",
        }
        others = [e for e in report.entries if e.name not in exceptions]
        assert all(e.status == "match" for e in others)
        assert not report.has_mismatch()

    def test_n4_all_match(self):
        # Ore's condition settles every pair at 5n - 1; the metric cap of 20
        # admits the 20 vertices, and the other caps count the 4 twin classes
        report = verify_all(4)
        by_name = entry_map(report)
        assert {e.status for e in report.entries} == {"match"}
        assert by_name["metric_dimension"].computed == 16
        assert by_name["detour_distances"].computed == (19,)
        assert by_name["detour_index"].computed == 3610

    def test_n1000_default_caps_skip_metric_only(self):
        # 5000 vertices, still 4 twin classes: only the metric cap, which
        # counts vertices, is reached
        report = verify_all(1000)
        skipped = sorted(e.name for e in report.entries if e.status == "skipped_cap")
        assert skipped == ["metric_dimension"]
        assert report.counts()["match"] == 31

    def test_cap_overrides(self):
        # n = 2: 10 vertices in 4 twin classes
        tight = Caps(resolving=3, metric=3, indep=3, chromatic=3)
        report = verify_all(2, caps=tight)
        skipped = {e.name for e in report.entries if e.status == "skipped_cap"}
        assert skipped == {
            "resolving_polynomial",
            "resolving_sequence",
            "resolving_roots",
            "metric_dimension",
            "chi",
            "independence_polynomial",
            "vertex_cover_polynomial",
        }
        # cap-free entries still run, detour among them: Ore's condition
        # settles it
        by_name = entry_map(report)
        assert by_name["edge_count"].status == "match"
        assert by_name["detour_polynomial"].status == "match"
        # a class cap of 4 admits the graph, a metric cap of 10 its vertices
        exact = Caps(resolving=4, metric=10, indep=4, chromatic=4)
        assert {e.status for e in verify_all(2, caps=exact).entries} == {"match"}

    def test_corrupted_closed_form_reports_mismatch(self, monkeypatch):
        monkeypatch.setattr(closed_forms, "cf_edge_count", lambda n: 9 * n * n + 1)
        report = verify_all(2)
        assert entry_map(report)["edge_count"].status == "mismatch"
        assert report.has_mismatch()

    def test_engine_exception_becomes_error_entry(self, monkeypatch):
        def broken(graph):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(invariants, "independence_number", broken)
        report = verify_all(2)
        by_name = entry_map(report)
        # tau reaches the engine through vertex_cover_number
        for name in ("alpha", "tau"):
            entry = by_name[name]
            assert (entry.status, entry.computed) == ("error", None)
            assert entry.error == "RuntimeError: engine fault"
        assert report.counts()["error"] == 2
        assert not report.has_mismatch()
        assert by_name["vertex_cover_polynomial"].status == "match"

    def test_class_with_two_centralizers_lists_both(self, monkeypatch):
        # a first class holding one element of Ω1 and one of Ω4: the entry
        # lists each distinct centralizer, ordered by element indices
        g = u6n_group(2)
        omega1, omega2, omega3, omega4 = closed_forms.cf_omega_classes(2)
        x1, x4 = min(omega1), min(omega4)
        mixed = (frozenset({x1, x4}), omega2, omega3, omega4)
        monkeypatch.setattr(closed_forms, "cf_omega_classes", lambda n: mixed)
        entry = entry_map(verify_all(2))["centralizer_omega1"]
        centralizers = sorted(sorted(g.centralizer(x)) for x in (x1, x4))
        assert centralizers[0] != centralizers[1]
        assert entry.status == "mismatch"
        assert entry.computed == tuple(tuple(g.labels[y] for y in c) for c in centralizers)

    def test_independence_counts_are_computed_once(self, monkeypatch):
        # both entries call independence_polynomial, which reads the
        # polynomial the graph keeps
        calls = []
        real = invariants._independence_counts

        def counted(graph):
            calls.append(graph.vertex_count)
            return real(graph)

        monkeypatch.setattr(invariants, "_independence_counts", counted)
        by_name = entry_map(verify_all(2))
        assert calls == [10]
        for name in ("independence_polynomial", "vertex_cover_polynomial"):
            assert by_name[name].status == "match"

    def test_independence_cap_skips_the_cover_entry_too(self):
        by_name = entry_map(verify_all(2, caps=Caps(indep=3)))
        for name in ("independence_polynomial", "vertex_cover_polynomial"):
            assert (by_name[name].status, by_name[name].computed) == ("skipped_cap", None)

    @pytest.mark.parametrize("engine", CALLERS, ids=lambda engine: engine[1])
    def test_each_entry_calls_its_own_engine(self, monkeypatch, engine):
        module, name = engine

        def broken(*args, **kwargs):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(module, name, broken)
        report = verify_all(2)
        failed = {e.name for e in report.entries if e.status == "error"}
        assert failed == CALLERS[engine]
        assert {e.status for e in report.entries if e.name not in failed} == {"match"}

    @pytest.mark.parametrize("n", [0, -1, True, 2.0])
    def test_invalid_n(self, n):
        with pytest.raises(ValueError, match=re.escape(f"n must be a positive integer, got {n!r}")):
            verify_all(n)


def fresh_graph(n):
    return non_commuting_graph(u6n_group(n))


def omega123_degree(graph, n):
    """is_k_regular of the subgraph induced by Ω1–Ω3, built whole."""
    g = u6n_group(n)
    labels = {g.labels[x] for c in closed_forms.cf_omega_classes(n)[:3] for x in c}
    return is_k_regular(graph.induced_subgraph(v for v, l in enumerate(graph.labels) if l in labels))


def partition_sizes(graph):
    parts = is_complete_multipartite(graph)
    return None if parts is None else tuple(sorted(map(len, parts)))


def partition_classes(graph):
    parts = is_complete_multipartite(graph)
    if parts is None:
        return None
    return tuple(sorted(tuple(sorted(graph.labels[v] for v in c)) for c in parts))


# each entry that rests on a value the graph keeps or that a sibling entry
# reads too, as its public engine computes it alone
ALONE = {
    "partition_sizes": lambda graph, n, caps: partition_sizes(graph),
    "partition_classes": lambda graph, n, caps: partition_classes(graph),
    "alpha": lambda graph, n, caps: invariants.independence_number(graph),
    "tau": lambda graph, n, caps: invariants.vertex_cover_number(graph),
    "omega": lambda graph, n, caps: invariants.clique_number(graph),
    "chi": lambda graph, n, caps: invariants.chromatic_number(graph, cap=caps.chromatic),
    "no_induced_c5": lambda graph, n, caps: find_induced(graph, "cycle_5") is None,
    "no_induced_p4": lambda graph, n, caps: find_induced(graph, "path_4") is None,
    "regular_omega123": lambda graph, n, caps: omega123_degree(graph, n),
    "metric_dimension": lambda graph, n, caps: invariants.metric_dimension(graph, cap=caps.metric),
    "resolving_polynomial": lambda graph, n, caps: invariants.resolving_polynomial(
        graph, cap=caps.resolving
    )[0],
    "resolving_sequence": lambda graph, n, caps: invariants.resolving_polynomial(
        graph, cap=caps.resolving
    )[1].counts,
    "resolving_roots": lambda graph, n, caps: integer_roots(
        invariants.resolving_polynomial(graph, cap=caps.resolving)[0]
    ),
    "eccentricities": lambda graph, n, caps: tuple(sorted(set(invariants.eccentricities(graph)))),
    "total_eccentricity_polynomial": lambda graph, n, caps: (
        invariants.total_eccentricity_polynomial(graph)
    ),
    "eccentric_connectivity_polynomial": lambda graph, n, caps: (
        invariants.eccentric_connectivity_polynomial(graph)
    ),
    "detour_distances": lambda graph, n, caps: tuple(
        e for e, _ in invariants.detour_polynomial(graph).terms()
    ),
    "detour_polynomial": lambda graph, n, caps: invariants.detour_polynomial(graph),
    "detour_index": lambda graph, n, caps: invariants.detour_index(graph),
    "independence_polynomial": lambda graph, n, caps: invariants.independence_polynomial(
        graph, cap=caps.indep
    ),
    "vertex_cover_polynomial": lambda graph, n, caps: invariants.vertex_cover_polynomial(
        graph, cap=caps.indep
    ),
}

SINGLE_CAPS = ["metric=3", "resolving=3", "indep=3", "chromatic=3"]


class TestSharedValuesAgainstEnginesAlone:
    """Each entry whose engine reads a kept value equals what that engine
    returns alone on a graph built for it, so nothing is shared."""

    @staticmethod
    def check(n, caps):
        by_name = entry_map(verify_all(n, caps=caps))
        for name, engine in ALONE.items():
            entry = by_name[name]
            try:
                value = engine(fresh_graph(n), n, caps)
            except CapacityError:
                assert (entry.status, entry.computed) == ("skipped_cap", None), name
                continue
            assert entry.computed == value, name
            if value == entry.predicted:
                assert entry.status == "match", name
            else:
                assert entry.status in ("mismatch", "known_paper_exception"), name

    @pytest.mark.parametrize("n", range(1, 13))
    def test_default_caps(self, n):
        self.check(n, DEFAULT_CAPS)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("override", SINGLE_CAPS)
    def test_single_cap_overrides(self, n, override):
        name, value = override.split("=")
        self.check(n, Caps(**{name: int(value)}))


class TestKeptValuesAreComputedOncePerGraph:
    # the values a report computes, each once
    KEPT = {
        invariants: (
            "_resolving",
            "_independence_counts",
            "_ore_condition",
            "_class_layers",
            "_quotient_independence",
            "_clique_size",
        ),
    }
    # kept too, but read only by a P3 or C4 search, which no report runs:
    # the C5 and P4 entries search the twin quotient
    SEARCH_KEPT = {graphs: ("_two_per_class",)}

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {}
        for module, names in (*self.KEPT.items(), *self.SEARCH_KEPT.items()):
            for name in names:
                real = getattr(module, name)

                def counted(graph, real=real, name=name):
                    calls[name] += 1
                    return real(graph)

                calls[name] = 0
                monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("n", range(1, 5))
    def test_one_report_computes_each_once(self, calls, n):
        report = verify_all(n)
        assert calls == {**dict.fromkeys(calls, 1), "_two_per_class": 0}
        assert report == verify_all(n)

    def test_two_reports_compute_each_twice(self, calls):
        verify_all(3)
        verify_all(3)
        assert calls == {**dict.fromkeys(calls, 2), "_two_per_class": 0}

    def test_equal_graphs_never_share_a_value(self, calls):
        first, second = fresh_graph(2), fresh_graph(2)
        assert first == second and first is not second
        for graph in (first, second, first, second):
            invariants.metric_dimension(graph)
            invariants.independence_polynomial(graph)
            invariants.detour_polynomial(graph)
            invariants.eccentricities(graph)
            invariants.independence_number(graph)
            invariants.clique_number(graph)
            find_induced(graph, "path_3")
        assert calls == dict.fromkeys(calls, 2)
        assert first._memos == second._memos and first._memos is not second._memos

    def test_a_cap_refusal_computes_nothing(self, calls):
        graph = fresh_graph(2)
        with pytest.raises(CapacityError):
            invariants.metric_dimension(graph, cap=9)
        with pytest.raises(CapacityError):
            invariants.resolving_polynomial(graph, cap=3)
        with pytest.raises(CapacityError):
            invariants.chromatic_number(graph, cap=3)
        with pytest.raises(CapacityError):
            invariants.independence_polynomial(graph, cap=3)
        with pytest.raises(CapacityError):
            invariants.vertex_cover_polynomial(graph, cap=3)
        assert calls == dict.fromkeys(calls, 0)


class TestDeterminism:
    def test_entry_names_and_order_stable(self):
        first = [e.name for e in verify_all(2).entries]
        second = [e.name for e in verify_all(2).entries]
        assert first == second

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_reports_are_equal_across_runs(self, n):
        # a report depends only on n and the caps: reports and entries
        # are named tuples, compared whole, every value and status included
        assert verify_all(n) == verify_all(n)

    def test_same_entry_names_across_n(self):
        names1 = [e.name for e in verify_all(1).entries]
        names3 = [e.name for e in verify_all(3, caps=Caps(resolving=5)).entries]
        assert names1 == names3


class TestSerialization:
    def test_json_round_trip(self):
        obj = verify_all(2).to_json_obj()
        assert json.loads(json.dumps(obj)) == obj

    def test_json_schema(self):
        obj = verify_all(1).to_json_obj()
        assert obj["n"] == 1
        for entry in obj["entries"]:
            assert set(entry) == {"name", "predicted", "computed", "status"}

    def test_polynomials_serialize_as_terms(self):
        obj = verify_all(1).to_json_obj()
        by_name = {e["name"]: e for e in obj["entries"]}
        assert by_name["resolving_polynomial"]["predicted"] == {
            "terms": [[3, "6"], [4, "5"], [5, "1"]]
        }

    def test_skipped_entries_have_null_computed(self):
        # n = 5: 25 vertices, past the metric cap of 20
        obj = verify_all(5).to_json_obj()
        by_name = {e["name"]: e for e in obj["entries"]}
        assert by_name["metric_dimension"]["status"] == "skipped_cap"
        assert by_name["metric_dimension"]["computed"] is None

    def test_text_report_shows_a_skipped_value_as_dash(self):
        lines = verify_all(5).to_text().splitlines()
        row = next(line for line in lines if line.startswith("metric_dimension "))
        assert row.split() == ["metric_dimension", "skipped_cap", "21", "-"]

    def test_text_report_one_row_per_entry(self):
        report = verify_all(1)
        lines = report.to_text().splitlines()
        # title, header, rule, entries, summary
        assert len(lines) == len(report.entries) + 4
        assert lines[-1].startswith("n=1:")


labels = st.text() | st.sampled_from(['"', "\\", "\n", "é", "a^2b", "\u2028", "\U0001f600"])
report_scalars = (
    st.none() | st.booleans() | st.integers(min_value=-(10**40), max_value=10**40) | labels
)
# the zero polynomial among them: the empty map, or coefficients all zero
polynomials = st.dictionaries(
    st.integers(min_value=0, max_value=60), st.integers(min_value=-(10**40), max_value=10**40)
).map(IntPolynomial)
# what a report entry holds: scalars, polynomials, and tuples of them,
# nested, of one type (labels) or mixed
report_values = st.recursive(
    report_scalars | polynomials, lambda inner: st.lists(inner).map(tuple), max_leaves=40
)
reports = st.builds(
    verify.VerificationReport,
    n=st.integers(min_value=1, max_value=10**6),
    entries=st.lists(
        st.builds(
            verify.ReportEntry,
            name=labels,
            predicted=report_values,
            computed=report_values,
            status=st.sampled_from(["match", "mismatch", "skipped_cap", "error"]),
        ),
        max_size=4,
    ).map(tuple),
)


class TestRenderer:
    @given(report_values)
    def test_matches_json_dumps_with_indent(self, value):
        expected = json.dumps(verify._json_value(value), indent=2)
        assert verify._json_text(value, "\n") == expected
        # a value nested deeper carries the deeper indent on every line
        assert verify._json_text(value, "\n      ") == expected.replace("\n", "\n      ")

    @given(reports, st.integers(min_value=0, max_value=3))
    def test_report_matches_json_dumps_of_its_object(self, report, level):
        expected = json.dumps(report.to_json_obj(), indent=2)
        assert report.to_json(level) == expected.replace("\n", "\n" + "  " * level)

    @pytest.mark.parametrize(
        "value",
        [1.0, [1, 2.0], {"a": (True, 1.0)}, {1, 2}, frozenset(), object(), b"x", {1: "a"}],
    )
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            verify._json_text(value, "\n")
        with pytest.raises(TypeError):
            verify._json_text(("a", (1, value)), "\n")
        with pytest.raises(TypeError):
            verify.VerificationReport(1, (verify.ReportEntry("x", value, None, "match"),)).to_json()

    def test_reports_render_as_json_dumps_does(self):
        # a report alone is an object; the CLI tests check the array of a
        # range, one report long too
        for n in (1, 2):
            report = verify_all(n)
            assert report.to_json() == json.dumps(report.to_json_obj(), indent=2)
