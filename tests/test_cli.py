import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from u6n_ncg import cli, closed_forms, groups, invariants
from u6n_ncg.cli import cli_main
from u6n_ncg.graphs import export_graph, non_commuting_graph
from u6n_ncg.invariants import DEFAULT_CAPS, Caps
from u6n_ncg.verify import verify_all


class _Discard:
    """A stdout that keeps nothing."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_json_report_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 2
        assert all(e["status"] == "match" for e in report["entries"])

    def test_corrupted_closed_form_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(closed_forms, "cf_edge_count", lambda n: 1)
        code, out, _ = run(capsys, "verify", "--n", "2", "--format", "json")
        assert code == 2
        report = json.loads(out)
        statuses = {e["name"]: e["status"] for e in report["entries"]}
        assert statuses["edge_count"] == "mismatch"

    def test_known_exception_does_not_flip_exit_code(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1")
        assert code == 0
        assert "known_paper_exception" in out

    def test_range_produces_array(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-range", "1:2", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert [r["n"] for r in reports] == [1, 2]

    def test_range_json_matches_golden_report(self, capsys):
        # every reported value for n = 1..4, pinned byte for byte; the golden
        # file holds the bytes json.dumps(..., indent=2) writes
        code, out, _ = run(capsys, "verify", "--n-range", "1:4", "--format", "json")
        assert code == 0
        golden = (Path(__file__).parent / "data" / "verify_n1_4.json").read_text()
        assert out == golden
        assert golden == json.dumps(json.loads(golden), indent=2) + "\n"

    def test_range_text_matches_golden_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-range", "1:4")
        assert code == 0
        golden = Path(__file__).parent / "data" / "verify_n1_4.txt"
        assert out == golden.read_text()

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        "span, options, caps",
        [
            ("1:3", [], DEFAULT_CAPS),
            ("1:6", ["--caps", "metric=3"], Caps(metric=3)),
            ("2:2", [], DEFAULT_CAPS),
        ],
        ids=["1:3", "1:6-metric=3", "2:2"],
    )
    def test_range_is_every_report_in_one_document(self, capsys, fmt, span, options, caps):
        code, out, err = run(capsys, "verify", "--n-range", span, *options, "--format", fmt)
        first, last = map(int, span.split(":"))
        reports = [verify_all(n, caps=caps) for n in range(first, last + 1)]
        if fmt == "json":
            expected = json.dumps([r.to_json_obj() for r in reports], indent=2)
        else:
            expected = "\n\n".join(r.to_text() for r in reports)
        assert (code, out, err) == (0, expected + "\n", "")

    @pytest.mark.parametrize(
        "fmt, title", [("json", '"n": '), ("text", "non-commuting graph")], ids=["json", "text"]
    )
    def test_each_report_is_written_before_the_next_is_computed(self, monkeypatch, fmt, title):
        stream = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stream)
        written = []
        compute = cli.verify_all
        monkeypatch.setattr(
            cli, "verify_all", lambda n, caps: written.append(stream.getvalue()) or compute(n, caps=caps)
        )
        assert cli_main(["verify", "--n-range", "1:3", "--format", fmt]) == 0
        assert [text.count(title) for text in written] == [0, 1, 2]
        assert all(stream.getvalue().startswith(text) for text in written)

    def test_range_memory_is_that_of_its_largest_report(self, monkeypatch):
        # a range holds one report at a time: its peak is that of its last n
        monkeypatch.setattr(sys, "stdout", _Discard())
        peaks = []
        for span in (["--n", "120"], ["--n-range", "1:120"]):
            tracemalloc.start()
            try:
                assert cli_main(["verify", *span, "--format", "json"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        single, whole_range = peaks
        assert whole_range <= 2 * single, peaks

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2")
        assert code == 0
        assert "edge_count" in out and "match" in out

    def test_caps_override(self, capsys):
        # n = 2: the resolving cap counts its 4 twin classes, the metric cap
        # its 10 vertices; Ore's condition settles detour with no cap
        caps = "resolving=3,metric=9"
        code, out, _ = run(capsys, "verify", "--n", "2", "--caps", caps, "--format", "json")
        assert code == 0
        report = json.loads(out)
        statuses = {e["name"]: e["status"] for e in report["entries"]}
        assert statuses["detour_polynomial"] == "match"
        assert statuses["resolving_polynomial"] == "skipped_cap"
        assert statuses["metric_dimension"] == "skipped_cap"
        code, out, _ = run(
            capsys, "verify", "--n", "2", "--caps", "resolving=4,metric=10", "--format", "json"
        )
        statuses = {e["name"]: e["status"] for e in json.loads(out)["entries"]}
        assert statuses["metric_dimension"] == statuses["resolving_polynomial"] == "match"

    def test_engine_exception_is_an_error_entry_and_exits_three(self, capsys, monkeypatch):
        def broken(graph):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(invariants, "clique_number", broken)
        code, out, err = run(capsys, "verify", "--n", "2", "--format", "json")
        assert code == 3
        entries = {e["name"]: e for e in json.loads(out)["entries"]}
        assert entries["omega"]["status"] == "error"
        assert entries["omega"]["computed"] is None
        assert all(e["status"] == "match" for name, e in entries.items() if name != "omega")
        assert err == "u6n-ncg: error: n = 2, omega: RuntimeError: engine fault\n"

    def test_range_with_a_failing_engine_writes_every_report_then_the_errors(self, monkeypatch):
        def broken(graph):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(invariants, "clique_number", broken)
        # one stream for both, so the order of reports and error lines shows
        stream = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stream)
        monkeypatch.setattr(sys, "stderr", stream)
        code = cli_main(["verify", "--n-range", "1:3", "--format", "json"])
        reports = [verify_all(n) for n in (1, 2, 3)]
        assert code == 3
        assert stream.getvalue() == (
            json.dumps([r.to_json_obj() for r in reports], indent=2)
            + "\n"
            + "".join(f"u6n-ncg: error: n = {n}, omega: RuntimeError: engine fault\n" for n in (1, 2, 3))
        )

    def test_error_entry_takes_precedence_over_mismatch(self, capsys, monkeypatch):
        def broken(graph):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(invariants, "clique_number", broken)
        monkeypatch.setattr(closed_forms, "cf_edge_count", lambda n: 1)
        code, out, _ = run(capsys, "verify", "--n", "2", "--format", "json")
        assert code == 3
        statuses = {e["name"]: e["status"] for e in json.loads(out)["entries"]}
        assert statuses["omega"] == "error"
        assert statuses["edge_count"] == "mismatch"

    def test_bad_caps_key(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "2", "--caps", "bogus=3")
        assert code == 1
        assert "bogus" in err

    def test_detour_is_no_cap(self, capsys):
        # Ore's condition settles detour at every n, so no cap bounds it
        code, out, err = run(capsys, "verify", "--n", "2", "--caps", "detour=15")
        assert (code, out) == (1, "")
        assert err.startswith("u6n-ncg: error: unknown cap override 'detour=15'")

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "verify", "--n-range", "3")
        assert code == 1
        assert "A:B" in err

    @pytest.mark.parametrize("span", ["0:3", "2:1"])
    def test_empty_or_nonpositive_range(self, capsys, span):
        code, out, err = run(capsys, "verify", "--n-range", span)
        assert (code, out) == (1, "")
        assert err == f"u6n-ncg: error: --n-range '{span}' is empty or starts below 1\n"

    @pytest.mark.parametrize(
        "caps, message",
        [
            ("metric=-5", "cap override 'metric=-5' is negative"),
            ("resolving=4,indep=-1", "cap override 'indep=-1' is negative"),
            ("resolving=1,resolving=16", "cap override 'resolving=16' sets resolving a second time"),
            ("metric=20, metric=20", "cap override ' metric=20' sets metric a second time"),
        ],
    )
    def test_negative_or_repeated_cap_refused(self, capsys, caps, message):
        code, out, err = run(capsys, "verify", "--n", "1", "--caps", caps)
        assert (code, out) == (1, "")
        assert err == f"u6n-ncg: error: {message}\n"

    @pytest.mark.parametrize("caps", ["metric=x", "resolving=4,indep=1.5", "metric="])
    def test_non_integer_cap_refused(self, capsys, caps):
        item = caps.split(",")[-1]
        code, out, err = run(capsys, "verify", "--n", "1", "--caps", caps)
        assert (code, out) == (1, "")
        assert err == f"u6n-ncg: error: cap override {item!r} is not an integer\n"

    @pytest.mark.parametrize("span", ["x:3", "1:", "1:3:5", ":", "1.5:2"])
    def test_non_integer_range_refused(self, capsys, span):
        code, out, err = run(capsys, "verify", "--n-range", span)
        assert (code, out) == (1, "")
        assert err == f"u6n-ncg: error: --n-range wants A:B with integers A and B, got {span!r}\n"

    def test_huge_range_end_refused_before_the_range_is_built(self, capsys):
        # the end is checked against the table limit before any n of the
        # range is listed, so a range of 10^12 values costs nothing
        code, out, err = run(capsys, "verify", "--n-range", "1:1000000000000")
        assert (code, out) == (1, "")
        assert err == (
            "u6n-ncg: error: U(6n) at n = 1000000000000 needs a Cayley table of "
            f"{36 * 10**24} entries, over the limit of {groups._DENSE_TABLE_LIMIT}\n"
        )

    def test_zero_cap_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1", "--caps", "metric=0", "--format", "json")
        assert code == 0
        statuses = {e["name"]: e["status"] for e in json.loads(out)["entries"]}
        assert statuses["metric_dimension"] == "skipped_cap"

    def test_over_limit_range_refused_before_any_report(self, capsys, monkeypatch):
        reported = []
        verify_all = cli.verify_all
        monkeypatch.setattr(groups, "_DENSE_TABLE_LIMIT", 12 * 12)
        monkeypatch.setattr(
            cli, "verify_all", lambda n, caps: reported.append(n) or verify_all(n, caps=caps)
        )
        code, out, err = run(capsys, "verify", "--n-range", "1:3")
        assert (code, out, reported) == (1, "", [])
        assert err == (
            "u6n-ncg: error: U(6n) at n = 3 needs a Cayley table of 324 entries, "
            "over the limit of 144\n"
        )


class TestPolyCommand:
    def test_resolving_closed_matches_brute_text(self, capsys):
        code, out, _ = run(capsys, "poly", "resolving", "--n", "2")
        assert code == 0
        assert out.strip() == "32*x^6 + 56*x^7 + 36*x^8 + 10*x^9 + x^10"

    def test_both_sources_agree(self, capsys):
        code, out, _ = run(capsys, "poly", "independence", "--n", "1", "--source", "both")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "brute: 1 + 5*x + x^2"
        assert lines[1] == "closed: 1 + 5*x + x^2"

    def test_closed_source_skips_search(self, capsys):
        code, out, _ = run(capsys, "poly", "total-ecc", "--n", "1", "--source", "closed")
        assert code == 0
        assert out.strip() == "5*x^2"

    def test_cap_violation_exits_one(self, capsys):
        # 25 vertices in 4 twin classes: past the metric cap of 20 vertices,
        # within the resolving cap of 16 classes
        code, _, err = run(capsys, "graph", "--n", "5", "--invariant", "beta")
        assert code == 1
        assert err == "u6n-ncg: error: metric_dimension handles at most 20 vertices, got 25\n"
        code, out, _ = run(capsys, "poly", "resolving", "--n", "5")
        assert code == 0
        assert out.strip() == str(closed_forms.cf_resolving_polynomial(5))

    def test_closed_source_refuses_an_over_limit_n(self, capsys):
        # the closed-form counts grow as n^2 bits: the table limit that bounds
        # the brute source bounds this one too, before anything is built
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "poly", "independence", "--n", "20000", "--source", "closed"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == (
            "u6n-ncg: error: U(6n) at n = 20000 needs a Cayley table of 14400000000 "
            "entries, over the limit of 36000000\n"
        )
        assert peak < 1_000_000

    def test_closed_source_at_n1000_is_unchanged(self, capsys):
        code, out, _ = run(capsys, "poly", "independence", "--n", "1000", "--source", "closed")
        assert code == 0
        assert out.startswith("1 + 5000*x + 3497500*x^2 + 1829835000*x^3 + ")
        assert out.endswith(" + 1999000*x^1998 + 2000*x^1999 + x^2000\n")
        # the whole output, as it was before n was bounded
        digest = "cb462a7a3b86dfb4bf64cca35612ea3eff1bd9537c85e1402216c1c6b2a2bb41"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_unknown_kind(self, capsys):
        code, _, _ = run(capsys, "poly", "zeta", "--n", "2")
        assert code == 1

    def test_every_kind_has_its_own_engines(self, capsys):
        outputs = set()
        for kind in cli._POLY_KINDS:
            code, out, _ = run(capsys, "poly", kind, "--n", "2", "--source", "both")
            brute, closed = out.strip().splitlines()
            assert code == 0 and brute.removeprefix("brute: ") == closed.removeprefix("closed: ")
            outputs.add(brute)
        assert len(outputs) == len(cli._POLY_KINDS)


class TestExportCommand:
    def test_dot_n1(self, capsys):
        code, out, _ = run(capsys, "export", "--n", "1", "--format", "dot")
        assert code == 0
        lines = out.strip().splitlines()
        assert sum("label=" in line for line in lines) == 5
        assert sum("--" in line for line in lines) == 9

    def test_json_n1(self, capsys):
        code, out, _ = run(capsys, "export", "--n", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 5
        assert len(data["edges"]) == 9

    @pytest.mark.parametrize("n", [1, 7, 50])
    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_writes_the_text_of_export_graph(self, capsys, n, fmt):
        code, out, err = run(capsys, "export", "--n", str(n), "--format", fmt)
        graph = non_commuting_graph(groups.u6n_group(n))
        assert (code, out, err) == (0, export_graph(graph, fmt) + "\n", "")

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_export_peaks_no_higher_than_the_graph_build(self, monkeypatch, fmt):
        # the text (4.7 MB of DOT at n = 200) is written a row at a time, so
        # exporting costs no more memory than building the graph does
        monkeypatch.setattr(sys, "stdout", _Discard())
        peaks = []
        for argv in (["graph", "--n", "200", "--invariant", "edges"], ["export", "--n", "200", "--format", fmt]):
            tracemalloc.start()
            try:
                assert cli_main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        build, export = peaks
        assert export <= 1.1 * build, peaks


class TestBuildCommand:
    def test_u6n_summary(self, capsys):
        code, out, _ = run(capsys, "build", "--n", "2")
        assert code == 0
        assert "order: 12" in out
        assert "abelian: false" in out
        assert "center_size: 2" in out
        assert "parameter_n: 2" in out

    def test_table_summary(self, capsys, tmp_path):
        path = tmp_path / "c3.json"
        path.write_text(
            json.dumps({"labels": ["e", "g", "g2"], "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
        )
        code, out, _ = run(capsys, "build", "--table", str(path))
        assert code == 0
        assert "order: 3" in out
        assert "abelian: true" in out
        assert "parameter_n" not in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "build", "--table", str(tmp_path / "nope.json"))
        assert code == 1

    def test_invalid_table(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"labels": ["e", "x"], "table": [[0, 1], [1, 7]]}))
        code, _, err = run(capsys, "build", "--table", str(path))
        assert code == 1
        assert "closure" in err

    def test_oversized_table_exits_one(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(groups, "_DENSE_TABLE_LIMIT", 8)
        path = tmp_path / "c3.json"
        path.write_text(
            json.dumps({"labels": ["e", "g", "g2"], "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
        )
        code, _, err = run(capsys, "build", "--table", str(path))
        assert code == 1
        assert err.startswith("u6n-ncg: error:") and "over the limit of 8" in err

    @pytest.mark.parametrize(
        "doc",
        [{"labels": ["e", "x"], "table": 5}, {"labels": 5, "table": [[0, 1], [1, 0]]}],
    )
    def test_non_list_table_or_labels(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "build", "--table", str(path))
        assert code == 1
        assert err.startswith("u6n-ncg: error:")
        assert "Traceback" not in err

    def test_deeply_nested_json_exits_one(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, _, err = run(capsys, "build", "--table", str(path))
        assert code == 1
        assert err.startswith("u6n-ncg: error:") and "nested too deeply" in err
        assert "Traceback" not in err


class TestGraphCommand:
    @pytest.mark.parametrize(
        "invariant,expected",
        [
            ("edges", "81"),
            ("alpha", "6"),
            ("tau", "9"),
            ("omega", "4"),
            ("chi", "4"),
        ],
    )
    def test_invariants_n3(self, capsys, invariant, expected):
        code, out, _ = run(capsys, "graph", "--n", "3", "--invariant", invariant)
        assert code == 0
        assert out.strip() == expected

    def test_beta_n2(self, capsys):
        code, out, _ = run(capsys, "graph", "--n", "2", "--invariant", "beta")
        assert code == 0
        assert out.strip() == "6"

    def test_ecc_n1(self, capsys):
        code, out, _ = run(capsys, "graph", "--n", "1", "--invariant", "ecc")
        assert code == 0
        assert out.strip() == "1,2"

    def test_oversized_group_refused_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "graph", "--n", "100000", "--invariant", "edges")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert err.startswith("u6n-ncg: error:") and "limit" in err
        assert peak < 1_000_000

    def test_detour_index_n2(self, capsys):
        code, out, _ = run(capsys, "graph", "--n", "2", "--invariant", "detour-index")
        assert code == 0
        assert out.strip() == "405"

    @pytest.mark.parametrize(
        "invariant, engine",
        [("alpha", "independence_number"), ("omega", "clique_number"), ("beta", "metric_dimension")],
    )
    def test_engine_is_looked_up_when_called(self, capsys, monkeypatch, invariant, engine):
        monkeypatch.setattr(invariants, engine, lambda graph: "rebound")
        code, out, _ = run(capsys, "graph", "--n", "1", "--invariant", invariant)
        assert (code, out) == (0, "rebound\n")


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "2", "--frobnicate")
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "explode")
        assert code == 1

    def test_missing_required(self, capsys):
        code, _, _ = run(capsys, "graph", "--n", "2")
        assert code == 1

    def test_both_n_and_range_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "1", "--n-range", "1:2")
        assert code == 1

    def test_invalid_n_value(self, capsys):
        code, _, err = run(capsys, "build", "--n", "0")
        assert code == 1
        assert "positive" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "verify" in out

    def test_one_parser_serves_every_call(self, capsys):
        calls = [
            ("graph", "--n", "2"),
            ("verify", "--n", "2", "--format", "json"),
            ("graph", "--n", "2", "--invariant", "edges"),
        ]

        alone = []
        for argv in calls:
            cli._build_parser.cache_clear()
            alone.append(run(capsys, *argv))
        cli._build_parser.cache_clear()
        assert [run(capsys, *argv) for argv in calls] == alone
        assert [code for code, _, _ in alone] == [1, 0, 0]
        assert cli._build_parser.cache_info().misses == 1


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-m", "u6n_ncg.cli", "verify", "--n", "1", "--format", "json"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["n"] == 1

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--n", "1000", "--format", "json"], ["export", "--n", "1000", "--format", "dot"]],
        ids=["verify", "export"],
    )
    def test_out_of_memory_is_one_error_line(self, argv):
        # 64 MB of address space is short of the 72 MB Cayley table at
        # n = 1000; the limit is set in the child alone, before exec
        resource = pytest.importorskip("resource")

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))

        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-m", "u6n_ncg.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=limit_address_space,
            timeout=60,
        )
        assert result.returncode == 1
        assert result.stderr == "u6n-ncg: error: out of memory\n"
        assert "Traceback" not in result.stdout + result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n-range", "1:12", "--format", "json"],
            ["export", "--n", "100", "--format", "dot"],
        ],
        ids=["verify-range", "export"],
    )
    def test_a_reader_that_leaves_early_gets_no_error(self, argv):
        # as `u6n-ncg ... | head -1` does; each output is over 150 kB, more
        # than a pipe holds, so the writer meets the closed pipe
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        with subprocess.Popen(
            [sys.executable, "-m", "u6n_ncg.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            try:
                assert proc.stdout.readline()
                proc.stdout.close()
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()  # does nothing once the process has exited
        assert (proc.returncode, err) == (1, b"")
