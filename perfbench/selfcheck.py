"""Fast self-check of the benchmark harness on tiny inputs.

Run from the repository root, either way:

    python3 perfbench/selfcheck.py
    python3 -m pytest -q perfbench/selfcheck.py

It checks that every metric BENCHMARK.json names is emitted with its
unit, that the tracer restores the package when it is removed, and that
the correctness gate trips on doctored outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

CLI = run.load_cli()
TINY = (run.Query(1), run.Query(2), run.Query(2, "edges"), run.Query(2, "ecc"), run.Query(5, "beta"))


def _spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(trace: bool) -> dict:
    return run.run("tiny", TINY, seed=7, seconds=0.01, trace=trace, cli=CLI, setup_runs=1)["result"]


def _verify_output(n: int) -> dict:
    rc, out, _ = run.call(CLI, run.Query(n).argv())
    assert rc == 0
    return json.loads(out)


def _grade_verify(n: int, report: dict, rc: int = 0) -> list[str]:
    expected = run.expectations([run.Query(n)])[run.Query(n)]
    return gate.check_verify(expected, n, rc, json.dumps(report))


def test_spec_matches_harness():
    spec = _spec()
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_end_to_end_metrics_emitted_with_units():
    result = _tiny(trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in _spec()["end_to_end"]
    }
    assert result["metrics"]["entries_skipped"]["value"] == 1  # beta at n = 5
    assert result["metrics"]["n_covered"]["value"] == 2


def test_per_layer_metrics_emitted_with_units():
    result = _tiny(trace=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in _spec()["per_layer"]
    }
    assert metrics["verify.verify_all.calls"]["value"] == 2
    assert metrics["invariants.metric_dimension.errors"]["value"] == 1  # the beta refusal
    assert metrics["graphs.find_induced.subsets"]["value"] > 0


def test_tracer_restores_package():
    from u6n_ncg import graphs, polynomials, verify

    before = (verify.find_induced, graphs.Graph.degree, vars(polynomials.IntPolynomial)["from_terms"])
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.find_induced is not before[0]
        assert verify.find_induced is graphs.find_induced
    finally:
        tracer.uninstall()
    after = (verify.find_induced, graphs.Graph.degree, vars(polynomials.IntPolynomial)["from_terms"])
    assert after == before


def test_gate_passes_real_reports():
    assert set(_grade_verify(1, _verify_output(1))) == {gate.MATCH, gate.EXCEPTION}
    assert set(_grade_verify(2, _verify_output(2))) == {gate.MATCH}


def test_gate_trips_on_flipped_status():
    report = _verify_output(2)
    report["entries"][0]["status"] = "mismatch"
    assert _grade_verify(2, report).count(gate.FAILED) == 1


def test_gate_trips_on_wrong_computed_value():
    report = _verify_output(2)
    entry = next(e for e in report["entries"] if e["name"] == "edge_count")
    entry["computed"] += 1
    assert _grade_verify(2, report).count(gate.FAILED) == 1


def test_gate_trips_on_wrong_prediction():
    report = _verify_output(2)
    entry = next(e for e in report["entries"] if e["name"] == "alpha")
    entry["predicted"] = entry["computed"] = 5
    assert _grade_verify(2, report).count(gate.FAILED) == 1


def test_gate_trips_on_missing_or_duplicate_entry():
    report = _verify_output(2)
    report["entries"].append(report["entries"].pop(0))
    assert gate.FAILED not in _grade_verify(2, report)
    report["entries"][0] = report["entries"][1]
    outcomes = _grade_verify(2, report)
    assert outcomes.count(gate.FAILED) == 2  # the duplicate and the missing entry
    assert len(outcomes) == len(report["entries"]) + 1


def test_gate_allows_paper_exception_only_at_n1():
    report = _verify_output(2)
    entry = next(e for e in report["entries"] if e["name"] == "eccentricities")
    entry["status"] = "known_paper_exception"
    assert _grade_verify(2, report).count(gate.FAILED) == 1


def test_gate_trips_on_exit_code_and_garbage():
    report = _verify_output(2)
    assert set(_grade_verify(2, report, rc=2)) == {gate.FAILED}
    expected = run.expectations([run.Query(2)])[run.Query(2)]
    assert set(gate.check_verify(expected, 2, 0, "not json")) == {gate.FAILED}


def test_gate_trips_on_wrong_graph_answer():
    assert gate.check_graph("36", 0, "36\n", "") == gate.MATCH
    assert gate.check_graph("36", 0, "35\n", "") == gate.FAILED
    assert gate.check_graph("36", None, "", "Traceback ...") == gate.FAILED
    assert gate.check_graph("36", 1, "", "u6n-ncg: error: bad n\n") == gate.FAILED
    refusal = "u6n-ncg: error: metric_dimension handles at most 20 vertices, got 25\n"
    assert gate.check_graph("21", 1, "", refusal) == gate.SKIPPED


def test_failures_reach_the_result():
    class WrongCli:
        @staticmethod
        def cli_main(argv):
            if argv[0] == "graph":
                print(0)
                return 0
            raise RuntimeError("engine crashed")

    record = run.run("tiny", TINY, seed=7, seconds=0.01, trace=False, cli=WrongCli, setup_runs=1)
    result = record["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["success_ratio"]["value"] == 0


if __name__ == "__main__":
    checks = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in checks:
        fn()
        print(f"ok  {name}")
    print(f"{len(checks)} checks passed")
