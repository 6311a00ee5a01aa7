#!/usr/bin/env python3
"""Benchmark of the u6n-ncg command line: three workloads, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 20 --trace 0

Each pass calls `u6n_ncg.cli.cli_main` in-process once per input of the
workload, in an order drawn from the seed, and captures what it prints.
The next call starts when the previous one has returned: a closed loop
with one caller. Every output is checked against the closed forms
(gate.py). Passes repeat for `--seconds` seconds after one untimed
warm-up pass.

With `--trace 0` the last line of stdout is a JSON object carrying the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics,
taken from spans (spans.py) on traced passes that alternate with untraced
ones. A record of each run, and the spans of a traced run, are written
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gate
from spans import LAYERS, Tracer, median_by_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 11

# Nominal wall time of reference_work() on an idle core of the 2-core x86-64
# machine the benchmark was written on (Python 3.11). Every reported time is
# scaled to this speed; see speed_scale().
REFERENCE_S = 0.02


@dataclass(frozen=True)
class Query:
    """One CLI call: a `verify` report for n, or one `graph` invariant."""

    n: int
    invariant: str | None = None

    def argv(self) -> list[str]:
        if self.invariant is None:
            return ["verify", "--n", str(self.n), "--format", "json"]
        return ["graph", "--n", str(self.n), "--invariant", self.invariant]


WORKLOADS = {
    # exponential engines in `invariants` carry the work (n = 4 has V = 20)
    "verify-exact": tuple(Query(n) for n in (1, 2, 3, 4)),
    # caps skip every engine past n = 4; graphs.find_induced carries the
    # work. n = 1 (V = 5) keeps one fully covered report in the workload.
    "verify-sweep": tuple(Query(n) for n in (1, 5, 6, 7, 8)),
    # group and graph construction at order 900, branch and bound, BFS;
    # beta at n = 5 (V = 25) is refused by the metric-dimension cap
    "graph-scale": (
        Query(150, "edges"),
        Query(150, "alpha"),
        Query(150, "tau"),
        Query(150, "ecc"),
        Query(20, "omega"),
        Query(8, "chi"),
        Query(5, "beta"),
    ),
}

# (name, unit, better, bound): what BENCHMARK.json declares as end_to_end
END_TO_END = (
    ("pass_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("entries_match", "count", "higher", 0.01),
    ("entries_skipped", "count", "lower", 0.01),
    ("n_covered", "count", "higher", 0.01),
    ("success_ratio", "ratio", "higher", 0.01),
)

# Traced public functions reported per layer; spans cover every public
# function, and the record file lists them all.
TRACED = (
    "groups.u6n_group",
    "groups.FiniteGroup.center",
    "groups.FiniteGroup.is_abelian",
    "groups.FiniteGroup.centralizer",
    "groups.FiniteGroup.non_central",
    "graphs.non_commuting_graph",
    "graphs.find_induced",
    "graphs.is_complete_multipartite",
    "graphs.is_k_regular",
    "graphs.Graph.induced_subgraph",
    "polynomials.IntPolynomial.from_terms",
    "polynomials.integer_roots",
    "invariants.resolving_polynomial",
    "invariants.detour_matrix",
    "invariants.metric_dimension",
    "invariants.independence_polynomial",
    "invariants.vertex_cover_polynomial",
    "invariants.distance_matrix",
    "invariants.eccentricity",
    "invariants.eccentricities",
    "invariants.total_eccentricity_polynomial",
    "invariants.eccentric_connectivity_polynomial",
    "invariants.independence_number",
    "invariants.clique_number",
    "invariants.chromatic_number",
    "verify.verify_all",
    "verify.report_to_json",
    "cli.cli_main",
)

# (name, unit, better): what BENCHMARK.json declares as per_layer.
# Counters marked computed are derived from arguments and results of the
# traced calls, not counted by the program.
PER_LAYER = (
    tuple(
        (f"{fn}.{stat}", unit, "lower")
        for fn in TRACED
        for stat, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("errors", "count"))
    )
    + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS)
    + (
        ("graphs.find_induced.subsets", "count", "lower"),  # computed
        ("invariants.subset_sweep.states", "count", "lower"),  # computed
        ("invariants.detour_matrix.states", "count", "lower"),  # computed
        ("invariants.resolving_polynomial.yield", "ratio", "higher"),  # computed
        ("verify.skipped_ratio", "ratio", "lower"),  # computed
        ("trace.overhead_ratio", "ratio", "lower"),
        ("gate.failure_ratio", "ratio", "lower"),
    )
)


# -- the program under test ------------------------------------------------


def load_cli():
    """Import u6n_ncg.cli from this checkout's sources, or None."""
    if not (SRC / "u6n_ncg" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import u6n_ncg.cli

    if SRC not in Path(u6n_ncg.cli.__file__).resolve().parents:
        raise ImportError(f"u6n_ncg was imported from {u6n_ncg.cli.__file__}, not {SRC}")
    return u6n_ncg.cli


def expectations(queries) -> dict[Query, object]:
    """Closed-form answers for every query, computed before any timing."""
    from u6n_ncg import closed_forms
    from u6n_ncg.groups import U6nElement

    return {
        q: gate.expected_report(closed_forms, U6nElement, q.n)
        if q.invariant is None
        else gate.expected_answer(closed_forms, q.n, q.invariant)
        for q in queries
    }


def reference_work() -> int:
    """A fixed pure-Python loop in the program's own idiom: big-int masks,
    bit counts, small tuples, a dict and a sort. It never changes, so its
    time measures only how fast the machine runs Python at that moment."""
    acc, row, seen = 0, (1 << 200) - 1, {}
    for i in range(30_000):
        acc += ((row >> (i % 150)) & ~(i * 0x9E3779B97F4A7C15)).bit_count()
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + 1
        acc += len(sorted((i % 7, i % 5, i % 3)))
    return acc


def reference_s() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two reference samples
    into seconds at REFERENCE_S speed.

    The machines this runs on are shared: the same pass took from 1.8 s to
    3.6 s within minutes, and the reference loop slowed alongside it. Run
    medians of wall time divided by reference time spread two to five
    times less than those of raw wall time."""
    return REFERENCE_S * 2 / (before + after)


def measure_setup(runs: int = SETUP_RUNS) -> list[tuple[float, float]]:
    """(wall seconds, seconds at reference speed) from starting a fresh
    interpreter to u6n_ncg.cli imported, one sample per interpreter. An
    unmeasured first start leaves compiled bytecode behind, as an installed
    package would have."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import u6n_ncg.cli"
    argv = [sys.executable, "-c", code]
    samples = []
    for i in range(runs + 1):
        before = reference_s()
        start = perf_counter()
        # no timeout: with one, the wait polls and rounds samples up to 50 ms steps
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        wall = perf_counter() - start
        if i:
            samples.append((wall, wall * speed_scale(before, reference_s())))
    return samples


def call(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """One CLI call; an exception escaping cli_main reads as exit code None."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.cli_main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def timed_pass(cli, order) -> tuple[float, float, list]:
    """(wall seconds, seconds at reference speed, outputs) of one pass over
    `order`. Each call is scaled by the reference samples on either side of
    it; the reference runs themselves are not timed."""
    gc.collect()
    raw, wall, scaled = [], 0.0, 0.0
    before = reference_s()
    for q in order:
        start = perf_counter()
        raw.append(call(cli, q.argv()))
        elapsed = perf_counter() - start
        after = reference_s()
        wall += elapsed
        scaled += elapsed * speed_scale(before, after)
        before = after
    return wall, scaled, raw


def grade(expected, order, raw) -> dict[str, int]:
    """Gate outcomes of one pass, tallied."""
    by_n: dict[int, list[str]] = {}
    for q, (rc, out, err) in zip(order, raw):
        if q.invariant is None:
            outcomes = gate.check_verify(expected[q], q.n, rc, out)
        else:
            outcomes = [gate.check_graph(expected[q], rc, out, err)]
        by_n.setdefault(q.n, []).extend(outcomes)
    flat = [o for outcomes in by_n.values() for o in outcomes]
    covered = (gate.MATCH, gate.EXCEPTION)
    return {
        "attempted": len(flat),
        "failed": flat.count(gate.FAILED),
        "match": flat.count(gate.MATCH),
        "skipped": flat.count(gate.SKIPPED),
        "n_covered": sum(all(o in covered for o in outs) for outs in by_n.values()),
    }


# -- the run -----------------------------------------------------------------


def _median(samples: list[tuple[float, float]]) -> float:
    """Median of the reference-speed member of (wall, scaled) samples."""
    return statistics.median(scaled for _, scaled in samples)


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict[str, object]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "u6n_ncg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "commit": commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def run(
    workload: str,
    queries,
    seed: int,
    seconds: float,
    trace: bool,
    cli,
    setup_runs: int = SETUP_RUNS,
    tracer: Tracer | None = None,
) -> dict:
    """Measure one workload; returns the record, whose "result" is the
    object the benchmark prints last. Traced passes record their spans in
    `tracer`."""
    expected = expectations(queries)
    setup = [] if trace else measure_setup(setup_runs)
    rng = random.Random(seed)

    def shuffled():
        order = list(queries)
        rng.shuffle(order)
        return order

    grades = []
    order = shuffled()
    grades.append(grade(expected, order, timed_pass(cli, order)[2]))  # warm-up
    # (wall seconds, seconds at reference speed) per timed pass
    untraced, traced, layer_rows = [], [], []
    tracer = tracer or Tracer()
    deadline = perf_counter() + seconds
    while not untraced or perf_counter() < deadline:
        order = shuffled()
        wall, scaled, raw = timed_pass(cli, order)
        untraced.append((wall, scaled))
        grades.append(grade(expected, order, raw))
        if not trace:
            continue
        order = shuffled()
        tracer.install()
        tracer.begin_pass()
        try:
            wall, scaled, raw = timed_pass(cli, order)
        finally:
            tracer.uninstall()
        row = {
            k: v * scaled / wall if k.endswith("_s") else v
            for k, v in tracer.end_pass().items()
        }
        tally = grade(expected, order, raw)
        row["verify.skipped_ratio"] = tally["skipped"] / tally["attempted"]
        row["gate.failure_ratio"] = tally["failed"] / tally["attempted"]
        traced.append((wall, scaled))
        layer_rows.append(row)
        grades.append(tally)

    attempted = sum(g["attempted"] for g in grades)
    failed = sum(g["failed"] for g in grades)
    if trace:
        values = median_by_key(layer_rows, [name for name, _, _ in PER_LAYER])
        values["trace.overhead_ratio"] = _median(traced) / _median(untraced)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {
            "pass_s": _median(untraced),
            "setup_s": _median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "entries_match": min(g["match"] for g in grades),
            "entries_skipped": max(g["skipped"] for g in grades),
            "n_covered": min(g["n_covered"] for g in grades),
            "success_ratio": (attempted - failed) / attempted,
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "samples": {
            "pass_wall_s": [w for w, _ in untraced],
            "pass_s": [s for _, s in untraced],
            "traced_pass_wall_s": [w for w, _ in traced],
            "traced_pass_s": [s for _, s in traced],
            "setup_wall_s": [w for w, _ in setup],
            "setup_s": [s for _, s in setup],
        },
        "layers": median_by_key(layer_rows, sorted({k for row in layer_rows for k in row})),
        "result": result,
    }


def report(record: dict) -> None:
    """Human-readable lines; the JSON result is printed separately, last."""
    env = record["environment"]
    print(
        f"workload {record['workload']}: python {env['python']}, commit {env['commit']}, "
        f"nproc {env['nproc']}, seed {env['seed']}, trace {record['trace']}"
    )
    for label, samples in record["samples"].items():
        if samples:
            q1, med, q3 = quartiles(samples)
            print(f"  {label}: median {med:.4f} s, q1 {q1:.4f}, q3 {q3:.4f}, {len(samples)} samples")
    result = record["result"]
    print(
        f"  gate: {result['attempted']} attempted, {result['failed']} failed, "
        f"failure_ratio {result['failed'] / result['attempted']:.6f}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cli = load_cli()
    if cli is None:
        sys.stderr.write(f"perfbench: no u6n_ncg sources under {SRC}\n")
        return 2
    tracer = Tracer()
    record = run(
        args.workload,
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        cli,
        tracer=tracer,
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.json")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
