"""Mutation check: each mutant is an edit to the sources that named tests
must catch.

    python tests/mutants.py

A mutant is a file, a list of (old text, new text) edits, and the node ids
of the tests that must fail once the edits are made. For each mutant the
script copies src/, tests/ and pyproject.toml into a temporary directory,
makes the edits there and runs pytest on those ids; since pyproject.toml
puts src/ on pytest's path, the tests import the mutated copy. It exits 1
if an old text does not occur exactly once, if the unmutated copy fails
any listed id, or if a listed id does not fail under its mutant.

pytest does not collect this file: its name does not match test_*.py.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERIFY = "tests/test_verify.py"
KEPT = VERIFY + "::TestKeptValuesAreComputedOncePerGraph"
DETOUR = "tests/test_invariants.py::TestDetourOnTheTwinQuotient"
INDUCED = "tests/test_graphs.py::TestFindInduced"
GROUPS = "tests/test_groups.py"
ROWS = GROUPS + "::TestRowPassAgainstRowByRow"
COSETS = GROUPS + "::TestCenterCosetPass"
LIGHT = GROUPS + "::TestLightsAssociativityTest"
SCANS = GROUPS + "::TestCommutationRowsAgainstScans"
CERTIFICATE = GROUPS + "::TestCertificate"
ROOTS = "tests/test_polynomial.py::TestEvaluation"
PAIRS = "tests/test_graphs.py::TestConstructionAgainstPairLoop"
ENGINES = "tests/test_invariants.py::TestTwinClassEnginesAgainstSubsetOracles"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    edits: tuple[tuple[str, str], ...]
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "ore-degree-sum-of-v-accepted",
        "src/u6n_ncg/invariants.py",
        (
            (
                "        degree[a] + degree[w] > graph.vertex_count\n",
                "        degree[a] + degree[w] >= graph.vertex_count\n",
            ),
        ),
        (
            DETOUR + "::test_degree_sums_of_exactly_v_are_not_enough[2]",
            DETOUR + "::test_degree_sums_of_exactly_v_are_not_enough[3]",
        ),
    ),
    Mutant(
        "ore-same-class-pairs-dropped",
        "src/u6n_ncg/invariants.py",
        (
            (
                "        for w in range(a if sizes[a] > 1 else a + 1, m)\n",
                "        for w in range(a + 1, m)\n",
            ),
        ),
        (
            DETOUR + "::test_degree_sums_of_exactly_v_are_not_enough[2]",
            DETOUR + "::test_degree_sums_of_exactly_v_are_not_enough[3]",
        ),
    ),
    Mutant(
        "detour-dp-lets-a-class-take-one-vertex-more",
        "src/u6n_ncg/invariants.py",
        (
            ("        total *= size + 1\n", "        total *= size + 2\n"),
            (
                "        bits, width = (1 << step * size) - 1, step * (size + 1)\n",
                "        bits, width = (1 << step * (size + 1)) - 1, step * (size + 2)\n",
            ),
        ),
        (
            DETOUR + "::test_planted_twin_blowups",
            DETOUR + "::test_random_graphs",
        ),
    ),
    Mutant(
        "resolving-masks-without-the-twin-rule",
        "src/u6n_ncg/invariants.py",
        (
            (
                "            if mask & twinned & ~pair or (twinned & pair and not at_two >> j & 1):\n"
                "                continue\n",
                "",
            ),
        ),
        (
            ENGINES + "::test_class_masks_match_the_full_graph_bfs_on_ncg[2]",
            ENGINES + "::test_non_commuting_graphs[2]",
        ),
    ),
    Mutant(
        "resolving-masks-blind-to-the-twins-of-the-pair",
        "src/u6n_ncg/invariants.py",
        (
            (
                "            if mask & twinned & ~pair or (twinned & pair and not at_two >> j & 1):\n",
                "            if mask & twinned & ~pair:\n",
            ),
        ),
        (
            ENGINES + "::test_class_masks_match_the_full_graph_bfs",
            ENGINES + "::test_planted_twin_blowups",
        ),
    ),
    Mutant(
        "class-layers-admit-twins-without-neighbours",
        "src/u6n_ncg/invariants.py",
        (
            (
                "        if sum(rows) != everything or (size > 1 and len(rows) == 1):\n",
                "        if sum(rows) != everything:\n",
            ),
        ),
        (
            ENGINES + "::test_one_class_of_twins_without_neighbours_is_disconnected[metric_dimension-2]",
            ENGINES + "::test_one_class_of_twins_without_neighbours_is_disconnected[eccentricities-3]",
            ENGINES + "::test_one_class_of_twins_without_neighbours_is_disconnected[detour_polynomial-2]",
        ),
    ),
    Mutant(
        "pattern-bits-of-the-high-half-set-for-low-classes",
        "src/u6n_ncg/invariants.py",
        (("        for k, size in enumerate(half, start):\n", "        for k, size in enumerate(half):\n"),),
        (ENGINES + "::test_random_graphs", ENGINES + "::test_planted_twin_blowups"),
    ),
    Mutant(
        "memo-kept-by-graph-value",
        "src/u6n_ncg/graphs.py",
        (
            (
                "        memos = self._memos\n",
                '        memos = globals().setdefault("_BY_VALUE", {}).setdefault(self, {})\n',
            ),
        ),
        (
            KEPT + "::test_equal_graphs_never_share_a_value",
            KEPT + "::test_two_reports_compute_each_twice",
        ),
    ),
    Mutant(
        "p3-searched-on-the-twin-quotient",
        "src/u6n_ncg/graphs.py",
        (
            (
                '_TWINNED_PATTERNS = (("path", 3), ("cycle", 4))\n',
                '_TWINNED_PATTERNS = (("cycle", 4),)\n',
            ),
        ),
        (
            INDUCED + "::test_first_p3_holds_two_twins",
            INDUCED + "::test_matches_subset_sweep_on_an_interleaved_blowup[path_3]",
        ),
    ),
    Mutant(
        "c4-searched-on-the-twin-quotient",
        "src/u6n_ncg/graphs.py",
        (
            (
                '_TWINNED_PATTERNS = (("path", 3), ("cycle", 4))\n',
                '_TWINNED_PATTERNS = (("path", 3),)\n',
            ),
        ),
        (
            INDUCED + "::test_first_c4_holds_two_twins_of_each_class",
            INDUCED + "::test_matches_subset_sweep_on_an_interleaved_blowup[cycle_4]",
        ),
    ),
    Mutant(
        "quotient-vertex-mapped-to-the-last-of-its-class",
        "src/u6n_ncg/graphs.py",
        (
            (
                "        kept = tuple(c[0] for c in twin_classes(graph))\n",
                "        kept = tuple(c[-1] for c in twin_classes(graph))\n",
            ),
        ),
        (
            INDUCED + "::test_matches_subset_sweep_on_an_interleaved_blowup[path_2]",
            INDUCED + "::test_matches_subset_sweep_on_an_interleaved_blowup[cycle_5]",
        ),
    ),
    Mutant(
        "cover-polynomial-at-the-default-cap",
        "src/u6n_ncg/invariants.py",
        (
            (
                "    independence = independence_polynomial(graph, cap=cap)\n",
                "    independence = independence_polynomial(graph)\n",
            ),
        ),
        (
            KEPT + "::test_a_cap_refusal_computes_nothing",
            VERIFY + "::TestStatuses::test_independence_cap_skips_the_cover_entry_too",
        ),
    ),
    Mutant(
        "metric-dimension-under-the-class-cap",
        "src/u6n_ncg/invariants.py",
        (
            (
                '    _check_cap("metric_dimension", graph.vertex_count, cap, "vertices")\n',
                '    _check_cap("metric_dimension", len(twin_classes(graph)), cap)\n',
            ),
        ),
        (
            "tests/test_invariants.py::TestCapsCountTwinClasses::test_metric_cap_still_counts_vertices",
            KEPT + "::test_a_cap_refusal_computes_nothing",
        ),
    ),
    Mutant(
        "regular-part-masks-omega2-to-omega4",
        "src/u6n_ncg/verify.py",
        (
            (
                "        keep = [vertex_of[x] for c in element_classes[:3] for x in c]\n",
                "        keep = [vertex_of[x] for c in element_classes[1:] for x in c]\n",
            ),
        ),
        (
            VERIFY + "::TestStatuses::test_n2_all_match",
            VERIFY + "::TestSharedValuesAgainstEnginesAlone::test_default_caps[2]",
        ),
    ),
    Mutant(
        "center-read-from-the-first-generator-alone",
        "src/u6n_ncg/groups.py",
        (
            (
                "        for row in generators.values():\n",
                "        for row in list(generators.values())[:1]:\n",
            ),
        ),
        (
            ROWS + "::test_u6n_matches_row_by_row[2]",
            GROUPS + "::TestCenterAndCentralizers::test_center_is_even_powers_of_a[3]",
        ),
    ),
    Mutant(
        "coset-products-read-to-one-byte",
        "src/u6n_ncg/groups.py",
        (
            (
                "                    rows[entries[at + z]] = row\n",
                "                    rows[entries[at + z] & 0xFF] = row\n",
            ),
        ),
        (
            ROWS + "::test_u6n_matches_row_by_row[43]",
            ROWS + "::test_wide_orders_match_scans[u6n43]",
        ),
    ),
    Mutant(
        "generator-search-stopped-after-one",
        "src/u6n_ncg/groups.py",
        (("        if member[s]:\n", "        if member[s] or columns:\n"),),
        (
            ROWS + "::test_u6n_matches_row_by_row[1]",
            COSETS + "::test_u6n_computes_a_row_per_generator_and_coset",
        ),
    ),
    Mutant(
        "definitional-row-from-byte-0-only",
        "src/u6n_ncg/groups.py",
        (("    for byte in (0, 1):\n", "    for byte in (0,):\n"),),
        (COSETS + "::test_products_that_differ_in_one_byte_only",),
    ),
    Mutant(
        "definitional-row-from-byte-1-only",
        "src/u6n_ncg/groups.py",
        (("    for byte in (0, 1):\n", "    for byte in (1,):\n"),),
        (
            COSETS + "::test_products_that_differ_in_one_byte_only",
            ROWS + "::test_u6n_matches_row_by_row[1]",
        ),
    ),
    Mutant(
        "associativity-checked-on-the-first-generator-only",
        "src/u6n_ncg/groups.py",
        (
            (
                "    for s in _generators(order, identity, lambda s: [row[s] for row in table]):\n",
                "    for s in [*_generators(order, identity, lambda s: [row[s] for row in table])][:1]:\n",
            ),
        ),
        (LIGHT + "::test_a_generator_in_the_nucleus_found_first",),
    ),
    Mutant(
        "inverses-checked-after-associativity",
        "src/u6n_ncg/groups.py",
        (
            (
                "    for x, row in enumerate(table):\n        if identity not in row:\n"
                '            raise ValueError(f"element {labels[x]!r} has no two-sided inverse")\n',
                "",
            ),
            (
                "    return identity\n",
                "    for x, row in enumerate(table):\n        if identity not in row:\n"
                '            raise ValueError(f"element {labels[x]!r} has no two-sided inverse")\n'
                "    return identity\n",
            ),
        ),
        (LIGHT + "::test_generators_drawn_stay_within_log2_order[left-zero]",),
    ),
    Mutant(
        "u6n-rows-rotated-by-3-not-6",
        "src/u6n_ncg/groups.py",
        (
            (
                "    spans = [slice(6 * t, 6 * t + order) for t in range(n)]\n",
                "    spans = [slice(3 * t, 3 * t + order) for t in range(n)]\n",
            ),
        ),
        (
            SCANS + "::test_cells_match_double_loop[2]",
            GROUPS + "::TestU6nConstruction::test_table_agrees_with_free_reduction[2]",
            CERTIFICATE + "::test_u6n_table_is_u6n[2]",
        ),
    ),
    Mutant(
        "loaded-entries-byteswapped",
        "src/u6n_ncg/groups.py",
        (
            (
                '    return b"".join([array("H", row).tobytes() for row in table])\n',
                '    return b"".join([array("H", [v >> 8 | v << 8 & 0xFF00 for v in row]).tobytes() for row in table])\n',
            ),
        ),
        (
            ROWS + "::test_loaded_tables_round_trip[dihedral150]",
            ROWS + "::test_loaded_tables_round_trip[relabelled43]",
        ),
    ),
    Mutant(
        "horner-pass-ignores-the-exponent-gaps",
        "src/u6n_ncg/polynomials.py",
        (
            (
                "        values = [v * f + coeff for v, f in zip(values, powers[gap])]\n",
                "        values = [v * f + coeff for v, f in zip(values, powers[1])]\n",
            ),
        ),
        (ROOTS + "::test_candidates_that_vanish_modulo_a_prime_are_no_roots",),
    ),
    Mutant(
        "trial-division-without-its-limit",
        "src/u6n_ncg/polynomials.py",
        (("    while d * d <= rest and d <= _TRIAL_LIMIT:\n", "    while d * d <= rest:\n"),),
        (ROOTS + "::test_a_cofactor_that_may_be_composite_is_refused",),
    ),
    Mutant(
        "selector-marks-keep-the-central-lanes",
        "src/u6n_ncg/graphs.py",
        (
            (
                '_CENTRAL = bytes.maketrans(b"\\x00\\x01", b"\\x02\\x00")\n',
                '_CENTRAL = bytes.maketrans(b"\\x00\\x01", b"\\x00\\x00")\n',
            ),
        ),
        (
            PAIRS + "::test_relabelled_u6n[2]",
            PAIRS + "::test_table_groups[labels4-table4]",
        ),
    ),
    Mutant(
        "restricted-rows-read-without-reversing-their-digits",
        "src/u6n_ncg/graphs.py",
        (
            (
                "        bitsets[row] = int(marked.translate(_DIGITS, _MARKED)[::-1], 2)\n",
                "        bitsets[row] = int(marked.translate(_DIGITS, _MARKED), 2)\n",
            ),
        ),
        (PAIRS + "::test_u6n[2]", PAIRS + "::test_relabelled_u6n[2]"),
    ),
    Mutant(
        "class-pairs-checked-without-the-loop-test",
        "src/u6n_ncg/graphs.py",
        (("        if a & mask_a:\n            return False\n", ""),),
        ("tests/test_graphs.py::TestConstruction::test_validation_rejects_loops_and_asymmetry",),
    ),
)


def copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def run_pytest(tree: Path, ids) -> tuple[int, set[str], str]:
    """pytest's exit code on these ids, the ids it reports failed, and its
    output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *ids],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    failed = {
        line[len("FAILED ") :].split(" - ")[0]
        for line in done.stdout.splitlines()
        if line.startswith("FAILED ")
    }
    return done.returncode, failed, done.stdout + done.stderr


def edited(text: str, mutant: Mutant) -> str:
    """The text with the mutant's edits made, one after another; exits if
    an old text does not occur exactly once."""
    for old, new in mutant.edits:
        count = text.count(old)
        if count != 1:
            raise SystemExit(f"{mutant.name}: old text occurs {count} times in {mutant.path}:\n{old}")
        text = text.replace(old, new)
    return text


def main() -> int:
    for mutant in MUTANTS:  # every old text is checked before any run
        edited((ROOT / mutant.path).read_text(), mutant)
    ids = sorted({i for m in MUTANTS for i in m.tests})
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "clean"
        copy_tree(tree)
        code, _, output = run_pytest(tree, ids)
        if code != 0:
            print(output)
            print("the unmutated tree fails a listed test")
            return 1
        survived = []
        for i, mutant in enumerate(MUTANTS):
            tree = Path(scratch) / f"mutant{i}"
            copy_tree(tree)
            path = tree / mutant.path
            path.write_text(edited(path.read_text(), mutant))
            _, failed, output = run_pytest(tree, mutant.tests)
            missed = [t for t in mutant.tests if t not in failed]
            if missed:
                print(output)
                survived.append(mutant.name)
            print(f"{mutant.name}: {'survived ' + ', '.join(missed) if missed else 'killed'}")
    if survived:
        print(f"{len(survived)} of {len(MUTANTS)} mutants survived: {', '.join(survived)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
