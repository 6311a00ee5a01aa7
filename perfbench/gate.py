"""Correctness gate for the benchmark: every CLI output against the closed forms.

An operation is one report entry (verify workloads) or one graph query
(graph-scale). Each operation gets exactly one outcome:

  match      the computed value equals the closed form for its n
  skipped    the program refused the work at a vertex cap
             (a `skipped_cap` entry, or a clean CapacityError refusal)
  exception  `known_paper_exception`, allowed only at n = 1
  failed     anything else: a mismatch, a value that differs from the
             closed form, a missing or duplicated entry, an unexpected
             exit code, unparsable output, or an exception from the CLI

Expected values are computed once, before any timing, from the program's
own `closed_forms` module; the gate never trusts a report's `status` or
`predicted` field on its own.
"""

from __future__ import annotations

import json
import re

MATCH = "match"
SKIPPED = "skipped"
EXCEPTION = "exception"
FAILED = "failed"

# How the CLI refuses a query past a vertex cap (CapacityError, exit 1).
_REFUSAL = re.compile(r"^u6n-ncg: error: \w+ handles at most \d+ vertices, got \d+$")

# Entries whose closed form carries the n >= 2 validity flag.
_N1_EXCEPTIONS = frozenset(
    {"eccentricities", "total_eccentricity_polynomial", "eccentric_connectivity_polynomial"}
)


def _json(value):
    """The value as it reads back from the report's JSON."""
    return json.loads(json.dumps(value))


def _poly(p) -> dict:
    return {"terms": p.to_json_terms()}


def expected_report(cf, element, n: int) -> dict[str, object]:
    """Entry name -> expected JSON value of a `verify --n n` report.

    `cf` is the program's closed_forms module and `element` its U6nElement
    normal form; nothing here builds a group or a graph.
    """

    def labels(indices):
        return [element.from_index(i, n).label() for i in sorted(indices)]

    odd, even = range(1, 2 * n, 2), range(0, 2 * n, 2)
    omega_classes = (
        [3 * i for i in odd],
        [3 * i + 1 for i in odd],
        [3 * i + 2 for i in odd],
        [3 * i + k for i in even for k in (1, 2)],
    )
    representatives = {1: (1, 0), 2: (1, 1), 3: (1, 2), 4: (0, 1)}
    out: dict[str, object] = {}
    for cls, (a_exp, b_exp) in representatives.items():
        rep = element(a_exp, b_exp)
        out[f"centralizer_omega{cls}"] = labels(cf.cf_centralizer(cls, rep, n))
    out["center"] = labels(6 * r for r in range(n))
    for cls in (1, 2, 3, 4):
        out[f"degree_omega{cls}"] = cf.cf_degree(cls, n)
    out["edge_count"] = cf.cf_edge_count(n)
    out["partition_sizes"] = list(cf.cf_partition_sizes(n))
    out["partition_classes"] = sorted(sorted(labels(c)) for c in omega_classes)
    out["alpha"] = cf.cf_alpha(n)
    out["tau"] = cf.cf_tau(n)
    out["omega"] = cf.cf_chi_omega(n)
    out["chi"] = cf.cf_chi_omega(n)
    out["no_induced_c5"] = True
    out["no_induced_p4"] = True
    out["regular_omega123"] = 2 * n
    out["full_graph_not_regular"] = True
    out["metric_dimension"] = cf.cf_metric_dimension(n)
    out["resolving_polynomial"] = _poly(cf.cf_resolving_polynomial(n))
    out["resolving_sequence"] = list(cf.cf_resolving_sequence(n))
    out["resolving_roots"] = sorted(cf.cf_resolving_roots(n))
    out["detour_distances"] = [5 * n - 1]
    out["detour_polynomial"] = _poly(cf.cf_detour_polynomial(n))
    out["detour_index"] = cf.cf_detour_index(n)
    out["eccentricities"] = [2]
    out["total_eccentricity_polynomial"] = _poly(cf.cf_total_eccentricity_polynomial(n).value)
    out["eccentric_connectivity_polynomial"] = _poly(
        cf.cf_eccentric_connectivity_polynomial(n).value
    )
    out["independence_polynomial"] = _poly(cf.cf_independence_polynomial(n))
    out["vertex_cover_polynomial"] = _poly(cf.cf_vertex_cover_polynomial(n))
    return _json(out)


def expected_answer(cf, n: int, invariant: str) -> str:
    """What `graph --n n --invariant <invariant>` should print."""
    values = {
        "edges": cf.cf_edge_count,
        "alpha": cf.cf_alpha,
        "tau": cf.cf_tau,
        "omega": cf.cf_chi_omega,
        "chi": cf.cf_chi_omega,
        "beta": cf.cf_metric_dimension,
        "ecc": lambda n: 2,
    }
    return str(values[invariant](n))


def _check_entry(expected: dict, n: int, entry) -> str:
    if not isinstance(entry, dict) or entry.get("name") not in expected:
        return FAILED
    want = expected[entry["name"]]
    if entry.get("predicted") != want:
        return FAILED
    status = entry.get("status")
    if status == "match":
        return MATCH if entry.get("computed") == want else FAILED
    if status == "skipped_cap":
        return SKIPPED if entry.get("computed") is None else FAILED
    if status == "known_paper_exception" and n == 1 and entry["name"] in _N1_EXCEPTIONS:
        return EXCEPTION
    return FAILED


def check_verify(expected: dict, n: int, rc: int, stdout: str) -> list[str]:
    """One outcome per expected entry of the report for n."""
    if rc != 0:
        return [FAILED] * len(expected)
    try:
        report = json.loads(stdout)
    except ValueError:
        return [FAILED] * len(expected)
    if not isinstance(report, dict) or report.get("n") != n:
        return [FAILED] * len(expected)
    entries = report.get("entries")
    if not isinstance(entries, list):
        return [FAILED] * len(expected)
    outcomes = [_check_entry(expected, n, e) for e in entries]
    names = [e.get("name") if isinstance(e, dict) else None for e in entries]
    # a missing entry is a failed operation, and so is every duplicate
    missing = [name for name in expected if name not in names]
    for i, name in enumerate(names):
        if name in names[:i]:
            outcomes[i] = FAILED
    return outcomes + [FAILED] * len(missing)


def check_graph(expected: str, rc: int, stdout: str, stderr: str) -> str:
    if rc == 0:
        return MATCH if stdout.strip() == expected else FAILED
    if rc == 1 and not stdout and _REFUSAL.match(stderr.strip()):
        return SKIPPED
    return FAILED
