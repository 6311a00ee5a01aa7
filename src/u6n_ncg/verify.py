"""Cross-check engine: exhaustive invariants against closed forms.

verify_all(n) runs every prediction for the non-commuting graph of U(6n)
next to its brute-force counterpart and returns a report that depends only
on n and the caps, so two runs give equal reports and the same JSON and
text bytes. Each entry holds four fields: its `name`, the `predicted` and
`computed` values, and its `status`; an `error` entry also keeps the
exception's text, which the JSON leaves out. Statuses:

  match                  predicted equals computed exactly
  mismatch               they differ and the prediction claims this n
  known_paper_exception  they differ but the closed form is flagged as
                         not applying at this n (only the eccentricity
                         polynomials at n = 1)
  skipped_cap            the exhaustive side would exceed its cap
  error                  the exhaustive side raised; computed is None and
                         the entry's `error` holds the exception

A disagreement never raises: it becomes an entry, and the exhaustive
side is the authority. An exception from an engine becomes an `error`
entry, and the report goes on with the next entry.

Every entry calls its own public engine, looked up when the entry runs,
so a rebound engine changes only the entries that call it. Entries that
rest on one intermediate share it, since the graph computes it once and
keeps it (`Graph._memo`), each engine checking its own cap first: β and
the three resolving entries share the resolving sweep; the independence
and cover entries the independence polynomial; the three detour entries
Ore's detour verdict; the resolving sweep, the eccentricities and the
two eccentricity polynomials the class layers; α and τ the weighted α
of the twin quotient; and ω and χ the quotient's clique size. The C5
and P4 entries search the twin quotient itself, which the graph keeps
with its twin classes: neither pattern has twins of its own, so a first
copy lies on the class minima (see find_induced).
`regular_omega123` reads each degree within Ω1–Ω3 as one masked popcount
of the vertex's row.

A report's JSON is the text json.dumps(report.to_json_obj(), indent=2)
writes, but `to_json` writes it straight from the entries, with no object
tree in between: scalars through `_SCALAR_TEXT`, a tuple of labels with one
join, nested tuples recursively, and a polynomial with one formatted string
per term. Its `level` indents a report as an element of an array, so the
CLI writes a range report by report, each as soon as it is computed, and
never holds more than one.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from . import closed_forms, invariants
from .graphs import find_induced, is_complete_multipartite, is_k_regular, non_commuting_graph
from .groups import FiniteGroup, U6nElement, u6n_group
from .invariants import Caps, CapacityError, DEFAULT_CAPS
from .polynomials import IntPolynomial, integer_roots


@dataclass(frozen=True)
class ReportEntry:
    name: str
    predicted: object
    computed: object
    status: str
    error: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    n: int
    entries: tuple[ReportEntry, ...]

    def has_mismatch(self) -> bool:
        return any(e.status == "mismatch" for e in self.entries)

    def counts(self) -> dict[str, int]:
        out = {"match": 0, "mismatch": 0, "known_paper_exception": 0, "skipped_cap": 0, "error": 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                {
                    "name": e.name,
                    "predicted": _json_value(e.predicted),
                    "computed": _json_value(e.computed),
                    "status": e.status,
                }
                for e in self.entries
            ],
        }

    def to_json(self, level: int = 0) -> str:
        """The text of json.dumps(self.to_json_obj(), indent=2), written
        straight from the entries; each line after the first is indented
        by `level` more steps of two spaces, as in an array of reports."""
        indent = "\n" + "  " * level
        inner = indent + "  "
        row = inner + "  "
        cell = row + "  "
        entries = [
            f'{{{cell}"name": {encode_basestring_ascii(e.name)},'
            f'{cell}"predicted": {_json_text(e.predicted, cell)},'
            f'{cell}"computed": {_json_text(e.computed, cell)},'
            f'{cell}"status": {encode_basestring_ascii(e.status)}{row}}}'
            for e in self.entries
        ]
        entries = "[" + row + ("," + row).join(entries) + inner + "]" if entries else "[]"
        return (
            "{" + inner + '"n": ' + _json_text(self.n, inner)
            + "," + inner + '"entries": ' + entries + indent + "}"
        )

    def to_text(self) -> str:
        header = f"{'invariant':<36} {'status':<22} {'predicted':<30} computed"
        lines = [f"non-commuting graph of U(6n), n = {self.n}", header, "-" * len(header)]
        for e in self.entries:
            lines.append(
                f"{e.name:<36} {e.status:<22} "
                f"{_text_value(e.predicted):<30} {_text_value(e.computed)}"
            )
        c = self.counts()
        lines.append(
            f"n={self.n}: {len(self.entries)} entries, {c['match']} match, "
            f"{c['mismatch']} mismatch, {c['known_paper_exception']} known_paper_exception, "
            f"{c['skipped_cap']} skipped_cap, {c['error']} error"
        )
        return "\n".join(lines)


# the JSON text of a report's scalars, keyed by exact type: a float, or a
# subclass of int or str other than bool, is refused rather than written as
# some other scalar
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_value(value):
    if isinstance(value, IntPolynomial):
        return {"terms": value.to_json_terms()}
    if isinstance(value, tuple):
        if set(map(type, value)) <= _SCALAR_TEXT.keys():
            return list(value)
        return list(map(_json_value, value))
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"cannot serialise {value!r}")


def _text_value(value, limit: int = 30) -> str:
    if isinstance(value, IntPolynomial):
        text = str(value)
    elif isinstance(value, tuple):
        text = "[" + ", ".join(_text_value(v, limit=10_000) for v in value) + "]"
    elif value is None:
        text = "-"
    elif isinstance(value, bool):
        text = "true" if value else "false"
    else:
        text = str(value)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


def _labels_of(g: FiniteGroup, indices) -> tuple[str, ...]:
    return tuple(g.labels[i] for i in sorted(indices))


def _canonical_classes(label_classes) -> tuple[tuple[str, ...], ...]:
    return tuple(sorted(tuple(c) for c in label_classes))


def _common_value(values):
    """The single element of a collection, else the sorted distinct values
    (which then never equals a scalar prediction)."""
    distinct = sorted(set(values))
    return distinct[0] if len(distinct) == 1 else tuple(distinct)


def verify_all(n: int, caps: Caps = DEFAULT_CAPS) -> VerificationReport:
    """Run every closed form for U(6n) against the exhaustive computation."""
    g = u6n_group(n)
    graph = non_commuting_graph(g)
    # graph vertices carry the labels of their elements
    element_of = {label: x for x, label in enumerate(g.labels)}
    vertex_of = {element_of[label]: v for v, label in enumerate(graph.labels)}
    element_classes = closed_forms.cf_omega_classes(n)
    entries: list[ReportEntry] = []

    def add(name, predicted, compute, applies=True):
        computed = error = None
        try:
            computed = compute()
        except CapacityError:  # capped engines refuse before any other work
            status = "skipped_cap"
        except Exception as exc:  # an engine fault is reported, not raised
            status, error = "error", f"{type(exc).__name__}: {exc}"
        else:
            if computed == predicted:
                status = "match"
            elif applies:
                status = "mismatch"
            else:
                status = "known_paper_exception"
        entries.append(ReportEntry(name, predicted, computed, status, error))

    # centralizers and center
    for cls, members in enumerate(element_classes, start=1):
        # the least index of each class: a, ab, ab^2 and b
        rep = U6nElement.from_index(min(members), n)
        predicted = _labels_of(g, closed_forms.cf_centralizer(cls, rep, n))

        def compute(members=members):
            # elements with one commutation row share one centralizer
            reps = {g.non_commuting_row(x): x for x in members}
            sets = {g.centralizer(x) for x in reps.values()}
            if len(sets) == 1:
                return _labels_of(g, sets.pop())
            return tuple(_labels_of(g, s) for s in sorted(sets, key=sorted))

        add(f"centralizer_omega{cls}", predicted, compute)

    add(
        "center",
        _labels_of(g, closed_forms.cf_center(n)),
        lambda: _labels_of(g, g.center()),
    )

    # degrees and edges
    for cls in (1, 2, 3, 4):
        add(
            f"degree_omega{cls}",
            closed_forms.cf_degree(cls, n),
            lambda cls=cls: _common_value(
                graph.degree(vertex_of[x]) for x in element_classes[cls - 1]
            ),
        )
    add("edge_count", closed_forms.cf_edge_count(n), graph.edge_count)

    # complete multipartite structure against the omega classes
    def part_sizes():
        parts = is_complete_multipartite(graph)
        return None if parts is None else tuple(sorted(map(len, parts)))

    def part_classes():
        parts = is_complete_multipartite(graph)
        if parts is None:
            return None
        return _canonical_classes(sorted(graph.labels[v] for v in c) for c in parts)

    add("partition_sizes", closed_forms.cf_partition_sizes(n), part_sizes)
    add(
        "partition_classes",
        _canonical_classes(sorted(_labels_of(g, c)) for c in element_classes),
        part_classes,
    )

    # numeric invariants
    add("alpha", closed_forms.cf_alpha(n), lambda: invariants.independence_number(graph))
    add("tau", closed_forms.cf_tau(n), lambda: invariants.vertex_cover_number(graph))
    add("omega", closed_forms.cf_chi_omega(n), lambda: invariants.clique_number(graph))
    add(
        "chi",
        closed_forms.cf_chi_omega(n),
        lambda: invariants.chromatic_number(graph, cap=caps.chromatic),
    )

    # forbidden induced subgraphs and regularity
    add("no_induced_c5", True, lambda: find_induced(graph, "cycle_5") is None)
    add("no_induced_p4", True, lambda: find_induced(graph, "path_4") is None)

    def regular_part():
        # the common degree within Ω1–Ω3, as is_k_regular of their subgraph
        keep = [vertex_of[x] for c in element_classes[:3] for x in c]
        mask = sum(1 << v for v in keep)
        degrees = {(graph.adj[v] & mask).bit_count() for v in keep}
        return degrees.pop() if len(degrees) == 1 else None

    add("regular_omega123", 2 * n, regular_part)
    add("full_graph_not_regular", True, lambda: is_k_regular(graph) is None)

    # resolving sets
    add(
        "metric_dimension",
        closed_forms.cf_metric_dimension(n),
        lambda: invariants.metric_dimension(graph, cap=caps.metric),
    )
    add(
        "resolving_polynomial",
        closed_forms.cf_resolving_polynomial(n),
        lambda: invariants.resolving_polynomial(graph, cap=caps.resolving)[0],
    )
    add(
        "resolving_sequence",
        closed_forms.cf_resolving_sequence(n),
        lambda: invariants.resolving_polynomial(graph, cap=caps.resolving)[1].counts,
    )
    add(
        "resolving_roots",
        tuple(sorted(closed_forms.cf_resolving_roots(n))),
        lambda: integer_roots(invariants.resolving_polynomial(graph, cap=caps.resolving)[0]),
    )

    # detour distances: the distinct values are the polynomial's exponents
    add(
        "detour_distances",
        (5 * n - 1,),
        lambda: tuple(e for e, _ in invariants.detour_polynomial(graph).terms()),
    )
    add(
        "detour_polynomial",
        closed_forms.cf_detour_polynomial(n),
        lambda: invariants.detour_polynomial(graph),
    )
    add(
        "detour_index",
        closed_forms.cf_detour_index(n),
        lambda: invariants.detour_index(graph),
    )

    # eccentricities; the closed forms apply only from n = 2, and all three
    # entries rest on their premise that every eccentricity is 2
    theta = closed_forms.cf_total_eccentricity_polynomial(n)
    xi = closed_forms.cf_eccentric_connectivity_polynomial(n)
    add(
        "eccentricities",
        (2,),
        lambda: tuple(sorted(set(invariants.eccentricities(graph)))),
        applies=theta.applies,
    )
    add(
        "total_eccentricity_polynomial",
        theta.value,
        lambda: invariants.total_eccentricity_polynomial(graph),
        applies=theta.applies,
    )
    add(
        "eccentric_connectivity_polynomial",
        xi.value,
        lambda: invariants.eccentric_connectivity_polynomial(graph),
        applies=xi.applies,
    )

    # counting polynomials
    add(
        "independence_polynomial",
        closed_forms.cf_independence_polynomial(n),
        lambda: invariants.independence_polynomial(graph, cap=caps.indep),
    )
    add(
        "vertex_cover_polynomial",
        closed_forms.cf_vertex_cover_polynomial(n),
        lambda: invariants.vertex_cover_polynomial(graph, cap=caps.indep),
    )

    return VerificationReport(n=n, entries=tuple(entries))


def _json_text(value, indent: str) -> str:
    """The text of json.dumps(_json_value(value), indent=2) for a value
    whose first line sits at `indent`, a newline and the spaces before it;
    a value _json_value refuses raises TypeError here too."""
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    inner = indent + "  "
    if isinstance(value, IntPolynomial):
        terms = value.terms()
        if not terms:
            return "{" + inner + '"terms": []' + indent + "}"
        row = inner + "  "
        cell = row + "  "
        term = "[" + cell + "%d," + cell + '"%d"' + row + "]"
        return (
            "{" + inner + '"terms": [' + row + ("," + row).join([term % t for t in terms])
            + inner + "]" + indent + "}"
        )
    if isinstance(value, tuple):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        text = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(text, value) if text else [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"cannot serialise {value!r}")
