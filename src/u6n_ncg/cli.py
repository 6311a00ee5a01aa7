"""Command-line frontend.

Subcommands: build (group summary), graph (single invariant), poly
(counting polynomials, brute or closed form), export (DOT/JSON), and
verify (full brute-vs-closed report).

Exit codes: 0 success, 1 usage or I/O error, 2 at least one mismatch in a
verification report, 3 at least one `error` entry in a verification report
(an engine raised; each such entry is also written to stderr). 3 takes
precedence over 2: a report with both exits 3. A stdout closed by its
reader (`u6n-ncg verify ... | head -1`) stops the command with exit 1, the
code of an I/O error, and nothing on stderr. Running out of memory
(`MemoryError`) writes one error line to stderr and exits 1; stdout may
then hold partial output.

`verify` writes each report as soon as it is computed, and `export` each
vertex and each row of edges; the `error` lines of `verify` on stderr
follow the last report.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import closed_forms, invariants
from .graphs import export_chunks, non_commuting_graph
from .groups import group_from_json, u6n_group, u6n_order
from .invariants import Caps, DEFAULT_CAPS
from .verify import VerificationReport, verify_all

# Each entry looks its engine up when called, so that a rebound module
# attribute (a test's monkeypatch, a tracer's span) is the one that runs.
_GRAPH_INVARIANTS = {
    "edges": lambda graph: graph.edge_count(),
    "alpha": lambda graph: invariants.independence_number(graph),
    "tau": lambda graph: invariants.vertex_cover_number(graph),
    "omega": lambda graph: invariants.clique_number(graph),
    "chi": lambda graph: invariants.chromatic_number(graph),
    "beta": lambda graph: invariants.metric_dimension(graph),
    "ecc": lambda graph: ",".join(str(e) for e in sorted(set(invariants.eccentricities(graph)))),
    "detour-index": lambda graph: invariants.detour_index(graph),
}

# kind -> (brute force on the graph, closed form in n)
_POLY_KINDS = {
    "resolving": (
        lambda graph: invariants.resolving_polynomial(graph)[0],
        lambda n: closed_forms.cf_resolving_polynomial(n),
    ),
    "detour": (
        lambda graph: invariants.detour_polynomial(graph),
        lambda n: closed_forms.cf_detour_polynomial(n),
    ),
    "total-ecc": (
        lambda graph: invariants.total_eccentricity_polynomial(graph),
        lambda n: closed_forms.cf_total_eccentricity_polynomial(n).value,
    ),
    "ecc-conn": (
        lambda graph: invariants.eccentric_connectivity_polynomial(graph),
        lambda n: closed_forms.cf_eccentric_connectivity_polynomial(n).value,
    ),
    "independence": (
        lambda graph: invariants.independence_polynomial(graph),
        lambda n: closed_forms.cf_independence_polynomial(n),
    ),
    "vertex-cover": (
        lambda graph: invariants.vertex_cover_polynomial(graph),
        lambda n: closed_forms.cf_vertex_cover_polynomial(n),
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="u6n-ncg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a group and print a summary")
    src = p_build.add_mutually_exclusive_group(required=True)
    src.add_argument("--n", type=int, help="build U(6n) for this n")
    src.add_argument("--table", help="load a Cayley-table JSON file")

    p_graph = sub.add_parser("graph", help="one invariant of the non-commuting graph")
    p_graph.add_argument("--n", type=int, required=True)
    p_graph.add_argument("--invariant", choices=list(_GRAPH_INVARIANTS), required=True)

    p_poly = sub.add_parser("poly", help="a counting polynomial of the graph")
    p_poly.add_argument("kind", choices=list(_POLY_KINDS))
    p_poly.add_argument("--n", type=int, required=True)
    p_poly.add_argument("--source", choices=("brute", "closed", "both"), default="brute")

    p_export = sub.add_parser("export", help="serialize the non-commuting graph")
    p_export.add_argument("--n", type=int, required=True)
    p_export.add_argument("--format", choices=("dot", "json"), required=True)

    p_verify = sub.add_parser("verify", help="brute force against every closed form")
    span = p_verify.add_mutually_exclusive_group(required=True)
    span.add_argument("--n", type=int)
    span.add_argument("--n-range", help="inclusive range A:B")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument(
        "--caps",
        help="override the caps (metric counts vertices, the others twin classes), e.g. "
        + ",".join(f"{name}={value}" for name, value in zip(Caps._fields, DEFAULT_CAPS)),
    )
    return parser


def _parse_caps(text: str | None) -> Caps:
    if not text:
        return DEFAULT_CAPS
    valid = set(Caps._fields)
    overrides = {}
    for item in text.split(","):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in valid:
            raise ValueError(f"unknown cap override {item!r}; caps are {sorted(valid)}")
        if key in overrides:
            raise ValueError(f"cap override {item!r} sets {key} a second time")
        try:
            overrides[key] = int(value)
        except ValueError:
            raise ValueError(f"cap override {item!r} is not an integer") from None
        if overrides[key] < 0:
            raise ValueError(f"cap override {item!r} is negative")
    return DEFAULT_CAPS._replace(**overrides)


def _cmd_build(args) -> int:
    if args.n is not None:
        group = u6n_group(args.n)
    else:
        with open(args.table) as file:  # the encoding of Path.read_text
            text = file.read()
        group = group_from_json(text)
    center = sorted(group.center())
    print(f"order: {group.order}")
    print(f"identity: {group.labels[group.identity]}")
    print(f"abelian: {'true' if group.is_abelian() else 'false'}")
    print(f"center_size: {len(center)}")
    print("center: " + ", ".join(group.labels[x] for x in center))
    if args.n is not None:
        print(f"parameter_n: {args.n}")
    return 0


def _cmd_graph(args) -> int:
    graph = non_commuting_graph(u6n_group(args.n))
    print(_GRAPH_INVARIANTS[args.invariant](graph))
    return 0


def _cmd_poly(args) -> int:
    brute, closed = _POLY_KINDS[args.kind]
    # refuse an over-limit n on either side: the closed-form counts grow as
    # n^2 bits, past what str() writes
    u6n_order(args.n)
    if args.source in ("brute", "both"):
        value = brute(non_commuting_graph(u6n_group(args.n)))
    if args.source == "brute":
        print(value)
    elif args.source == "closed":
        print(closed(args.n))
    else:
        print(f"brute: {value}")
        print(f"closed: {closed(args.n)}")
    return 0


def _cmd_export(args) -> int:
    graph = non_commuting_graph(u6n_group(args.n))
    out = sys.stdout
    for chunk in export_chunks(graph, args.format):
        out.write(chunk)
    out.write("\n")
    return 0


def _cmd_verify(args) -> int:
    caps = _parse_caps(args.caps)
    if args.n is not None:
        first = last = args.n
    else:
        first, _, last = args.n_range.partition(":")
        try:
            first, last = int(first), int(last)
        except ValueError:
            raise ValueError(
                f"--n-range wants A:B with integers A and B, got {args.n_range!r}"
            ) from None
        if last < first or first < 1:
            raise ValueError(f"--n-range {args.n_range!r} is empty or starts below 1")
    u6n_order(last)  # refuse an over-limit n before computing any report
    # each report is written as soon as it is computed and then dropped, so
    # a range holds one report at a time; a JSON range is the array that
    # json.dumps(..., indent=2) writes, even of one report, and --n an object
    if args.format == "text":
        head, sep, tail, render = "", "\n\n", "\n", VerificationReport.to_text
    elif args.n is not None:
        head, sep, tail, render = "", "", "\n", VerificationReport.to_json
    else:
        head, sep, tail = "[\n  ", ",\n  ", "\n]\n"
        render = functools.partial(VerificationReport.to_json, level=1)
    errors, mismatch = [], False
    out = sys.stdout
    for n in range(first, last + 1):
        report = verify_all(n, caps=caps)
        out.write(sep if n > first else head)
        out.write(render(report))
        errors += [f"n = {n}, {e.name}: {e.error}" for e in report.entries if e.status == "error"]
        mismatch = mismatch or report.has_mismatch()
        del report  # not held while the next one is computed
    out.write(tail)
    for error in errors:
        sys.stderr.write(f"u6n-ncg: error: {error}\n")
    if errors:
        return 3
    return 2 if mismatch else 0


_COMMANDS = {
    "build": _cmd_build,
    "graph": _cmd_graph,
    "poly": _cmd_poly,
    "export": _cmd_export,
    "verify": _cmd_verify,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader left early, as `| head` does: say nothing, and point
        # stdout at devnull so that the flush at exit writes nothing either
        # (the Python docs' note on SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"u6n-ncg: error: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write("u6n-ncg: error: out of memory\n")
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
