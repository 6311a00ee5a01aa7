"""Simple undirected graphs over bitset adjacency rows, and the
non-commuting graph construction.

Vertices are 0..V-1 with string labels; row v is an int whose bit u says
"u adjacent to v". Graphs are immutable, so every operation is a pure
function and safe to share. One lane-deletion path, `_restrict_rows`,
serves the graph build and every induced subgraph. What the engines
compute from a graph is kept with it (`Graph._memo`), so the entries of
one report share it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import compress
from json.encoder import encode_basestring_ascii

from .groups import FiniteGroup, _Value

# Induced-pattern search enumerates induced paths, whose number can grow like
# V^(k-1), so the pattern order stays small. Only paths and 5-cycles are ever
# needed here.
MAX_PATTERN_ORDER = 8

# lane bytes 0/1 (commutation bytes: 1 = the pair does not commute) or ASCII
# digits to binary digits; a lane with 2 OR-ed in is one of _MARKED, deleted
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_MARKED = b"\x02\x0323"
# ASCII binary digits to the bytes 0/1, a selector for itertools.compress
_SELECTOR = bytes.maketrans(b"01", b"\x00\x01")
# a vertex selector to the marks of _restrict_rows: 2 at each central lane
_CENTRAL = bytes.maketrans(b"\x00\x01", b"\x02\x00")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _restrict_rows(rows: Iterable[bytes], marks: bytes) -> tuple[int, ...]:
    """Each row (lane u at byte u) restricted to the lanes where `marks` is 0,
    as a bitset. OR-ing `marks` (2 at every dropped lane) in as a big int
    makes the dropped lanes _MARKED; one translate turns the kept lanes into
    digits and deletes the rest, and the digits reversed put the i-th kept
    lane at bit i. Each distinct row is converted once, and equal rows get
    the same int."""
    drop, width = int.from_bytes(marks, "big"), len(marks)
    rows = list(rows)
    bitsets = dict.fromkeys(rows)
    for row in bitsets:
        marked = (int.from_bytes(row, "big") | drop).to_bytes(width, "big")
        bitsets[row] = int(marked.translate(_DIGITS, _MARKED)[::-1], 2)
    return tuple(map(bitsets.__getitem__, rows))


def _classes_symmetric(adj: Sequence[int], classes: Sequence[Sequence[int]]) -> bool:
    """Whether rows that are equal on each class are symmetric and
    loop-free. Take every two classes A and B, with rows a and b: a vertex
    of A sees all of B or none of it, B sees A alike, the two agree, and A
    sees none of itself. O(m^2) big-int operations on V bits, for m
    classes."""
    masks = [sum(1 << u for u in members) for members in classes]
    rows = [adj[members[0]] for members in classes]
    for i, (a, mask_a) in enumerate(zip(rows, masks)):
        if a & mask_a:
            return False
        for b, mask_b in zip(rows[i + 1 :], masks[i + 1 :]):
            if (a & mask_b, b & mask_a) not in ((0, 0), (mask_b, mask_a)):
                return False
    return True


class Graph(_Value):
    """An undirected graph: vertex labels and one adjacency bitset per
    vertex. Construction refuses rows with bits outside the vertex range,
    loops and asymmetric rows.

    The rows are checked once per class of false twins (equal rows), which
    are computed first and stay cached for the engines: the range on one
    row of each class, then loops and symmetry class pair by class pair
    (_classes_symmetric). A refused graph is scanned vertex by vertex and
    edge by edge for the message that names the first bad vertex or
    asymmetric pair."""

    _fields = ("labels", "adj")

    def __init__(self, labels: tuple[str, ...], adj: tuple[int, ...]):
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "adj", adj)
        v = len(self.labels)
        if len(self.adj) != v:
            raise ValueError(f"{len(self.adj)} adjacency rows for {v} labels")
        if len(set(self.labels)) != v:
            raise ValueError("vertex labels must be unique")
        classes = self._twin_classes
        in_range = all(0 <= self.adj[c[0]] < 1 << v for c in classes)
        if in_range and _classes_symmetric(self.adj, classes):
            return
        self._scan_rows()

    def _scan_rows(self) -> None:
        """Raise the error of the first vertex whose row is out of range or
        has a loop, else of the first asymmetric pair."""
        v = len(self.labels)
        for u, row in enumerate(self.adj):
            if row < 0 or row >> v:
                raise ValueError(f"adjacency row {u} has bits outside the vertex range")
            if (row >> u) & 1:
                raise ValueError(f"loop at vertex {u} ({self.labels[u]!r})")
        for u in range(v):
            for w in _bits(self.adj[u]):
                if not (self.adj[w] >> u) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {w}")

    @classmethod
    def from_edges(cls, labels: Sequence[str], edges: Iterable[tuple[int, int]]) -> "Graph":
        v = len(labels)
        rows = [0] * v
        for a, b in edges:
            if not (0 <= a < v and 0 <= b < v):
                raise IndexError(f"edge ({a}, {b}) out of range for {v} vertices")
            if a == b:
                raise ValueError(f"loop edge at vertex {a}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return cls(labels=tuple(labels), adj=tuple(rows))

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise IndexError(f"vertex {v} out of range for {self.vertex_count} vertices")

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.adj[u] >> v) & 1)

    def edge_count(self) -> int:
        """Half the degree sum, a class of false twins at a time."""
        return sum(len(c) * self.adj[c[0]].bit_count() for c in self._twin_classes) // 2

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph on the given vertices (kept in ascending order)."""
        chosen = sorted(set(vertices))
        for v in chosen:
            self._check_vertex(v)
        marks = bytearray(b"\x02") * self.vertex_count
        for v in chosen:
            marks[v] = 0
        kept = [self.adj[v] for v in chosen]
        spec = f"0{self.vertex_count}b"
        lanes = {row: format(row, spec)[::-1].encode() for row in set(kept)}
        adj = _restrict_rows(map(lanes.__getitem__, kept), marks)
        return Graph(labels=tuple(self.labels[v] for v in chosen), adj=adj)

    @cached_property
    def _twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """The classes of false twins, computed on first use and kept; see
        twin_classes."""
        groups: dict[int, list[int]] = {}
        for u, row in enumerate(self.adj):
            groups.setdefault(row, []).append(u)
        return tuple(tuple(c) for c in groups.values())

    @cached_property
    def _twin_quotient(self) -> tuple["Graph", tuple[int, ...]]:
        """The subgraph induced by the smallest vertex of each class of false
        twins, and the class sizes in the same order; computed on first use
        and kept. Without twins the quotient is the graph itself."""
        classes = self._twin_classes
        if len(classes) == self.vertex_count:
            return self, (1,) * self.vertex_count
        return self.induced_subgraph(c[0] for c in classes), tuple(map(len, classes))

    @cached_property
    def _memos(self) -> dict:
        """The values kept by _memo, keyed by the function computing each."""
        return {}

    def _memo(self, compute):
        """compute(self), computed on first use and kept with this graph, as
        the twin classes are. Nothing is kept at module level or by graph
        value, so two graphs never share a value, equal or not. Two threads
        that both compute a value first compute the same one, and both
        return the one stored first."""
        memos = self._memos
        if compute not in memos:
            memos.setdefault(compute, compute(self))
        return memos[compute]


def non_commuting_graph(g: FiniteGroup) -> Graph:
    """Graph on the non-central elements of g, joined when they do not
    commute. Vertices follow element-index order; row v is the commutation
    row of the v-th of them with the central lanes deleted."""
    rows = g._commutation_rows
    is_vertex = {row: 1 in row for row in set(rows)}  # each distinct row once
    selector = bytes(map(is_vertex.__getitem__, rows))  # 1 at each vertex
    if 1 not in selector:
        raise ValueError("abelian group: the non-commuting graph has no vertices")
    # a central element commutes with everything, so its lane is 0 in every row
    adj = _restrict_rows(compress(rows, selector), selector.translate(_CENTRAL))
    return Graph(labels=tuple(compress(g.labels, selector)), adj=adj)


def twin_classes(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """Vertices grouped by identical adjacency row (false twins, never
    adjacent), classes in order of their smallest vertex; two classes are
    fully joined or not joined at all. Computed once per graph."""
    return graph._twin_classes


def is_complete_multipartite(graph: Graph) -> tuple[tuple[int, ...], ...] | None:
    """The parts of a complete multipartite graph, which are its false-twin
    classes (ordered by smallest vertex), or None when the graph is not
    complete multipartite."""
    classes = twin_classes(graph)
    everything = (1 << graph.vertex_count) - 1
    # false twins are never adjacent, so a class's row must be exactly the
    # other classes
    for members in classes:
        if graph.adj[members[0]] != everything ^ sum(1 << u for u in members):
            return None
    return classes


def _parse_pattern(pattern: str) -> tuple[str, int]:
    kind, _, tail = pattern.partition("_")
    # str.isdigit alone accepts non-ASCII digits, which int() reads or refuses
    if kind not in ("cycle", "path") or not (tail.isascii() and tail.isdigit()):
        raise ValueError(f"unknown pattern {pattern!r}; expected 'path_k' or 'cycle_k'")
    k = int(tail)
    if k > MAX_PATTERN_ORDER:
        raise ValueError(f"pattern order {k} exceeds the cap of {MAX_PATTERN_ORDER}")
    if kind == "cycle" and k < 3:
        raise ValueError("cycles need at least 3 vertices")
    if kind == "path" and k < 1:
        raise ValueError("paths need at least 1 vertex")
    return kind, k


def _grow(adj, closed, end, blocked, allowed, steps):
    """Yield (vertices, blocked) for every way to extend an induced path that
    ends at `end` by `steps` more vertices from `allowed`.

    `blocked` is the union of the closed neighbourhoods of the path's
    vertices other than `end`; every candidate is a neighbour of the end
    outside it, so each partial path is induced by construction. The
    yielded mask is the same union for the extended path.
    """
    if not steps:
        yield (), blocked
        return
    blocked_next = blocked | closed[end]
    for x in _bits(adj[end] & allowed & ~blocked):
        for rest, final in _grow(adj, closed, x, blocked_next, allowed, steps - 1):
            yield (x,) + rest, final


def _copies_at(adj, closed, kind, k, m):
    """Yield, once each, the vertex tuples of every induced copy of the
    pattern whose smallest vertex is m.

    A cycle is the induced path m, c1, ..., c_{k-2} closed by a common
    neighbour of m and c_{k-2} that sees no interior vertex; taking it above
    c1 fixes the orientation. A path is two arms grown from m, the first no
    longer than the second, and with equal arms the first starts lower.
    """
    above = -1 << (m + 1)
    if kind == "cycle":
        for c1 in _bits(adj[m] & above):
            for inner, blocked in _grow(adj, closed, c1, 0, above & ~closed[m], k - 3):
                last = inner[-1] if inner else c1
                for c in _bits(adj[last] & adj[m] & ~blocked & (-1 << (c1 + 1))):
                    yield (m, c1, *inner, c)
        return
    for short in range((k + 1) // 2):
        for left, _ in _grow(adj, closed, m, 0, above, short):
            left_closed = 0
            for u in left:
                left_closed |= closed[u]
            for right, _ in _grow(adj, closed, m, left_closed, above, k - 1 - short):
                if not (short and 2 * short == k - 1 and right[0] < left[0]):
                    yield (m, *left, *right)


# the only paths and cycles with false twins of their own: the ends of P3
# and the opposite corners of C4
_TWINNED_PATTERNS = (("path", 3), ("cycle", 4))


def _two_per_class(graph: Graph) -> tuple[tuple[int, ...], Graph]:
    """The two smallest members of each class of false twins, ascending,
    and the subgraph they induce (the graph itself if that is all)."""
    kept = tuple(sorted(u for c in twin_classes(graph) for u in c[:2]))
    if len(kept) < graph.vertex_count:
        return kept, graph.induced_subgraph(kept)
    return kept, graph


def find_induced(graph: Graph, pattern: str) -> tuple[int, ...] | None:
    """First vertex subset (lexicographic, as a sorted tuple) whose induced
    subgraph is the requested path or cycle, or None if there is none.

    False twins u, w of the graph (N(u) = N(w)) stay false twins in every
    induced subgraph that holds both. P_k for k != 3 and C_k for k != 4
    have no two vertices with equal neighbourhoods, so a copy of one of
    them holds at most one member of each twin class. Swapping a member
    for the smallest of its class is then an automorphism that never
    raises the sorted tuple, so the first copy lies on the class minima:
    the search runs on the kept twin quotient, and each of its vertices
    maps back to the first member of its class. P3 and C4 may hold two
    twins but never three (the twins' common neighbour would get degree
    3), and swapping a member for a smaller twin outside the copy lowers
    the sorted tuple, so their first copy keeps to the two smallest
    members of each class, and their search runs on the subgraph those
    induce. Each
    vertex m of the search graph in ascending order is tried as the
    smallest vertex of a copy, whose induced paths are grown on the
    vertices above m. The first m with a copy gives the answer: the
    smallest of its copies.
    """
    kind, k = _parse_pattern(pattern)
    if (kind, k) in _TWINNED_PATTERNS:
        kept, graph = graph._memo(_two_per_class)
    else:
        kept = tuple(c[0] for c in twin_classes(graph))
        graph = graph._twin_quotient[0]
    adj = graph.adj
    closed = [row | (1 << u) for u, row in enumerate(adj)]
    for m in range(graph.vertex_count):
        copies = _copies_at(adj, closed, kind, k, m)
        best = min((tuple(sorted(c)) for c in copies), default=None)
        if best is not None:
            return tuple(kept[i] for i in best)
    return None


def is_k_regular(graph: Graph) -> int | None:
    """The common vertex degree, or None if degrees differ (or no vertices)."""
    degrees = {row.bit_count() for row in graph.adj}
    if len(degrees) == 1:
        return degrees.pop()
    return None


def _rows_above(graph: Graph) -> Iterator[tuple[int, Iterator[str]]]:
    """(u, the neighbours v > u of u as decimal strings, ascending) for
    every vertex u that has one. The row's bits, as 0/1 bytes from bit 0
    up, select the names with itertools.compress."""
    names = [str(v) for v in range(graph.vertex_count)]
    for u, row in enumerate(graph.adj):
        above = row >> (u + 1) << (u + 1)
        if above:
            yield u, compress(names, format(above, "b")[::-1].encode().translate(_SELECTOR))


def _dot_chunks(graph: Graph) -> Iterator[str]:
    yield "graph G {"
    for v, label in enumerate(graph.labels):
        yield f'\n  {v} [label="{label}"];'
    for u, above in _rows_above(graph):
        edge = f"\n  {u} -- "
        yield edge + f";{edge}".join(above) + ";"
    yield "\n}"


def _json_chunks(graph: Graph) -> Iterator[str]:
    # the separators of json.dumps: ", " between items, ": " after keys
    yield '{"vertices": ['
    sep = ""
    for v, label in enumerate(graph.labels):
        yield f'{sep}{{"id": {v}, "label": {encode_basestring_ascii(label)}}}'
        sep = ", "
    yield '], "edges": ['
    sep = ""
    for u, above in _rows_above(graph):
        yield f"{sep}[{u}, " + f"], [{u}, ".join(above) + "]"
        sep = ", "
    yield "]}"


_EXPORT_FORMATS = {"dot": _dot_chunks, "json": _json_chunks}


def export_chunks(graph: Graph, fmt: str) -> Iterator[str]:
    """The text of export_graph in pieces: the header, one piece per
    vertex, one per vertex with a neighbour above it (its edges to those
    neighbours, ascending), and the footer. Each piece is made when it is
    asked for, so a writer holds one row's edges at a time."""
    if fmt not in _EXPORT_FORMATS:
        raise ValueError(f"unknown export format {fmt!r}; expected 'dot' or 'json'")
    return _EXPORT_FORMATS[fmt](graph)


def export_graph(graph: Graph, fmt: str) -> str:
    """Deterministic DOT or JSON text: vertices in index order, edges u < v
    lexicographic. The JSON is what json.dumps writes, with its default
    separators, for the vertices (id and label) and the edges [u, v]."""
    return "".join(export_chunks(graph, fmt))
