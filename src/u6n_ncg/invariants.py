"""Exhaustive, structure-agnostic graph invariants.

Distances, longest simple paths, independence and cover counts, cliques,
colourings, and resolving sets, all computed exactly over adjacency
bitsets. The NP-hard searches carry explicit caps (Caps); going past a
cap raises CapacityError instead of silently approximating.

Independent sets, covers, resolving sets and longest paths work on the
classes C_1..C_m of false twins (equal neighbourhoods): resolving sets
test 2^m class patterns, each class whole or one member short, against
the distinct masks of classes that tell two left-out members apart, in
one sweep that counts resolving sets by size for the resolving
polynomial and for β, which is its first nonzero count; independence
counts recurse on the twin quotient, one vertex per class. Longest paths
are first settled by Ore's degree condition (Ore, 1963), one check per
pair of classes of the twin quotient: a graph that passes it has every
two vertices joined by a path through all V of them, so every detour
distance is V - 1 and the detour polynomial is one term, at a cost
independent of the class sizes. The condition is only sufficient; every
other graph is answered by a DP that advances T-bit integers,
T = prod(|C_i| + 1), under a cap on vertices that the detour engines
take as an argument. The caps of the resolving, independence and
chromatic engines count twin classes, and the metric cap counts
vertices; without twins m = V and the cost is 2^V. One weighted branch
and bound finds maximum independent sets: α runs it on the twin
quotient weighted by class sizes, and ω is α of the quotient's
complement with unit weights. χ is one DSATUR branch and bound on the
twin quotient, which stops at ω.
The engines take their distances from one pass, the BFS layers of the
twin quotient from each class: two classes are as far apart as there,
and two members of one class are at distance 2. The eccentricities and
the resolving masks read it, and the detour DP its verdict on
connectivity; only distance_matrix, eccentricity and is_connected run a
BFS on the graph itself.

A value that engines read is computed once per graph and kept with it
(Graph._memo): the resolving polynomial and sequence (β, the resolving
polynomial), the independence polynomial (it, the cover polynomial), the
Ore verdict (the detour polynomial and index), the class layers (the
resolving sweep, the eccentricities, both eccentricity polynomials), the
weighted α of the twin quotient (α, the vertex cover number) and the
quotient's clique size (ω, χ's lower bound). Each engine checks its own
cap first.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .graphs import Graph, _bits, twin_classes
from .polynomials import IntPolynomial

UNREACHABLE = -1


class Caps(
    namedtuple("Caps", "resolving chromatic indep metric", defaults=(16, 40, 24, 20))
):
    """Limits for the exponential searches. The metric cap counts
    vertices; the others count classes of false twins, m, which is the
    vertex count V of a graph without twins.

    A class cap bounds the number of search states, not their size. The
    resolving sweep tests 2^m class patterns against at most V masks, and
    the independence recursion keeps at most 2^m memo entries, each a
    polynomial packed into an integer of (V + 1) * (V // 8 + 1) bytes, so
    its cost grows with about 2^m products of integers of V^2 / 8 bytes
    (3 MB at V = 5000)."""

    __slots__ = ()


DEFAULT_CAPS = Caps()


class CapacityError(ValueError):
    """An exhaustive operation was asked to exceed its cap."""


class DisconnectedGraphError(ValueError):
    """A distance-based invariant needs a connected graph."""


def _check_cap(name: str, count: int, cap: int, unit: str = "twin classes") -> None:
    if count > cap:
        raise CapacityError(f"{name} handles at most {cap} {unit}, got {count}")


def _bfs_layers(graph: Graph, source: int) -> list[int]:
    """Bitmasks of the vertices at distance 0, 1, 2, ... from the source."""
    layers = []
    seen = frontier = 1 << source
    while frontier:
        layers.append(frontier)
        reach = 0
        for v in _bits(frontier):
            reach |= graph.adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return layers


def distance_matrix(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """All-pairs shortest-path hop counts; UNREACHABLE marks missing paths."""
    rows = []
    for source in range(graph.vertex_count):
        row = [UNREACHABLE] * graph.vertex_count
        for step, layer in enumerate(_bfs_layers(graph, source)):
            for v in _bits(layer):
                row[v] = step
        rows.append(tuple(row))
    return tuple(rows)


def is_connected(graph: Graph) -> bool:
    v_count = graph.vertex_count
    return v_count == 0 or sum(_bfs_layers(graph, 0)) == (1 << v_count) - 1


def eccentricity(graph: Graph, v: int) -> int:
    graph._check_vertex(v)
    layers = _bfs_layers(graph, v)
    if sum(layers) != (1 << graph.vertex_count) - 1:
        raise DisconnectedGraphError("eccentricity requires a connected graph")
    return len(layers) - 1


def _class_index(graph: Graph) -> list[int]:
    """The twin class of each vertex."""
    index = [0] * graph.vertex_count
    for i, members in enumerate(twin_classes(graph)):
        for u in members:
            index[u] = i
    return index


def _class_layers(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """The BFS layers of the twin quotient from each class, as masks of
    classes; read through graph._memo. Members of two classes are as far
    apart as the classes in the quotient, since a shortest path never
    enters one class twice; two members of one class are at distance 2
    through any neighbour. Refuses a disconnected graph."""
    quotient, sizes = graph._twin_quotient
    everything = (1 << quotient.vertex_count) - 1
    layers = tuple(tuple(_bfs_layers(quotient, q)) for q in range(len(sizes)))
    for rows, size in zip(layers, sizes):
        # a class of twins without neighbours is cut off from its own members
        if sum(rows) != everything or (size > 1 and len(rows) == 1):
            raise DisconnectedGraphError("distances require a connected graph")
    return layers


def _class_eccentricities(graph: Graph) -> list[int]:
    """Eccentricity of each twin class: its last layer, or 2 between twins."""
    layers, sizes = graph._memo(_class_layers), graph._twin_quotient[1]
    return [max(len(rows) - 1, 2 if size > 1 else 0) for rows, size in zip(layers, sizes)]


def eccentricities(graph: Graph) -> tuple[int, ...]:
    """Eccentricity of every vertex; twins share theirs."""
    eccs = _class_eccentricities(graph)
    return tuple(eccs[i] for i in _class_index(graph))


def total_eccentricity_polynomial(graph: Graph) -> IntPolynomial:
    """Sum of x^ecc(v) over all vertices, a class of twins at a time."""
    sizes = graph._twin_quotient[1]
    return IntPolynomial.from_terms(zip(_class_eccentricities(graph), sizes))


def eccentric_connectivity_polynomial(graph: Graph) -> IntPolynomial:
    """Sum of deg(v) * x^ecc(v) over all vertices, a class of twins at a
    time: twins share their degree."""
    degrees = (len(c) * graph.adj[c[0]].bit_count() for c in twin_classes(graph))
    return IntPolynomial.from_terms(zip(_class_eccentricities(graph), degrees))


# -- longest simple paths ----------------------------------------------

def _ore_condition(graph: Graph) -> bool:
    """Whether deg u + deg v > V for every two distinct non-adjacent
    vertices, checked on the twin quotient; read through graph._memo. A
    graph that passes has every two distinct vertices joined by a path
    through all V of them (O. Ore, "Hamiltonian connected graphs", J. Math.
    Pures Appl. 42, 1963). The condition is only sufficient: a graph that
    fails it may still be Hamilton-connected. Twins share their degree, so
    the pairs checked are two members of a class of at least two and a
    member of each of two non-adjacent classes, O(m^2) pairs in all."""
    quotient, sizes = graph._twin_quotient
    m = len(sizes)
    degree = [graph.adj[c[0]].bit_count() for c in twin_classes(graph)]
    return all(
        degree[a] + degree[w] > graph.vertex_count
        for a in range(m)
        for w in range(a if sizes[a] > 1 else a + 1, m)
        if not quotient.adj[a] >> w & 1
    )


_DETOUR_CAP = 15  # vertices; Γ(U(6n)) passes Ore's condition, so never reaches the DP


def _class_detours(graph: Graph, cap: int) -> list[list[int]]:
    """D between members of twin classes a and w, two distinct ones when
    a == w (0 for a class of one), by a DP under the cap on vertices.

    Twins are never adjacent and classes join all-or-none, so a class
    sequence is a path exactly when consecutive classes are joined and no
    class is used more often than it has members. Count vectors
    (k_1..k_m), k_i <= |C_i|, are numbered in mixed radix, and bit c of
    ends[a][w] is set when some path starts in class a, ends in class w
    and has count vector c. A layer adds one vertex to every path at once:
    a step into class x keeps the states with k_x < |C_x| and adds
    stride[x] to the index.
    """
    quotient, sizes = graph._twin_quotient
    m = len(sizes)
    v_count = graph.vertex_count
    _check_cap("detour_polynomial", v_count, cap, "vertices")
    graph._memo(_class_layers)  # refuses a disconnected graph

    stride, total = [], 1
    for size in sizes:
        stride.append(total)
        total *= size + 1
    # room[x] repeats stride * |C_x| set bits and stride clear ones; built
    # by doubling, as big-int division would be quadratic
    room = []
    for size, step in zip(sizes, stride):
        bits, width = (1 << step * size) - 1, step * (size + 1)
        while width < total:
            bits |= bits << width
            width *= 2
        room.append(bits & ((1 << total) - 1))
    joined = [list(_bits(row)) for row in quotient.adj]
    ends = [[1 << stride[a] if w == a else 0 for w in range(m)] for a in range(m)]
    best = [[0] * m for _ in range(m)]
    for length in range(v_count):  # ascending, so the longest one stays
        for a, row in enumerate(ends):
            grown = [0] * m
            for w in range(m):
                if row[w]:
                    best[a][w] = length
                    for x in joined[w]:
                        grown[x] |= row[w]
            ends[a] = [(g & r) << step for g, r, step in zip(grown, room, stride)]
    return best


def detour_polynomial(graph: Graph, cap: int = _DETOUR_CAP) -> IntPolynomial:
    """Sum of x^D(u, v) over unordered pairs of distinct vertices.

    When the graph passes Ore's condition, every two vertices are joined by
    a path through all V of them, and it is the one term C(V, 2) * x^(V - 1),
    at a cost independent of the class sizes. Otherwise it adds up the DP's
    class-pair values, under the cap on vertices: C(|C_a|, 2) pairs inside
    class a and |C_a| * |C_w| between classes a and w."""
    v_count = graph.vertex_count
    if graph._memo(_ore_condition):
        return IntPolynomial.monomial(v_count - 1, comb(v_count, 2)) if v_count > 1 else IntPolynomial()
    best = _class_detours(graph, cap)
    sizes = graph._twin_quotient[1]
    terms = []
    for a, size in enumerate(sizes):
        terms.append((best[a][a], size * (size - 1) // 2))
        terms.extend((best[a][w], size * sizes[w]) for w in range(a + 1, len(sizes)))
    return IntPolynomial.from_terms(terms)


def detour_index(graph: Graph, cap: int = _DETOUR_CAP) -> int:
    return detour_polynomial(graph, cap=cap).derivative_at_one()


# -- independence, covers, cliques, colourings -------------------------

def independence_number(graph: Graph) -> int:
    """Maximum independent set size. An independent set may take a whole
    class of false twins or none of it, so the search runs on the twin
    quotient with the class sizes as weights."""
    return graph._memo(_quotient_independence)


def _quotient_independence(graph: Graph) -> int:
    """The largest weight of an independent set of the twin quotient,
    weighted by class sizes; read through graph._memo."""
    quotient, sizes = graph._twin_quotient
    return _max_weight_independent(quotient.adj, sizes)


def _max_weight_independent(adj: tuple[int, ...], weights: tuple[int, ...]) -> int:
    """Largest total weight of an independent set of the adjacency rows, by
    branch and bound on bitsets. The search depth grows with the vertex
    count, so it runs on an explicit stack rather than the interpreter's;
    the include branch is pushed last so it is explored first.

    A node is cut when its size plus the weight of its mask, less
    min(w_u, w_v) for each edge uv of a greedy matching inside the mask,
    is no more than the best found: an independent set takes at most one
    end of each matched edge.
    """
    # the weight of a mask is its bit count plus (w - 1) per vertex of
    # weight w > 1: one extra bit_count per distinct weight, none if all are 1
    extra: dict[int, int] = {}
    for u, w in enumerate(weights):
        if w > 1:
            extra[w - 1] = extra.get(w - 1, 0) | (1 << u)
    extra_masks = tuple(extra.items())
    heaviest = max(weights, default=0)
    best = 0
    stack = [((1 << len(adj)) - 1, 0)]
    while stack:
        mask, size = stack.pop()
        bound = size + mask.bit_count()
        for excess, m in extra_masks:
            bound += excess * (mask & m).bit_count()
        if bound <= best:
            continue
        if not mask:
            best = size
            continue
        # each matched edge takes two vertices of rest and lowers the bound
        # by at most the heaviest weight; stop once no cut can come of it
        rest = mask
        while best < bound <= best + (rest.bit_count() >> 1) * heaviest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            partners = adj[u] & rest
            if partners:
                partner = partners & -partners
                rest ^= partner
                bound -= min(weights[u], weights[partner.bit_length() - 1])
        if bound <= best:
            continue
        # max-degree pivot keeps branching shallow on dense graphs
        pivot = max(_bits(mask), key=lambda u: (adj[u] & mask).bit_count())
        stack.append((mask & ~(1 << pivot), size))
        stack.append((mask & ~(adj[pivot] | (1 << pivot)), size + weights[pivot]))
    return best


def independence_polynomial(graph: Graph, cap: int = DEFAULT_CAPS.indep) -> IntPolynomial:
    """Counts of independent sets by size (the empty set included).

    An independent set takes a nonempty part of each class of an
    independent set of the twin quotient, so on the quotient
    I(S) = I(S - v) + ((1 + x)^|C_v| - 1) * I(S - N[v]), memoised by
    mask and unrolled along S - v. A polynomial is held as the integer it
    takes at x = 256^B: no count exceeds 2^V, so B = V // 8 + 1 bytes keep
    the coefficients apart, and the products are big-int products. Packing
    and unpacking go through bytes, a coefficient per B-byte slice, so
    both take time linear in the packed size.
    """
    _check_cap("independence_polynomial", len(twin_classes(graph)), cap)
    return graph._memo(_independence_counts)


def _independence_counts(graph: Graph) -> IntPolynomial:
    """independence_polynomial past its cap; read through graph._memo."""
    quotient, sizes = graph._twin_quotient
    adj = quotient.adj
    v_count = graph.vertex_count
    width = v_count // 8 + 1
    gain = [_packed_gain(size, width) for size in sizes]
    memo = {0: 1}

    def count(mask: int) -> int:
        total = memo.get(mask)
        if total is None:
            total, rest = 1, mask
            while rest:  # v is the smallest vertex taken
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                total += gain[v] * count(rest & ~adj[v])
            memo[mask] = total
        return total

    data = count((1 << quotient.vertex_count) - 1).to_bytes((v_count + 1) * width, "little")
    coeffs = (int.from_bytes(data[at : at + width], "little") for at in range(0, len(data), width))
    return IntPolynomial(dict(enumerate(coeffs)))


def _packed_gain(size: int, width: int) -> int:
    """(1 + x)^size - 1 at x = 256^width: the binomial row C(size, k),
    k = 1..size, by a running product, each written in `width` bytes."""
    digits = [bytes(width)]
    coeff = 1
    for k in range(1, size + 1):
        coeff = coeff * (size + 1 - k) // k
        digits.append(coeff.to_bytes(width, "little"))
    return int.from_bytes(b"".join(digits), "little")


def vertex_cover_number(graph: Graph) -> int:
    """Minimum vertex cover size, via the complement of a maximum
    independent set."""
    return graph.vertex_count - independence_number(graph)


def vertex_cover_polynomial(graph: Graph, cap: int = DEFAULT_CAPS.indep) -> IntPolynomial:
    """Counts of vertex covers by size, under the independence cap. A set
    covers every edge exactly when its complement is independent, so the
    covers of size V - k are the complements of the independent k-sets."""
    independence = independence_polynomial(graph, cap=cap)
    return IntPolynomial.from_terms((graph.vertex_count - k, c) for k, c in independence.terms())


def clique_number(graph: Graph) -> int:
    """Maximum clique size, on the twin quotient: false twins are never
    adjacent, so a clique takes at most one vertex per class, and any one
    will do."""
    return graph._twin_quotient[0]._memo(_clique_size)


def _clique_size(graph: Graph) -> int:
    """Maximum clique size: the largest independent set of the complement,
    every vertex of weight 1; read through graph._memo."""
    full = (1 << graph.vertex_count) - 1
    complement = tuple(full ^ row ^ (1 << u) for u, row in enumerate(graph.adj))
    return _max_weight_independent(complement, (1,) * graph.vertex_count)


def chromatic_number(graph: Graph, cap: int = DEFAULT_CAPS.chromatic) -> int:
    """Exact chromatic number by DSATUR branch and bound on the twin
    quotient; twins take their class's colour. The cap counts classes.

    A node of the explicit stack holds the neighbourhood mask of each
    colour class and the mask of uncoloured vertices. It colours the
    vertex whose neighbours hold the most colours (then the one with the
    most uncoloured neighbours, then the lowest) with each free colour in
    ascending order, then one new colour, so the first colouring found is
    DSATUR's. A node using as many colours as the best colouring is cut,
    and the search ends once the best colouring reaches the clique number.
    """
    _check_cap("chromatic_number", len(twin_classes(graph)), cap)
    graph = graph._twin_quotient[0]
    adj = graph.adj
    lower = graph._memo(_clique_size)
    best = graph.vertex_count + 1
    stack = [((), (1 << graph.vertex_count) - 1)]
    while stack and best > lower:
        nbrs, uncoloured = stack.pop()
        if len(nbrs) >= best:
            continue
        if not uncoloured:
            best = len(nbrs)
            continue
        # digits[j] holds bit j of each vertex's count of neighbour colours
        digits = []
        for carry in nbrs:
            carry &= uncoloured
            for j, d in enumerate(digits):
                digits[j], carry = d ^ carry, d & carry
            if carry:
                digits.append(carry)
        top = uncoloured
        for d in reversed(digits):
            if top & d:
                top &= d
        v = max(_bits(top), key=lambda u: ((adj[u] & uncoloured).bit_count(), -u))
        rest, row = uncoloured ^ (1 << v), adj[v]
        stack.append((nbrs + (row,), rest))
        for i in reversed(range(len(nbrs))):
            if not nbrs[i] >> v & 1:
                stack.append((nbrs[:i] + (nbrs[i] | row,) + nbrs[i + 1 :], rest))
    return best


# -- resolving sets -----------------------------------------------------

class ResolvingSequence(namedtuple("ResolvingSequence", "beta counts")):
    """Resolving-set counts by cardinality, from the metric dimension up
    to the vertex count."""

    __slots__ = ()


def _pattern_tables(sizes):
    """The class patterns as low and high tables over the two halves of
    the classes, entries (rep, size, weight). A pattern takes each class
    whole (bit k of rep for class k) or leaves out one member, so size
    counts the chosen vertices and weight the vertex sets of that pattern,
    one per choice of the members left out."""
    mid = (len(sizes) + 1) // 2
    tables = []
    for start, half in ((0, sizes[:mid]), (mid, sizes[mid:])):
        table = [(0, 0, 1)]
        for k, size in enumerate(half, start):
            table = [(r, s + size - 1, w * size) for r, s, w in table] + [
                (r | 1 << k, s + size, w) for r, s, w in table
            ]
        tables.append(table)
    return tables


def _disagreement_masks(graph: Graph) -> list[int]:
    """The distinct masks of classes that a class pattern must meet to
    resolve the graph, sparsest first so a non-resolving one fails early.

    A resolving set leaves out at most one member of each class of false
    twins, since only twins tell twins apart, and swapping twins is an
    automorphism, so the member left out may be the first. The left-out
    firsts of classes i and j are told apart by themselves and by every
    class at different distances from the two. A twin is always chosen,
    so a pair that a twin tells apart needs no mask; otherwise the pattern
    must take the first of a class in the mask.
    """
    layers, sizes = graph._memo(_class_layers), graph._twin_quotient[1]
    everything = (1 << len(sizes)) - 1
    twinned = sum(1 << k for k, size in enumerate(sizes) if size > 1)
    masks = set()
    for i, rows in enumerate(layers):
        at_two = rows[2] if len(rows) > 2 else 0
        for j in range(i + 1, len(layers)):
            # a pair agrees on class k exactly when k lies in the same layer for both
            same = 0
            for a, b in zip(rows, layers[j]):
                same |= a & b
            mask = everything ^ same
            pair = 1 << i | 1 << j
            # a twin tells the pair apart where its class does, and a twin
            # of i or j unless i and j are at distance 2
            if mask & twinned & ~pair or (twinned & pair and not at_two >> j & 1):
                continue
            masks.add(mask)
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def _hits_all(subset: int, masks: list[int]) -> bool:
    for mask in masks:
        if not subset & mask:
            return False
    return True


def _resolving(graph: Graph) -> tuple[IntPolynomial, ResolvingSequence]:
    """The resolving polynomial and its sequence; read through graph._memo.
    Every class pattern is tested; the masks its high part meets are
    dropped before the low parts."""
    masks = _disagreement_masks(graph)
    low, high = _pattern_tables(graph._twin_quotient[1])
    counts = [0] * (graph.vertex_count + 1)
    for rep_h, size_h, weight_h in high:
        rest = [mask for mask in masks if not mask & rep_h]
        for rep_l, size_l, weight_l in low:
            if _hits_all(rep_l, rest):
                counts[size_h + size_l] += weight_h * weight_l
    beta = next(k for k, c in enumerate(counts) if c)
    sequence = ResolvingSequence(beta=beta, counts=tuple(counts[beta:]))
    return IntPolynomial.from_terms(enumerate(counts)), sequence


def metric_dimension(graph: Graph, cap: int = DEFAULT_CAPS.metric) -> int:
    """Smallest resolving-set size: the first nonzero count of the
    resolving sweep. The sweep tests all 2^m class patterns whatever the
    answer is. The cap counts vertices."""
    _check_cap("metric_dimension", graph.vertex_count, cap, "vertices")
    return graph._memo(_resolving)[1].beta


def resolving_polynomial(
    graph: Graph, cap: int = DEFAULT_CAPS.resolving
) -> tuple[IntPolynomial, ResolvingSequence]:
    """Counts of resolving sets by cardinality, from the resolving sweep."""
    _check_cap("resolving_polynomial", len(twin_classes(graph)), cap)
    return graph._memo(_resolving)
