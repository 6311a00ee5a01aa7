"""Exhaustive, structure-agnostic graph invariants.

Distances, longest simple paths, independence and cover counts, cliques,
colourings, and resolving sets, all computed exactly over adjacency
bitsets. The NP-hard searches carry explicit vertex caps (Caps); going
past a cap raises CapacityError instead of silently approximating.

Independent sets, covers, resolving sets and longest paths are swept over
type vectors (k_1..k_m), the number of chosen vertices in each class of
false twins: swapping twins is an automorphism, so one representative per
vector is tested and weighted by prod C(|C_i|, k_i). The caps still count
vertices; the cost grows with prod(|C_i| + 1), 2^V only without twins.
The independence, clique and chromatic numbers search the twin quotient,
one vertex per class, and eccentricities take one BFS per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

from .graphs import Graph, _bits, twin_classes
from .polynomials import IntPolynomial

UNREACHABLE = -1


@dataclass(frozen=True)
class Caps:
    """Vertex-count limits for the exponential searches."""

    detour: int = 15
    resolving: int = 16
    chromatic: int = 40
    indep: int = 24
    metric: int = 20


DEFAULT_CAPS = Caps()


class CapacityError(ValueError):
    """An exhaustive operation was asked to exceed its vertex cap."""


class DisconnectedGraphError(ValueError):
    """A distance-based invariant needs a connected graph."""


def _check_cap(name: str, count: int, cap: int) -> None:
    if count > cap:
        raise CapacityError(f"{name} handles at most {cap} vertices, got {count}")


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


def eccentricities(graph: Graph) -> tuple[int, ...]:
    """Eccentricity of every vertex, from one BFS per class of false twins:
    twins share their distances to every other vertex."""
    eccs = [0] * graph.vertex_count
    for members in twin_classes(graph):
        ecc = eccentricity(graph, members[0])
        for v in members:
            eccs[v] = ecc
    return tuple(eccs)


def total_eccentricity_polynomial(graph: Graph) -> IntPolynomial:
    """Sum of x^ecc(v) over all vertices."""
    return IntPolynomial.from_terms((e, 1) for e in eccentricities(graph))


def eccentric_connectivity_polynomial(graph: Graph) -> IntPolynomial:
    """Sum of deg(v) * x^ecc(v) over all vertices."""
    eccs = eccentricities(graph)
    return IntPolynomial.from_terms(
        (eccs[v], graph.degree(v)) for v in range(graph.vertex_count)
    )


# -- twin-class type vectors --------------------------------------------

def _type_vectors(classes) -> list[tuple[int, int, int]]:
    """Every type vector over `classes` in mixed radix, the first class
    least significant, as (rep, size, weight): the representative set (the
    first k_i members of each class), its size, and the number of vertex
    sets of that type."""
    table = [(0, 0, 1)]
    for members in classes:
        block, rep = table, 0
        for k, v in enumerate(members, 1):
            rep |= 1 << v
            weight = comb(len(members), k)
            table = table + [(r | rep, s + k, w * weight) for r, s, w in block]
    return table


def _type_tables(classes):
    """The type vectors as low and high tables of about sqrt(T) entries,
    T = prod(|C_i| + 1): state h * len(low) + l joins high[h] and low[l]."""
    total = prod(len(c) + 1 for c in classes)
    mid, low_count = 0, 1
    while low_count * low_count < total:
        low_count *= len(classes[mid]) + 1
        mid += 1
    return _type_vectors(classes[:mid]), _type_vectors(classes[mid:])


def _reach(adj, rep: int) -> int:
    nb = 0
    for v in _bits(rep):
        nb |= adj[v]
    return nb


# -- longest simple paths ----------------------------------------------

def detour_matrix(graph: Graph, cap: int = DEFAULT_CAPS.detour) -> tuple[tuple[int, ...], ...]:
    """All-pairs longest-simple-path lengths.

    Dynamic programme over (type vector, last class) states, each keeping
    the bitmask of classes a path can start in. Twins are never adjacent
    and classes join all-or-none, so a class sequence is a path exactly
    when consecutive classes are joined and no class is overused.
    """
    v_count = graph.vertex_count
    _check_cap("detour_matrix", v_count, cap)
    if v_count == 0:
        return ()
    if not is_connected(graph):
        raise DisconnectedGraphError("detour distance requires a connected graph")

    adj = graph.adj
    classes = twin_classes(graph)
    # a class is named by its first member; starts[s * V + w] holds the start
    # classes of paths in state s ending in class w, a step into u's class
    # adds offset[u] to that index
    key, offset = [0] * v_count, [0] * v_count
    firsts, lasts, radix = 0, 0, 1
    for members in classes:
        first = members[0]
        for u in members:
            key[u], offset[u] = first, radix * v_count + first
        firsts |= 1 << first
        lasts |= 1 << members[-1]
        radix *= len(members) + 1
    starts = [0] * (radix * v_count)
    for u in _bits(firsts):
        starts[offset[u]] = 1 << u
    # longest[L * V + w]: start classes of paths with L edges ending in w
    longest = [0] * (v_count * v_count)
    low, high = _type_tables(classes)
    state = 0
    for rep_h, size_h, _ in high:
        for rep_l, size_l, _ in low:
            subset = rep_h | rep_l
            base = state * v_count
            row = (size_h + size_l - 1) * v_count
            room = lasts & ~subset
            rem = subset & firsts
            while rem:
                wbit = rem & -rem
                rem ^= wbit
                w = wbit.bit_length() - 1
                sm = starts[base + w]
                if not sm:
                    continue
                longest[row + w] |= sm
                ext = adj[w] & room
                while ext:
                    xbit = ext & -ext
                    ext ^= xbit
                    x = xbit.bit_length() - 1
                    starts[base + offset[x]] |= sm
            state += 1

    best = [[0] * v_count for _ in range(v_count)]
    for length in range(1, v_count):  # ascending, so the longest one stays
        for w in _bits(firsts):
            for u in _bits(longest[length * v_count + w]):
                best[u][w] = length
    return tuple(
        tuple(best[key[u]][key[w]] if u != w else 0 for w in range(v_count))
        for u in range(v_count)
    )


def detour_distance(graph: Graph, u: int, v: int, cap: int = DEFAULT_CAPS.detour) -> int:
    graph._check_vertex(u)
    graph._check_vertex(v)
    return detour_matrix(graph, cap=cap)[u][v]


def detour_polynomial(graph: Graph, cap: int = DEFAULT_CAPS.detour) -> IntPolynomial:
    """Sum of x^D(u, v) over unordered pairs of distinct vertices."""
    matrix = detour_matrix(graph, cap=cap)
    v_count = graph.vertex_count
    return IntPolynomial.from_terms(
        (matrix[u][v], 1) for u in range(v_count) for v in range(u + 1, v_count)
    )


def detour_index(graph: Graph, cap: int = DEFAULT_CAPS.detour) -> int:
    return detour_polynomial(graph, cap=cap).derivative_at_one()


# -- independence, covers, cliques, colourings -------------------------

def _twin_quotient(graph: Graph) -> tuple[Graph, list[int]]:
    """The subgraph induced by the smallest vertex of each class of false
    twins, and the class sizes in the same order."""
    classes = twin_classes(graph)
    if len(classes) == graph.vertex_count:  # no twins: the quotient is the graph
        return graph, [1] * graph.vertex_count
    return graph.induced_subgraph(c[0] for c in classes), [len(c) for c in classes]


def independence_number(graph: Graph) -> int:
    """Maximum independent set size by branch and bound on bitsets.

    An independent set may take a whole class of false twins or none of it,
    so the search runs on the twin quotient with the class sizes as
    weights. The search depth grows with the class count, so it runs on an
    explicit stack rather than the interpreter's; the include branch is
    pushed last so it is explored first.
    """
    quotient, weights = _twin_quotient(graph)
    adj = quotient.adj
    # the weight of a mask is its bit count plus (w - 1) per class of size
    # w > 1: one extra bit_count per distinct class size, none without twins
    extra: dict[int, int] = {}
    for u, w in enumerate(weights):
        if w > 1:
            extra[w - 1] = extra.get(w - 1, 0) | (1 << u)
    extra_masks = tuple(extra.items())
    best = 0
    stack = [((1 << quotient.vertex_count) - 1, 0)]
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
        # max-degree pivot keeps branching shallow on dense graphs
        pivot = max(_bits(mask), key=lambda u: (adj[u] & mask).bit_count())
        stack.append((mask & ~(1 << pivot), size))
        stack.append((mask & ~(adj[pivot] | (1 << pivot)), size + weights[pivot]))
    return best


def independence_polynomial(graph: Graph, cap: int = DEFAULT_CAPS.indep) -> IntPolynomial:
    """Counts of independent sets by size (the empty set included): a high
    and a low part are each independent, and not joined to each other."""
    v_count = graph.vertex_count
    _check_cap("independence_polynomial", v_count, cap)
    adj = graph.adj
    low, high = _type_tables(twin_classes(graph))
    low = [entry for entry in low if not _reach(adj, entry[0]) & entry[0]]
    counts = [0] * (v_count + 1)
    for rep_h, size_h, weight_h in high:
        nb = _reach(adj, rep_h)
        if nb & rep_h:
            continue
        for rep_l, size_l, weight_l in low:
            if not nb & rep_l:
                counts[size_h + size_l] += weight_h * weight_l
    return IntPolynomial.from_terms(enumerate(counts))


def vertex_cover_number(graph: Graph) -> int:
    """Minimum vertex cover size, via the complement of a maximum
    independent set."""
    return graph.vertex_count - independence_number(graph)


def vertex_cover_polynomial(graph: Graph, cap: int = DEFAULT_CAPS.indep) -> IntPolynomial:
    """Counts of vertex covers by size.

    A set covers every edge exactly when its complement is independent, so
    complementation maps each independent k-set to a cover of size V - k:
    the cover counts are the independence counts read backwards.
    """
    v_count = graph.vertex_count
    _check_cap("vertex_cover_polynomial", v_count, cap)
    return IntPolynomial.from_terms(
        (v_count - k, count) for k, count in independence_polynomial(graph, cap=cap).terms()
    )


def clique_number(graph: Graph) -> int:
    """Maximum clique size by Bron-Kerbosch with pivoting on the twin
    quotient: false twins are never adjacent, so a clique takes at most one
    vertex per class, and any one will do."""
    return _bron_kerbosch(_twin_quotient(graph)[0])


def _bron_kerbosch(graph: Graph) -> int:
    adj = graph.adj
    best = 0

    def expand(size: int, candidates: int, excluded: int) -> None:
        nonlocal best
        if not candidates and not excluded:
            if size > best:
                best = size
            return
        if size + candidates.bit_count() <= best:
            return
        pivot = max(
            _bits(candidates | excluded),
            key=lambda u: (adj[u] & candidates).bit_count(),
        )
        for v in _bits(candidates & ~adj[pivot]):
            vbit = 1 << v
            expand(size + 1, candidates & adj[v], excluded & adj[v])
            candidates &= ~vbit
            excluded |= vbit

    expand(0, (1 << graph.vertex_count) - 1, 0)
    return best


def _dsatur_upper_bound(graph: Graph) -> int:
    v_count = graph.vertex_count
    adj = graph.adj
    colors = [-1] * v_count
    neighbour_colors: list[set[int]] = [set() for _ in range(v_count)]
    used = 0
    for _ in range(v_count):
        v = max(
            (u for u in range(v_count) if colors[u] < 0),
            key=lambda u: (len(neighbour_colors[u]), adj[u].bit_count(), -u),
        )
        c = 0
        while c in neighbour_colors[v]:
            c += 1
        colors[v] = c
        used = max(used, c + 1)
        for u in _bits(adj[v]):
            neighbour_colors[u].add(c)
    return used


def _is_k_colorable(graph: Graph, k: int) -> bool:
    v_count = graph.vertex_count
    adj = graph.adj
    order = sorted(range(v_count), key=lambda v: -adj[v].bit_count())
    colors = [-1] * v_count

    def assign(i: int, used: int) -> bool:
        if i == v_count:
            return True
        v = order[i]
        forbidden = 0
        for u in _bits(adj[v]):
            if colors[u] >= 0:
                forbidden |= 1 << colors[u]
        # allowing at most one brand-new colour breaks colour symmetry
        for c in range(min(used + 1, k)):
            if not (forbidden >> c) & 1:
                colors[v] = c
                if assign(i + 1, max(used, c + 1)):
                    return True
        colors[v] = -1
        return False

    return assign(0, 0)


def chromatic_number(graph: Graph, cap: int = DEFAULT_CAPS.chromatic) -> int:
    """Exact chromatic number: clique lower bound, DSATUR upper bound,
    then backtracking between them, on the twin quotient: a colouring of
    the quotient lifts to the graph by giving twins their class's colour.
    The cap counts the vertices of the graph."""
    _check_cap("chromatic_number", graph.vertex_count, cap)
    graph = _twin_quotient(graph)[0]
    if graph.vertex_count == 0:
        return 0
    if graph.edge_count() == 0:
        return 1
    lower = _bron_kerbosch(graph)
    upper = _dsatur_upper_bound(graph)
    if lower == upper:
        return lower
    for k in range(lower, upper):
        if _is_k_colorable(graph, k):
            return k
    return upper


# -- resolving sets -----------------------------------------------------

@dataclass(frozen=True)
class ResolvingSequence:
    """Resolving-set counts by cardinality, from the metric dimension up
    to the vertex count."""

    beta: int
    counts: tuple[int, ...]


def _disagreement_masks(graph: Graph) -> list[int]:
    """The distinct inclusion-minimal bitmasks of vertices whose distances
    to some vertex pair differ, sparsest first so a non-resolving set fails
    early.

    A set resolves the graph exactly when it meets every pair's mask, and
    a set meeting a mask meets all its supersets.
    """
    v_count = graph.vertex_count
    everything = (1 << v_count) - 1
    layers = [_bfs_layers(graph, u) for u in range(v_count)]
    if any(sum(layer) != everything for layer in layers):
        raise DisconnectedGraphError("resolving sets require a connected graph")
    masks = set()
    # a pair agrees on w exactly when w lies in the same layer for both
    for u in range(v_count):
        for v in range(u + 1, v_count):
            same = 0
            for a, b in zip(layers[u], layers[v]):
                same |= a & b
            masks.add(everything ^ same)
    # kept masks are filed under their lowest bit, which lies in any superset
    minimal, by_low = [], {}
    for mask in sorted(masks, key=lambda m: (m.bit_count(), m)):
        rem, redundant = mask, False
        while rem and not redundant:
            low = rem & -rem
            rem ^= low
            for kept in by_low.get(low, ()):
                if kept & mask == kept:
                    redundant = True
                    break
        if not redundant:
            minimal.append(mask)
            by_low.setdefault(mask & -mask, []).append(mask)
    return minimal


def _hits_all(subset: int, masks: list[int]) -> bool:
    for mask in masks:
        if not subset & mask:
            return False
    return True


def is_resolving(graph: Graph, witness) -> bool:
    """True when distance vectors to the witness set separate all
    vertices."""
    subset = 0
    for w in witness:
        graph._check_vertex(w)
        subset |= 1 << w
    return _hits_all(subset, _disagreement_masks(graph))


def metric_dimension(graph: Graph, cap: int = DEFAULT_CAPS.metric) -> int:
    """Smallest resolving-set size: the twin-class type vectors are tested
    by increasing size against the disagreement masks, stopping at the
    first hit."""
    v_count = graph.vertex_count
    _check_cap("metric_dimension", v_count, cap)
    masks = _disagreement_masks(graph)
    low, high = _type_tables(twin_classes(graph))
    low_by_size, high_by_size = ([[] for _ in range(v_count + 1)] for _ in range(2))
    for table, by_size in ((low, low_by_size), (high, high_by_size)):
        for rep, size, _ in table:
            by_size[size].append(rep)
    for k in range(v_count + 1):
        for size_h in range(k + 1):
            for rep_h in high_by_size[size_h]:
                for rep_l in low_by_size[k - size_h]:
                    if _hits_all(rep_h | rep_l, masks):
                        return k
    raise AssertionError("a connected graph is resolved by its full vertex set")


def resolving_polynomial(
    graph: Graph, cap: int = DEFAULT_CAPS.resolving
) -> tuple[IntPolynomial, ResolvingSequence]:
    """Counts of resolving sets by cardinality. Every type vector is tested;
    the masks its high part meets are dropped before the low parts."""
    v_count = graph.vertex_count
    _check_cap("resolving_polynomial", v_count, cap)
    masks = _disagreement_masks(graph)
    low, high = _type_tables(twin_classes(graph))
    counts = [0] * (v_count + 1)
    for rep_h, size_h, weight_h in high:
        rest = [mask for mask in masks if not mask & rep_h]
        for rep_l, size_l, weight_l in low:
            if _hits_all(rep_l, rest):
                counts[size_h + size_l] += weight_h * weight_l
    poly = IntPolynomial.from_terms(enumerate(counts))
    beta = next(k for k, c in enumerate(counts) if c)
    return poly, ResolvingSequence(beta=beta, counts=tuple(counts[beta:]))
