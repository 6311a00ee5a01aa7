"""Exhaustive, structure-agnostic graph invariants.

Distances, longest simple paths, independence and cover counts, cliques,
colourings, and resolving sets, all computed exactly over adjacency
bitsets. The NP-hard searches carry explicit vertex caps (Caps); going
past a cap raises CapacityError instead of silently approximating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits
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


def _bfs_row(graph: Graph, source: int) -> list[int]:
    dist = [UNREACHABLE] * graph.vertex_count
    dist[source] = 0
    seen = frontier = 1 << source
    step = 0
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= graph.adj[v]
        frontier = reach & ~seen
        step += 1
        for v in _bits(frontier):
            dist[v] = step
        seen |= frontier
    return dist


def distance_matrix(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """All-pairs shortest-path hop counts; UNREACHABLE marks missing paths."""
    return tuple(tuple(_bfs_row(graph, s)) for s in range(graph.vertex_count))


def is_connected(graph: Graph) -> bool:
    if graph.vertex_count == 0:
        return True
    return UNREACHABLE not in _bfs_row(graph, 0)


def _require_connected(graph: Graph, what: str) -> None:
    if not is_connected(graph):
        raise DisconnectedGraphError(f"{what} requires a connected graph")


def eccentricity(graph: Graph, v: int) -> int:
    graph._check_vertex(v)
    row = _bfs_row(graph, v)
    if UNREACHABLE in row:
        raise DisconnectedGraphError("eccentricity requires a connected graph")
    return max(row)


def eccentricities(graph: Graph) -> tuple[int, ...]:
    return tuple(eccentricity(graph, v) for v in range(graph.vertex_count))


def total_eccentricity_polynomial(graph: Graph) -> IntPolynomial:
    """Sum of x^ecc(v) over all vertices."""
    return IntPolynomial.from_terms((e, 1) for e in eccentricities(graph))


def eccentric_connectivity_polynomial(graph: Graph) -> IntPolynomial:
    """Sum of deg(v) * x^ecc(v) over all vertices."""
    eccs = eccentricities(graph)
    return IntPolynomial.from_terms(
        (eccs[v], graph.degree(v)) for v in range(graph.vertex_count)
    )


# -- longest simple paths ----------------------------------------------

def detour_matrix(graph: Graph, cap: int = DEFAULT_CAPS.detour) -> tuple[tuple[int, ...], ...]:
    """All-pairs longest-simple-path lengths.

    Dynamic programme over (visited subset, endpoint) states; each state
    keeps the bitmask of possible path starts, so one sweep serves every
    source at once. Memory and time are O(2^V * V), hence the cap.
    """
    v_count = graph.vertex_count
    _check_cap("detour_matrix", v_count, cap)
    if v_count == 0:
        return ()
    _require_connected(graph, "detour distance")

    adj = graph.adj
    top = 1 << v_count
    starts = [0] * (top * v_count)
    for u in range(v_count):
        starts[(1 << u) * v_count + u] = 1 << u
    # longest[L * V + w] accumulates start masks of paths with L edges
    # ending at w
    longest = [0] * (v_count * v_count)
    for subset in range(1, top):
        base = subset * v_count
        row = (subset.bit_count() - 1) * v_count
        rem = subset
        while rem:
            wbit = rem & -rem
            rem ^= wbit
            w = wbit.bit_length() - 1
            sm = starts[base + w]
            if not sm:
                continue
            longest[row + w] |= sm
            ext = adj[w] & ~subset
            while ext:
                xbit = ext & -ext
                ext ^= xbit
                starts[(subset | xbit) * v_count + (xbit.bit_length() - 1)] |= sm

    matrix = [[0] * v_count for _ in range(v_count)]
    for w in range(v_count):
        assigned = 0
        for length in range(v_count - 1, -1, -1):
            fresh = longest[length * v_count + w] & ~assigned
            assigned |= fresh
            for u in _bits(fresh):
                matrix[u][w] = length
    return tuple(tuple(r) for r in matrix)


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

def independence_number(graph: Graph) -> int:
    """Maximum independent set size by branch and bound on bitsets.

    The search depth grows with the vertex count, so it runs on an explicit
    stack rather than the interpreter's; the include branch is pushed last
    so it is explored first.
    """
    adj = graph.adj
    best = 0
    stack = [((1 << graph.vertex_count) - 1, 0)]
    while stack:
        mask, size = stack.pop()
        if size + mask.bit_count() <= best:
            continue
        if not mask:
            best = size
            continue
        # max-degree pivot keeps branching shallow on dense graphs
        pivot = max(_bits(mask), key=lambda u: (adj[u] & mask).bit_count())
        stack.append((mask & ~(1 << pivot), size))
        stack.append((mask & ~(adj[pivot] | (1 << pivot)), size + 1))
    return best


def independence_polynomial(graph: Graph, cap: int = DEFAULT_CAPS.indep) -> IntPolynomial:
    """Counts of independent sets by size (the empty set included).

    Subset sweep with an incremental independence test: S is independent
    iff S minus its lowest vertex is, and that vertex has no neighbour in
    the rest.
    """
    v_count = graph.vertex_count
    _check_cap("independence_polynomial", v_count, cap)
    adj = graph.adj
    counts = [0] * (v_count + 1)
    counts[0] = 1
    independent = bytearray(1 << v_count)
    independent[0] = 1
    for subset in range(1, 1 << v_count):
        low = subset & -subset
        rest = subset ^ low
        if independent[rest] and not adj[low.bit_length() - 1] & rest:
            independent[subset] = 1
            counts[subset.bit_count()] += 1
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
    """Maximum clique size by Bron-Kerbosch with pivoting."""
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
    then backtracking between them."""
    v_count = graph.vertex_count
    _check_cap("chromatic_number", v_count, cap)
    if v_count == 0:
        return 0
    if graph.edge_count() == 0:
        return 1
    lower = clique_number(graph)
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
    """For each vertex pair, the bitmask of vertices whose distances to the
    two differ, sparsest first so a non-resolving set fails early.

    A set resolves the graph exactly when it meets every one of these
    masks.
    """
    dist = distance_matrix(graph)
    if any(UNREACHABLE in row for row in dist):
        raise DisconnectedGraphError("resolving sets require a connected graph")
    v_count = graph.vertex_count
    masks = []
    for u in range(v_count):
        for v in range(u + 1, v_count):
            mask = 0
            for w in range(v_count):
                if dist[u][w] != dist[v][w]:
                    mask |= 1 << w
            masks.append(mask)
    masks.sort(key=int.bit_count)
    return masks


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


def _gosper_masks(v_count: int, k: int):
    """All k-subsets of range(v_count) as bitmasks, ascending numeric order
    (equivalently colexicographic subset order)."""
    if k == 0:
        yield 0
        return
    subset = (1 << k) - 1
    top = 1 << v_count
    while subset < top:
        yield subset
        low = subset & -subset
        ripple = subset + low
        subset = (((ripple ^ subset) >> 2) // low) | ripple


def metric_dimension(graph: Graph, cap: int = DEFAULT_CAPS.metric) -> int:
    """Smallest resolving-set size, enumerating subsets by increasing
    cardinality (colex within each size) and stopping at the first hit.

    Each subset is tested against the pairwise disagreement masks; a pair
    whose distances to the whole graph barely differ fails first, so
    hopeless subsets exit early.
    """
    v_count = graph.vertex_count
    _check_cap("metric_dimension", v_count, cap)
    masks = _disagreement_masks(graph)
    for k in range(v_count + 1):
        for subset in _gosper_masks(v_count, k):
            if _hits_all(subset, masks):
                return k
    raise AssertionError("a connected graph is resolved by its full vertex set")


def resolving_polynomial(
    graph: Graph, cap: int = DEFAULT_CAPS.resolving
) -> tuple[IntPolynomial, ResolvingSequence]:
    """Counts of resolving sets by cardinality over all 2^V subsets.

    Every subset is tested directly against the pairwise disagreement
    masks; no monotonicity shortcuts, so the counts are a genuine
    enumeration.
    """
    v_count = graph.vertex_count
    _check_cap("resolving_polynomial", v_count, cap)
    masks = _disagreement_masks(graph)
    counts = [0] * (v_count + 1)
    for subset in range(1 << v_count):
        if _hits_all(subset, masks):
            counts[subset.bit_count()] += 1
    poly = IntPolynomial.from_terms(enumerate(counts))
    beta = next(k for k, c in enumerate(counts) if c)
    return poly, ResolvingSequence(beta=beta, counts=tuple(counts[beta:]))
