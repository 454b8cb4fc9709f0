"""Metrized graphs: finite connected multigraphs with positive rational edge lengths.

A graph is immutable once built. Vertices are dense integers ``0..v-1``; edge
ids are positions in the construction-order edge list. Endpoint order per edge
is fixed at construction and is meaningful: several formulas distinguish the
two ends of an edge.

Because a graph never changes, values derived from it alone are cached on the
instance the first time they are read: the hash, the total length, the
normalized graph, the bridge list and the solver context of
``mgt.circuit.context``. Each lives exactly as long as its graph, and a pickle
or copy carries none of them. ``_cached`` is mgt's one cache of per-object
values, these and the per-graph values of higher layers alike.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import (
    BadM,
    BadPoint,
    BadVertexId,
    BridgeDeletion,
    DisconnectedGraph,
    EmptyGraph,
    NonPositiveLength,
    NonPositiveScale,
    SamePoint,
    TooLarge,
)
from .rational import Scalar, sum_over


class Edge(NamedTuple):
    a: int
    b: int
    length: Fraction


# Either a vertex id or (edge id, offset from endpoint a).
PointOnGraph = Union[int, tuple[int, Fraction]]

# The largest graph that an operation or a family scan builds from a count it is
# given (``check_size``). A random multigraph at both limits with unit lengths
# peaks at 150 MB resident while it is factorized; more digits per length make
# the Green integers longer.
MAX_VERTICES = 500
MAX_EDGES = 50_000


class Frozen:
    """Base of mgt's immutable classes: ``__init__`` sets the attributes past
    ``__setattr__`` (``object.__setattr__`` or ``__dict__``), and afterwards
    they can be neither reassigned nor deleted.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MetrizedGraph(Frozen):
    vcount: int
    edges: tuple[Edge, ...]

    def __init__(self, vcount: int, edges: tuple[Edge, ...]):
        if vcount < 1:
            raise BadVertexId("graph needs at least one vertex")
        for i, (a, b, length) in enumerate(edges):
            if not (0 <= a < vcount and 0 <= b < vcount):
                raise BadVertexId(f"edge {i} endpoint out of range")
            if length.numerator <= 0:  # a Fraction's denominator is positive
                raise NonPositiveLength(f"edge {i} has non-positive length {length}")
        # decided before _connected allocates its per-vertex list for a huge header
        if vcount > len(edges) + 1:
            raise DisconnectedGraph(f"graph is not connected: {vcount} vertices, "
                                    f"{len(edges)} edges")
        if not _connected(vcount, edges):
            raise DisconnectedGraph("graph is not connected")
        object.__setattr__(self, "vcount", vcount)
        object.__setattr__(self, "edges", edges)

    def __repr__(self):
        return f"MetrizedGraph(vcount={self.vcount!r}, edges={self.edges!r})"

    def __reduce__(self):  # pickle and copy rebuild the graph, with no cached values
        return MetrizedGraph, (self.vcount, self.edges)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vcount == other.vcount and self.edges == other.edges

    def __hash__(self):
        # from the integers: equal Fractions have equal lowest terms, and
        # Fraction.__hash__ costs a modular inverse per length
        return _cached(self.__dict__, "_hash", lambda: hash((self.vcount, tuple(
            (a, b, length.numerator, length.denominator) for a, b, length in self.edges))))

    @property
    def ecount(self) -> int:
        return len(self.edges)


_CACHE_LOCK = threading.RLock()


def _cached(store: dict, key, compute, *args):
    """``compute(*args)``, stored in ``store`` under ``key`` by its first reader.

    A hit takes no lock. A miss computes under one lock, so racing first readers
    compute a value once; it is reentrant because some values read others while
    they compute (``normalize`` reads ``total_length``). ``compute`` never
    returns None, which marks a miss.
    """
    value = store.get(key)
    if value is None:
        with _CACHE_LOCK:
            value = store.get(key)
            if value is None:
                value = store[key] = compute(*args)
    return value


def _connected(vcount: int, edges: Sequence[Edge]) -> bool:
    """Whether the edges join all vcount vertices: union-find with path halving,
    stopping as soon as one component is left."""
    parent = list(range(vcount))
    parts = vcount
    for a, b, _ in edges:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            parts -= 1
            if parts == 1:
                break
    return parts == 1


def build_graph(vertex_count: int, edge_list: Iterable[tuple[int, int, Scalar]]) -> MetrizedGraph:
    """Build a connected metrized graph; edge order is preserved."""
    edges = tuple(Edge(a, b, Fraction(length)) for a, b, length in edge_list)
    return MetrizedGraph(vertex_count, edges)


def total_length(g: MetrizedGraph) -> Fraction:
    """Sum of the edge lengths, computed once per graph."""
    return _cached(g.__dict__, "_total_length", lambda: sum_over(
        [(length.numerator, length.denominator) for _, _, length in g.edges], 1))


def genus(g: MetrizedGraph) -> int:
    """First Betti number e - v + 1 of the (connected) graph."""
    return g.ecount - g.vcount + 1


def scale(g: MetrizedGraph, c: Scalar) -> MetrizedGraph:
    c = Fraction(c)
    if c <= 0:
        raise NonPositiveScale(f"scale factor must be positive, got {c}")
    return MetrizedGraph(g.vcount, _scaled(g.edges, c.numerator, c.denominator))


def _scaled(edges: Iterable[Edge], n: int, d: int) -> tuple[Edge, ...]:
    """The edges with each length times n/d, one Fraction per length from integer pairs."""
    return tuple(Edge(a, b, Fraction(p * n, q * d))
                 for a, b, length in edges for p, q in (length.as_integer_ratio(),))


def normalize(g: MetrizedGraph) -> MetrizedGraph:
    """Rescale to total length one; every call on one graph returns the same object,
    g itself when its total length is one already. EmptyGraph on a graph with no edges."""
    if not g.edges:
        raise EmptyGraph("a graph with no edges cannot be normalized")
    if total_length(g) == 1:
        return g
    return _cached(g.__dict__, "_normalized", lambda: scale(g, 1 / total_length(g)))


def delete_edge_graph(g: MetrizedGraph, edge_id: int) -> tuple[MetrizedGraph, tuple[int, int]]:
    """Graph minus one edge (must not be a bridge); endpoints keep their ids."""
    a, b, _ = edge_at(g, edge_id)
    rest = g.edges[:edge_id] + g.edges[edge_id + 1 :]
    try:
        return MetrizedGraph(g.vcount, rest), (a, b)
    except DisconnectedGraph as exc:
        raise BridgeDeletion(f"deleting edge {edge_id} disconnects the graph") from exc


def identify_points_graph(g: MetrizedGraph, p: int, q: int) -> MetrizedGraph:
    """Glue two distinct vertices into the smaller id; ids above the larger shift down."""
    check_vertices(g, p, q)
    if p == q:
        raise SamePoint("identify needs two distinct vertices")
    keep, drop = min(p, q), max(p, q)
    remap = [v - 1 if v > drop else v for v in range(g.vcount)]
    remap[drop] = keep
    return MetrizedGraph(g.vcount - 1, tuple(Edge(remap[a], remap[b], L) for a, b, L in g.edges))


def edge_at(g: MetrizedGraph, edge_id: int) -> Edge:
    """g's edge with this id; BadPoint unless it is one of 0..e-1 (no negative indexing)."""
    if not isinstance(edge_id, int) or not 0 <= edge_id < g.ecount:
        span = f"out of range 0..{g.ecount - 1}" if g.ecount else "does not exist: the graph has no edges"
        raise BadPoint(f"edge {edge_id} {span}")
    return g.edges[edge_id]


def check_vertices(g: MetrizedGraph, *vertices: int) -> None:
    """Raise BadVertexId unless every argument is a vertex id of g."""
    for v in vertices:
        if not isinstance(v, int) or not 0 <= v < g.vcount:
            raise BadVertexId(f"vertex {v} out of range 0..{g.vcount - 1}")


def check_size(vcount: int, ecount: int, what: str, g: MetrizedGraph | None = None) -> None:
    """Raise TooLarge if a graph of vcount vertices and ecount edges, about to be built
    (from g, if given), is over MAX_VERTICES or MAX_EDGES. A count of g's own that is
    over the limit already may be kept, since g was accepted, but not grown."""
    v0, e0 = (g.vcount, g.ecount) if g is not None else (0, 0)
    if vcount > max(MAX_VERTICES, v0) or ecount > max(MAX_EDGES, e0):
        raise TooLarge(f"{what} exceeds the limit of {MAX_VERTICES} vertices and {MAX_EDGES} edges")


def normalize_point(g: MetrizedGraph, x: PointOnGraph) -> PointOnGraph:
    """Canonical form of a point: endpoint offsets collapse to the vertex itself."""
    if not isinstance(x, tuple):
        if not isinstance(x, int) or not 0 <= x < g.vcount:
            raise BadPoint(f"vertex {x} out of range")
        return x
    try:
        edge_id, offset = x
        offset = Fraction(offset)
    except (TypeError, ValueError, OverflowError):
        raise BadPoint(f"bad point {x!r}: expected a vertex id or (edge id, offset)") from None
    a, b, length = edge_at(g, edge_id)
    if offset < 0 or offset > length:
        raise BadPoint(f"offset {offset} outside edge of length {length}")
    if offset == 0:
        return a
    if offset == length:
        return b
    return (edge_id, offset)


def insert_point(g: MetrizedGraph, x: PointOnGraph) -> tuple[MetrizedGraph, int]:
    """Promote a point to a vertex.

    An interior point of edge (u, w, L) at offset t splits the edge into
    (u, new, t) and (new, w, L-t), placed consecutively at the old edge's
    position. Inserting at an existing vertex returns that vertex unchanged.
    """
    x = normalize_point(g, x)
    if isinstance(x, int):
        return g, x
    edge_id, offset = x
    u, w, length = g.edges[edge_id]
    new = g.vcount
    edges = (
        g.edges[:edge_id]
        + (Edge(u, new, offset), Edge(new, w, length - offset))
        + g.edges[edge_id + 1 :]
    )
    return MetrizedGraph(g.vcount + 1, edges), new


def insert_points(g: MetrizedGraph, points: Sequence[PointOnGraph]) -> tuple[MetrizedGraph, list[int]]:
    """Insert several points, each distinct edge point once.

    They go in descending (edge, offset) order: a split moves only the edges
    after it and keeps the first piece's offsets, so no point still to come moves.
    """
    staged = [normalize_point(g, x) for x in points]
    ids = {}
    for x in sorted({x for x in staged if not isinstance(x, int)}, reverse=True):
        g, ids[x] = insert_point(g, x)
    return g, [x if isinstance(x, int) else ids[x] for x in staged]


def subdivide_uniform(g: MetrizedGraph, m: int) -> MetrizedGraph:
    """Divide every edge into m equal pieces; total length is unchanged."""
    if m < 1:
        raise BadM(f"subdivision count must be >= 1, got {m}")
    if m == 1:
        return g
    check_size(g.vcount + (m - 1) * g.ecount, m * g.ecount, f"a subdivision by m={m}", g)
    edges: list[Edge] = []
    next_vertex = g.vcount
    for a, b, piece in _scaled(g.edges, 1, m):
        prev = a
        for k in range(m - 1):
            edges.append(Edge(prev, next_vertex, piece))
            prev = next_vertex
            next_vertex += 1
        edges.append(Edge(prev, b, piece))
    return MetrizedGraph(next_vertex, tuple(edges))


def bridges(g: MetrizedGraph) -> list[int]:
    """Edge ids whose deletion disconnects the graph, sorted (a fresh list per call).

    Iterative lowlink search over edge ids, so parallel edges and self-loops
    are handled naturally (neither can be a bridge). The search runs once per
    graph.
    """
    return list(_cached(g.__dict__, "_bridges", _bridge_search, g))


def _bridge_search(g: MetrizedGraph) -> tuple[int, ...]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vcount)]
    for i, (a, b, _) in enumerate(g.edges):
        adj[a].append((b, i))
        adj[b].append((a, i))
    disc = [-1] * g.vcount
    low = [0] * g.vcount
    result: list[int] = []
    counter = 0
    for root in range(g.vcount):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]  # (vertex, entry edge, next index)
        disc[root] = low[root] = counter
        counter += 1
        while stack:
            u, entry_edge, idx = stack.pop()
            if idx < len(adj[u]):
                stack.append((u, entry_edge, idx + 1))
                w, eid = adj[u][idx]
                if eid == entry_edge or w == u:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, eid, 0))
                else:
                    low[u] = min(low[u], disc[w])
            elif entry_edge != -1:
                a, b, _ = g.edges[entry_edge]
                parent = a if disc[a] < disc[b] else b
                child = b if parent == a else a
                low[parent] = min(low[parent], low[child])
                if low[child] > disc[parent]:
                    result.append(entry_edge)
    return tuple(sorted(result))
