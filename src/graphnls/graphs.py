"""Connected metric graphs with the geometric queries the peaked ansatz needs.

A metric graph is a finite collection of intervals (edges) glued at
vertices.  Edges of infinite length are admitted in the description
format and are truncated to a finite length at build time, with a
homogeneous Dirichlet condition imposed at the artificial endpoint.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Edge:
    """One interval of the graph, parametrized by arc length from `src`."""

    id: str
    src: str
    dst: str
    length: float
    truncated: bool = False

    @property
    def is_loop(self) -> bool:
        return self.src == self.dst


@dataclass(frozen=True)
class MetricGraph:
    """Immutable connected metric graph.

    Vertices are string ids.  Edge order is the declaration order and is
    the order used everywhere downstream (star enumeration, kernel-mode
    signs), so it is part of the graph's identity.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @cached_property
    def _edge_ends(self) -> dict[str, tuple[tuple[Edge, bool], ...]]:
        # one pass over the edges, so that each end lands in declaration
        # order and a self-loop's start end precedes its end
        ends: dict[str, list[tuple[Edge, bool]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            ends[e.src].append((e, True))
            ends[e.dst].append((e, False))
        return {v: tuple(inc) for v, inc in ends.items()}

    def incident(self, v: str) -> tuple[tuple[Edge, bool], ...]:
        """Edge-ends at `v` in declaration order.

        Returns (edge, oriented_away) pairs where oriented_away is True
        when the edge's own coordinate increases away from `v`.  A
        self-loop at `v` appears twice, its start end first.  A name
        that is not a vertex has no edge-ends.
        """
        return self._edge_ends.get(v, ())

    @property
    def dirichlet_vertices(self) -> frozenset[str]:
        """Artificial endpoints of truncated edges (pinned to zero)."""
        return frozenset(e.dst for e in self.edges if e.truncated)

    @property
    def is_compact(self) -> bool:
        return not any(e.truncated for e in self.edges)

@dataclass(frozen=True)
class StarNeighborhood:
    """The star of edge-ends around a peak vertex with its taper radius."""

    center: str
    incident_edges: tuple[tuple[str, bool], ...]
    radius: float

    @property
    def degree(self) -> int:
        # a self-loop is two of the edge-ends
        return len(self.incident_edges)


_TOP_KEYS = {"vertices", "edges", "truncation"}
_EDGE_KEYS = {"id", "from", "to", "length"}


def _parse_length(raw, edge_id: str, truncation: float | None) -> tuple[float, bool]:
    if isinstance(raw, str) and raw.strip().lower() == "inf":
        raw = math.inf
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise ValueError(f"edge {edge_id!r}: length must be a number or 'inf'")
    try:
        val = float(raw)
    except OverflowError:
        raise ValueError(f"edge {edge_id!r}: length is too large for a float") from None
    if math.isinf(val):
        if truncation is None:
            raise ValueError(
                f"edge {edge_id!r} is unbounded but no 'truncation' was given"
            )
        return truncation, True
    if not val > 0.0 or math.isnan(val):
        raise ValueError(f"edge {edge_id!r} has length {val}")
    return val, False


def _check_id(kind: str, ident: str) -> None:
    # edge ids name state files and peak vertex ids name CSV columns: an
    # id must stay one file name inside the output directory and one
    # CSV field
    if (
        ident in ("", ".", "..")
        or any(ch in ident for ch in "/\\,")
        or not ident.isprintable()
    ):
        raise ValueError(
            f"{kind} id {ident!r} is not allowed: an id must not be empty, "
            "'.' or '..', nor contain '/', '\\', ',' or a non-printable "
            "character"
        )


def _unique_keys(pairs) -> dict:
    """A mapping's (key, value) pairs as a dict; a repeated key is refused."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"graph description repeats the key {key!r}")
        out[key] = value
    return out


def _parse_json(text: str):
    """Parse a JSON graph description, refusing a repeated key."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"graph description is not valid JSON: {exc}") from exc


def _parse_yaml(text: str):
    # imported here: only a graph read as text needs PyYAML, and
    # importing it would cost every run 15-40 ms of start-up
    import yaml

    # libyaml's parser where PyYAML was built with it: it reads the same
    # documents as the pure-Python SafeLoader about ten times faster
    class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        def construct_mapping(self, node, deep=False):
            # keys compared as written: every key a graph accepts is a string
            keys = [k.value for k, _ in node.value if isinstance(k, yaml.ScalarNode)]
            _unique_keys(zip(keys, keys))
            return super().construct_mapping(node, deep=deep)

    try:
        return yaml.load(text, Loader=Loader)
    except yaml.YAMLError as exc:
        raise ValueError(f"graph description is not valid YAML: {exc}") from exc


def build_graph(description: str | dict) -> MetricGraph:
    """Build a validated MetricGraph from its description.

    The description is a strict YAML document, or the mapping such a
    document (or a JSON one, see `load_graph`) parses to::

        vertices: [c, a, b]
        edges:
          - {id: e1, from: c, to: a, length: 1.0}
          - {id: e2, from: c, to: b, length: "inf"}
        truncation: 20.0

    Text and mappings pass the same checks.  Unknown fields are rejected
    at every level.  Vertex and edge ids name output files and CSV
    columns, so an id must not be empty, `.` or `..`, nor contain `/`,
    `\\`, `,` or a non-printable character.  `truncation` is required
    exactly when some edge has length "inf"; each unbounded edge is
    replaced by an interval of that length whose far endpoint gets a
    homogeneous Dirichlet condition.  The lengths must add up to a
    finite float.  A description that breaks any of these is refused
    with `ValueError`.
    """
    doc = _parse_yaml(description) if isinstance(description, str) else description
    if not isinstance(doc, dict):
        raise ValueError("graph description must be a mapping")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown top-level fields: {sorted(unknown)}")
    if "vertices" not in doc or "edges" not in doc:
        raise ValueError("graph description needs 'vertices' and 'edges'")

    raw_vertices = doc["vertices"]
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise ValueError("'vertices' must be a non-empty list")
    vertices = tuple(str(v) for v in raw_vertices)
    for v in vertices:
        _check_id("vertex", v)
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate vertex ids")

    truncation = doc.get("truncation")
    if truncation is not None:
        ok = isinstance(truncation, (int, float)) and not isinstance(truncation, bool)
        if not (ok and truncation > 0.0):
            raise ValueError("'truncation' must be a positive number")
        try:
            truncation = float(truncation)
        except OverflowError:
            raise ValueError("'truncation' is too large for a float") from None
        # an infinite truncation would give every unbounded edge an
        # infinite length, and its mesh infinitely many nodes
        if math.isinf(truncation):
            raise ValueError("'truncation' must be finite, got inf")

    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise ValueError("'edges' must be a list")
    vset = set(vertices)
    edges: list[Edge] = []
    seen_ids: set[str] = set()
    for entry in raw_edges:
        if not isinstance(entry, dict):
            raise ValueError("each edge must be a mapping")
        bad = set(entry) - _EDGE_KEYS
        if bad:
            raise ValueError(f"unknown edge fields: {sorted(bad)}")
        missing = _EDGE_KEYS - set(entry)
        if missing:
            raise ValueError(f"edge missing fields: {sorted(missing)}")
        eid = str(entry["id"])
        _check_id("edge", eid)
        if eid in seen_ids:
            raise ValueError(f"duplicate edge id {eid!r}")
        seen_ids.add(eid)
        src, dst = str(entry["from"]), str(entry["to"])
        for endpoint in (src, dst):
            if endpoint not in vset:
                raise ValueError(
                    f"edge {eid!r} references undeclared vertex {endpoint!r}"
                )
        length, truncated = _parse_length(entry["length"], eid, truncation)
        if truncated and src == dst:
            raise ValueError(f"edge {eid!r}: an unbounded edge cannot be a loop")
        edges.append(Edge(eid, src, dst, length, truncated))

    # a distance is a sum of lengths: past the largest float it would
    # read inf, and the graph would look disconnected
    if math.isinf(sum(e.length for e in edges)):
        raise ValueError("the edge lengths add up to more than the largest float")
    g = MetricGraph(vertices, tuple(edges))
    # the far end of a truncated edge models a point at infinity: nothing
    # else may attach there
    for e in g.edges:
        if e.truncated:
            others = list(dict.fromkeys(f.id for f, _ in g.incident(e.dst)))
            others.remove(e.id)
            if others:
                raise ValueError(
                    f"truncation endpoint {e.dst!r} of edge {e.id!r} is also "
                    f"used by {others}"
                )
    _check_connected(g)
    return g


def load_graph(path) -> MetricGraph:
    """Read a graph file: JSON where the name ends in .json (in any
    case), else YAML.

    A .json file is parsed by the standard library, not as YAML 1.1,
    where `1e3` would be a string.  In either format a key repeated
    within one mapping is refused, not overwritten.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not str(path).lower().endswith(".json"):
        return build_graph(text)
    return build_graph(_parse_json(text))


def _check_connected(g: MetricGraph) -> None:
    if len(g.vertices) == 1 and not g.edges:
        raise ValueError("a single vertex with no edges has degree 0")
    dist = vertex_distances(g, g.vertices[0])
    missing = [v for v in g.vertices if math.isinf(dist[v])]
    if missing:
        raise ValueError(f"unreachable vertices: {sorted(missing)}")


def vertex_distances(g: MetricGraph, source: str) -> dict[str, float]:
    """Shortest-path distance from `source` to every vertex (Dijkstra)."""
    dist = {v: math.inf for v in g.vertices}
    dist[source] = 0.0
    heap: list[tuple[float, str]] = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for e, away in g.incident(v):
            w = e.dst if away else e.src
            nd = d + e.length
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def admissible_peak_degree(degree: int) -> bool:
    """Odd degree >= 3: a peak the existence theory covers."""
    return degree % 2 == 1 and degree >= 3


def star_neighborhood(
    g: MetricGraph, center: str, mode: str = "single"
) -> StarNeighborhood:
    """The full star at `center` with its taper radius.

    The radius is min |e|/2 over incident edges in single-peak mode and
    min |e|/4 in multi-peak mode.  An incident self-loop sends two rays
    from the center into the same interval, so it enters the minimum
    with half its usual share.
    """
    if mode not in ("single", "multi"):
        raise ValueError(f"unknown star mode {mode!r}")
    inc = g.incident(center)
    if not inc:
        raise ValueError(f"vertex {center!r} has no incident edges")
    divisor = 2.0 if mode == "single" else 4.0
    radius = math.inf
    for e, _ in inc:
        share = e.length / (2.0 * divisor) if e.is_loop else e.length / divisor
        radius = min(radius, share)
    return StarNeighborhood(
        center=center,
        incident_edges=tuple((e.id, away) for e, away in inc),
        radius=radius,
    )


def insert_midpoints(g: MetricGraph, peaks: list[str]) -> MetricGraph:
    """Split every edge joining two distinct peak vertices at its midpoint.

    Returns a new graph where each such edge `e` becomes `e__a`,
    `e__b` glued at a fresh degree-2 vertex `e__mid`, so that two peaks
    sharing an edge each keep one half of it.
    """
    peak_set = set(peaks)
    new_vertices = list(g.vertices)
    taken = set(g.vertices)
    new_edges: list[Edge] = []
    for e in g.edges:
        if (
            not e.is_loop
            and e.src in peak_set
            and e.dst in peak_set
        ):
            mid = f"{e.id}__mid"
            if mid in taken:
                raise ValueError(f"vertex id {mid!r} already taken")
            taken.add(mid)
            new_vertices.append(mid)
            half = e.length / 2.0
            new_edges.append(Edge(f"{e.id}__a", e.src, mid, half))
            new_edges.append(Edge(f"{e.id}__b", mid, e.dst, half))
        else:
            new_edges.append(e)
    return MetricGraph(tuple(new_vertices), tuple(new_edges))
