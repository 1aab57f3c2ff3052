"""Metric graph construction, distances, peak balls and star neighborhoods."""

import json
import math
import re
from importlib.resources import files

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnls import (
    build_graph,
    check_disjoint_peak_balls,
    insert_midpoints,
    load_graph,
    reference_graph,
    star_neighborhood,
)
from graphnls.errors import (
    DanglingEndpoint,
    DisconnectedGraph,
    NonpositiveEdgeLength,
    OverlappingPeaks,
)
from graphnls.acceptance import BUILTIN_GRAPHS, _star_description
from graphnls.graphs import Edge, MetricGraph, admissible_peak_degree, vertex_distances

BUILTIN_NAMES = ["tripod", "t_graph", "star5", "double_tripod", "figure1"]
STARS = [(N, truncation) for N in range(2, 7) for truncation in (10.0, 25.0)]


TRIPOD = """
vertices: [c, a1, a2, a3]
edges:
  - {id: e1, from: c, to: a1, length: 1.0}
  - {id: e2, from: c, to: a2, length: 1.0}
  - {id: e3, from: c, to: a3, length: 1.0}
"""

TWO_PEAK_BRIDGE = """
vertices: [p, q, a, b]
edges:
  - {id: bridge, from: p, to: q, length: 2.0}
  - {id: ea, from: p, to: a, length: 4.0}
  - {id: eb, from: q, to: b, length: 4.0}
"""

SHARED_TRUNCATION_END = (
    "vertices: [v, w, t]\nedges:\n"
    "  - {id: h1, from: v, to: t, length: inf}\n"
    "  - {id: e, from: v, to: w, length: 1.0}\n"
    "  - {id: h2, from: w, to: t, length: inf}\n"
    "truncation: 5.0"
)

# an edge length and a truncation that are integers too large for a float
BEYOND_FLOAT_GRAPHS = {
    "length": {
        "vertices": ["v", "w"],
        "edges": [{"id": "e", "from": "v", "to": "w", "length": 10**400}],
    },
    "truncation": {
        "vertices": ["v", "w"],
        "edges": [{"id": "h", "from": "v", "to": "w", "length": "inf"}],
        "truncation": 10**400,
    },
}

PARALLEL = """
vertices: [v, w]
edges:
  - {id: short, from: v, to: w, length: 2.0}
  - {id: long, from: v, to: w, length: 10.0}
"""


def test_build_tripod_basic_shape():
    g = build_graph(TRIPOD)
    assert g.vertices == ("c", "a1", "a2", "a3")
    assert len(g.incident("c")) == 3
    assert len(g.incident("a1")) == 1
    assert sum(e.length for e in g.edges) == pytest.approx(3.0)
    assert g.is_compact
    assert g.dirichlet_vertices == frozenset()


def test_self_loop_counts_twice_toward_degree():
    g = build_graph(
        """
vertices: [v, w]
edges:
  - {id: loop, from: v, to: v, length: 2.0}
  - {id: e, from: v, to: w, length: 1.0}
"""
    )
    assert len(g.incident("v")) == 3
    assert len(g.incident("w")) == 1


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_star_degree_is_its_count_of_edge_ends(name):
    g = reference_graph(name)
    for v in g.vertices:
        star = star_neighborhood(g, v)
        assert star.degree == len(g.incident(v))
    if name == "figure1":
        # a self-loop's two ends both count
        loops = [e for e in g.edges if e.is_loop]
        assert loops
        for e in loops:
            ends = [eid for eid, _ in star_neighborhood(g, e.src).incident_edges]
            assert ends.count(e.id) == 2


@pytest.mark.parametrize(
    "degree, admissible",
    [(1, False), (2, False), (3, True), (4, False), (5, True), (6, False)],
)
def test_admissible_peak_degree_is_odd_and_at_least_three(degree, admissible):
    assert admissible_peak_degree(degree) is admissible


def test_truncated_edge_gets_dirichlet_endpoint():
    g = build_graph(
        """
vertices: [v, t]
edges:
  - {id: h, from: v, to: t, length: inf}
truncation: 12.5
"""
    )
    assert not g.is_compact
    assert g.dirichlet_vertices == frozenset({"t"})
    e = {e.id: e for e in g.edges}["h"]
    assert e.length == pytest.approx(12.5)
    assert e.truncated


@pytest.mark.parametrize(
    "description, exc",
    [
        ("vertices: [v]\nedges: []\nbogus: 1", ValueError),
        ("vertices: [v, v]\nedges: []", ValueError),
        (
            "vertices: [v, w]\nedges:\n"
            "  - {id: e, from: v, to: w, length: 1.0, extra: 2}",
            ValueError,
        ),
        ("vertices: [v, w]\nedges:\n  - {id: e, from: v, length: 1.0}", ValueError),
        (
            "vertices: [v, w]\nedges:\n"
            "  - {id: e, from: v, to: w, length: 1.0}\n"
            "  - {id: e, from: w, to: v, length: 1.0}",
            ValueError,
        ),
        (
            "vertices: [v]\nedges:\n  - {id: e, from: v, to: ghost, length: 1.0}",
            DanglingEndpoint,
        ),
        (
            "vertices: [v, w]\nedges:\n  - {id: e, from: v, to: w, length: 0.0}",
            NonpositiveEdgeLength,
        ),
        (
            "vertices: [v, w]\nedges:\n  - {id: e, from: v, to: w, length: -2.0}",
            NonpositiveEdgeLength,
        ),
        (
            "vertices: [v, w]\nedges:\n  - {id: e, from: v, to: w, length: inf}",
            ValueError,
        ),
        (
            "vertices: [v]\nedges:\n  - {id: e, from: v, to: v, length: inf}\n"
            "truncation: 5.0",
            ValueError,
        ),
        (SHARED_TRUNCATION_END, ValueError),
        (
            "vertices: [a, b, c, d]\nedges:\n"
            "  - {id: e1, from: a, to: b, length: 1.0}\n"
            "  - {id: e2, from: c, to: d, length: 1.0}",
            DisconnectedGraph,
        ),
        ("vertices: [a]\nedges: []", DisconnectedGraph),
        # not YAML at all: a ValueError, like every other rejected description
        ("vertices: [a\nedges: {", ValueError),
        # a parsed description meets the same checks as text
        ({"vertices": ["v", "w"], "edges": [{"id": "e", "from": "v", "to": "w"}]}, ValueError),
        (["vertices", "edges"], ValueError),
        # connected, but its distances would overflow to inf
        (
            "vertices: [a, b, c]\nedges:\n"
            "  - {id: e1, from: a, to: b, length: 1.0e+308}\n"
            "  - {id: e2, from: b, to: c, length: 1.0e+308}",
            ValueError,
        ),
        # integers beyond float range, as YAML text and as parsed JSON
        *(
            pytest.param(description, ValueError, id=f"{name}-beyond-float-{kind}")
            for name, graph in BEYOND_FLOAT_GRAPHS.items()
            for kind, description in (
                ("yaml", yaml.safe_dump(graph)),
                ("json", json.loads(json.dumps(graph))),
            )
        ),
    ],
)
def test_malformed_graphs_are_rejected(description, exc):
    with pytest.raises(exc):
        build_graph(description)


@pytest.mark.parametrize(
    "description, others",
    [
        (SHARED_TRUNCATION_END, ["h2"]),
        (
            "vertices: [v, t]\nedges:\n"
            "  - {id: h, from: v, to: t, length: inf}\n"
            "  - {id: loop, from: t, to: t, length: 1.0}\n"
            "truncation: 5.0",
            ["loop"],
        ),
    ],
    ids=["another-half-line", "a-self-loop"],
)
def test_a_shared_truncation_end_names_each_other_edge_once(description, others):
    # a self-loop has both its ends there, and is still one other edge
    message = f"is also used by {others}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        build_graph(description)


_UNSAFE_IDS = [
    "", ".", "..", "../../escaped", "a/b", "a\\b", "c,x", "a\nb", "a\tb", "a\x00"
]


def _two_vertex_graph(vertex: str, edge: str) -> dict:
    return {
        "vertices": [vertex, "w"],
        "edges": [{"id": edge, "from": vertex, "to": "w", "length": 1.0}],
    }


@pytest.mark.parametrize("ident", _UNSAFE_IDS)
def test_ids_that_cannot_name_a_file_or_a_csv_field_are_rejected(ident):
    # edge ids name state files and peak ids name diagnostics.csv columns
    with pytest.raises(ValueError, match=f"vertex id {re.escape(repr(ident))}"):
        build_graph(_two_vertex_graph(ident, "e"))
    with pytest.raises(ValueError, match=f"edge id {re.escape(repr(ident))}"):
        build_graph(_two_vertex_graph("v", ident))


def test_ids_with_spaces_dots_and_punctuation_stay_valid():
    g = build_graph(_two_vertex_graph("peak v.1", "e-1_a.b"))
    assert g.vertices == ("peak v.1", "w") and g.edges[0].id == "e-1_a.b"


def test_distance_on_path_is_additive():
    g = build_graph(
        """
vertices: [a, b, c]
edges:
  - {id: e1, from: a, to: b, length: 1.5}
  - {id: e2, from: b, to: c, length: 2.25}
"""
    )
    dist = vertex_distances(g, "a")
    assert dist["c"] == pytest.approx(3.75)
    assert dist["a"] == 0.0


def test_distance_symmetry_and_triangle_inequality():
    g = reference_graph("figure1")
    names = list(g.vertices)
    rng = np.random.default_rng(11)
    for _ in range(25):
        u, v, w = (str(x) for x in rng.choice(names, size=3))
        du, dv = vertex_distances(g, u), vertex_distances(g, v)
        assert du[v] == pytest.approx(dv[u])
        assert du[v] <= du[w] + vertex_distances(g, w)[v] + 1e-12


def test_parallel_edge_shortcut_wins():
    g = build_graph(PARALLEL)
    assert vertex_distances(g, "v")["w"] == pytest.approx(2.0)


def test_figure_one_graph_has_only_odd_degrees():
    g = reference_graph("figure1")
    degs = {v: len(g.incident(v)) for v in g.vertices}
    assert all(d % 2 == 1 for d in degs.values())
    assert degs["v1"] == 5
    assert degs["v3"] == 5
    assert not g.is_compact
    sites = [v for v in g.vertices if admissible_peak_degree(len(g.incident(v)))]
    assert sites == [f"v{i}" for i in range(1, 10)]


def test_star_neighborhood_radius_single_and_multi():
    g = build_graph(
        """
vertices: [c, a, b]
edges:
  - {id: loop, from: c, to: c, length: 2.0}
  - {id: e1, from: c, to: a, length: 3.0}
  - {id: e2, from: c, to: b, length: 5.0}
"""
    )
    single = star_neighborhood(g, "c", mode="single")
    multi = star_neighborhood(g, "c", mode="multi")
    # the loop sends two rays from c, so it enters with half its share
    assert single.radius == pytest.approx(0.5)
    assert multi.radius == pytest.approx(0.25)
    assert single.degree == 4
    assert len(single.incident_edges) == 4
    assert [eid for eid, _ in single.incident_edges].count("loop") == 2


def test_star_neighborhood_rejects_bad_input():
    g = build_graph(TRIPOD)
    with pytest.raises(ValueError):
        star_neighborhood(g, "a1", mode="bogus")


def test_insert_midpoints_splits_only_peak_joining_edges():
    g = build_graph(TWO_PEAK_BRIDGE)
    h = insert_midpoints(g, ["p", "q"])
    new = set(h.vertices) - set(g.vertices)
    assert new == {"bridge__mid"}
    assert len(h.incident("bridge__mid")) == 2
    assert sum(e.length for e in h.edges) == pytest.approx(
        sum(e.length for e in g.edges)
    )
    assert vertex_distances(h, "p")["bridge__mid"] == pytest.approx(1.0)
    ids = {e.id for e in h.edges}
    assert {"ea", "eb", "bridge__a", "bridge__b"} <= ids
    assert "bridge" not in ids


def test_insert_midpoints_without_shared_edge_is_identity():
    g = build_graph(
        """
vertices: [p, m, q]
edges:
  - {id: e1, from: p, to: m, length: 1.0}
  - {id: e2, from: m, to: q, length: 1.0}
"""
    )
    h = insert_midpoints(g, ["p", "q"])
    assert h.vertices == g.vertices
    assert {e.id for e in h.edges} == {e.id for e in g.edges}


def test_overlapping_single_mode_balls_are_rejected():
    g = build_graph(TWO_PEAK_BRIDGE)
    # single-peak radius is min-edge/2, so the 2l-balls meet on the bridge
    stars = [star_neighborhood(g, v, mode="single") for v in ("p", "q")]
    with pytest.raises(OverlappingPeaks) as err:
        check_disjoint_peak_balls(g, stars)
    assert "p" in str(err.value) and "q" in str(err.value)


def test_multi_mode_balls_after_midpoint_split_are_disjoint():
    g = build_graph(TWO_PEAK_BRIDGE)
    h = insert_midpoints(g, ["p", "q"])
    stars = [star_neighborhood(h, v, mode="multi") for v in ("p", "q")]
    check_disjoint_peak_balls(h, stars)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_reference_graphs_load(name):
    g = reference_graph(name)
    assert all(e.length > 0 for e in g.edges)
    assert len(g.vertices) >= 2


def test_unknown_reference_graph_names_the_built_ins():
    message = "no built-in graph 'nope'; the built-ins are tripod, t_graph, star5"
    with pytest.raises(ValueError, match=message):
        reference_graph("nope")


def _star_yaml(N, truncation):
    """The YAML text criteria 1 and 9 built their N-stars from before
    `_star_description` replaced it: the reference its mappings keep."""
    lines = [f"vertices: [c, {', '.join(f't{i}' for i in range(N))}]", "edges:"]
    for i in range(N):
        lines.append(f'  - {{id: e{i}, from: c, to: t{i}, length: "inf"}}')
    lines.append(f"truncation: {truncation}")
    return "\n".join(lines)


@pytest.mark.parametrize("N, truncation", STARS)
def test_star_mappings_build_the_graphs_of_the_yaml_stars(N, truncation):
    g = build_graph(_star_description(N, truncation))
    assert g == build_graph(_star_yaml(N, truncation))
    assert g.truncation_length == truncation
    assert [e.length for e in g.edges] == [truncation] * N


def test_pure_python_and_libyaml_loaders_build_equal_graphs(monkeypatch):
    # the built-ins are JSON, read by reference_graph without PyYAML; read
    # as YAML text they must give the same graphs, and so must the YAML
    # stars their mappings replaced, under either loader
    data = {p.name: p.read_text() for p in (files("graphnls") / "data").iterdir()}
    assert sorted(data) == sorted(f"{name}.json" for name in BUILTIN_NAMES)
    # the built-in names have one definition, and it names every data file
    assert sorted(n.removesuffix(".json") for n in data) == sorted(BUILTIN_GRAPHS)
    texts = [data[f"{name}.json"] for name in BUILTIN_NAMES]
    texts += [_star_yaml(N, truncation) for N, truncation in STARS]
    expected = [reference_graph(name) for name in BUILTIN_NAMES]
    expected += [build_graph(_star_description(N, t)) for N, t in STARS]
    loaders = [yaml.SafeLoader]
    if hasattr(yaml, "CSafeLoader"):
        loaders.append(yaml.CSafeLoader)
    for loader in loaders:
        # build_graph parses with yaml.CSafeLoader where PyYAML has it
        monkeypatch.setattr(yaml, "CSafeLoader", loader, raising=False)
        assert [build_graph(t) for t in texts] == expected, loader
        with pytest.raises(ValueError, match="not valid YAML"):
            build_graph("vertices: [a\nedges: {\n")
    if len(loaders) == 1:
        pytest.skip("PyYAML was built without libyaml")


@pytest.mark.parametrize(
    "description",
    [
        "vertices: [v, t]\nedges:\n  - {id: h, from: v, to: t, length: inf}\n"
        "truncation: .inf",
        json.loads(
            '{"vertices": ["v", "t"], "edges": [{"id": "h", "from": "v", '
            '"to": "t", "length": "inf"}], "truncation": Infinity}'
        ),
    ],
    ids=["yaml", "json"],
)
def test_infinite_truncation_is_rejected(description):
    # it would give every unbounded edge an infinite length
    with pytest.raises(ValueError, match="'truncation' must be finite"):
        build_graph(description)


def test_random_path_distances_match_partial_sums():
    rng = np.random.default_rng(3)
    for _ in range(8):
        n = int(rng.integers(3, 9))
        lengths = [float(x) for x in rng.uniform(0.5, 3.0, size=n - 1)]
        lines = ["vertices: [%s]" % ", ".join(f"v{i}" for i in range(n)), "edges:"]
        for i, ell in enumerate(lengths):
            lines.append(f"  - {{id: e{i}, from: v{i}, to: v{i + 1}, length: {ell!r}}}")
        g = build_graph("\n".join(lines))
        dist = vertex_distances(g, "v0")
        for j in range(n):
            assert dist[f"v{j}"] == pytest.approx(sum(lengths[:j]))


@pytest.mark.parametrize("suffix", [".JSON", ".Json"])
def test_a_json_suffix_in_any_case_is_read_as_json(tmp_path, suffix):
    # read as YAML 1.1, 1e0 would be a string and the graph refused
    text = (
        '{"vertices": ["c", "a1", "a2", "a3"], "edges": ['
        '{"id": "e1", "from": "c", "to": "a1", "length": 1e0}, '
        '{"id": "e2", "from": "c", "to": "a2", "length": 1e0}, '
        '{"id": "e3", "from": "c", "to": "a3", "length": 1e0}]}'
    )
    lower, other = tmp_path / "g.json", tmp_path / f"h{suffix}"
    lower.write_text(text)
    other.write_text(text)
    assert load_graph(other) == load_graph(lower) == reference_graph("tripod")


# a tripod description whose mapping at the top level or in edge e1
# repeats a key; read keeping the last value, each would build a graph
_TRIPOD_EDGES_JSON = (
    '{"id": "e2", "from": "c", "to": "a2", "length": 1.0}, '
    '{"id": "e3", "from": "c", "to": "a3", "length": 1.0}]'
)
_TRIPOD_EDGES_YAML = (
    "  - {id: e2, from: c, to: a2, length: 1.0}\n"
    "  - {id: e3, from: c, to: a3, length: 1.0}\n"
)
REPEATED_KEYS = [
    (
        ".json",
        '{"vertices": ["c"], "vertices": ["c", "a1", "a2", "a3"], "edges": ['
        '{"id": "e1", "from": "c", "to": "a1", "length": 1.0}, '
        + _TRIPOD_EDGES_JSON + "}",
        "vertices",
    ),
    (
        ".json",
        '{"vertices": ["c", "a1", "a2", "a3"], "edges": ['
        '{"id": "e1", "from": "c", "to": "a1", "length": 1.0, "length": 3.0}, '
        + _TRIPOD_EDGES_JSON + "}",
        "length",
    ),
    (
        ".yaml",
        "vertices: [c, a1, a2, a3]\n"
        "edges:\n  - {id: e1, from: c, to: a1, length: 1.0}\n"
        "edges:\n  - {id: e1, from: c, to: a1, length: 1.0}\n" + _TRIPOD_EDGES_YAML,
        "edges",
    ),
    (
        ".yaml",
        "vertices: [c, a1, a2, a3]\nedges:\n"
        "  - {id: e1, from: c, to: a1, length: 1.0, length: 3.0}\n"
        + _TRIPOD_EDGES_YAML,
        "length",
    ),
]


@pytest.mark.parametrize(
    "suffix, text, key",
    REPEATED_KEYS,
    ids=["json-top", "json-edge", "yaml-top", "yaml-edge"],
)
def test_a_repeated_key_is_refused(tmp_path, monkeypatch, suffix, text, key):
    path = tmp_path / f"g{suffix}"
    path.write_text(text)
    for loader in (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        # load_graph parses YAML with yaml.CSafeLoader where PyYAML has it
        monkeypatch.setattr(yaml, "CSafeLoader", loader, raising=False)
        with pytest.raises(ValueError, match=f"repeats the key '{key}'"):
            load_graph(path)


def _incident_by_scan(g, v):
    """The declaration-order scan `MetricGraph.incident` replaced: the
    reference its edge-end table keeps."""
    out = []
    for e in g.edges:
        if e.src == v:
            out.append((e, True))
        if e.dst == v:
            out.append((e, False))
    return out


def _floyd_warshall(g):
    d = {v: {w: math.inf for w in g.vertices} for v in g.vertices}
    for v in g.vertices:
        d[v][v] = 0.0
    for e in g.edges:
        length = min(d[e.src][e.dst], e.length)
        d[e.src][e.dst] = d[e.dst][e.src] = length
    for k in g.vertices:
        for i in g.vertices:
            for j in g.vertices:
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


@st.composite
def _multigraphs(draw):
    """A connected graph description with parallel edges, self-loops and
    half-lines, its edges in a drawn order.  Lengths are multiples of
    1/4, so every path length is exact and distances compare bitwise."""
    n = draw(st.integers(1, 6))
    vertices = [f"v{i}" for i in range(n)]
    length = st.integers(1, 16).map(lambda k: k / 4)
    # a random spanning tree keeps the graph connected
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    vertex = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    edges = [
        {"id": f"e{k}", "from": vertices[a], "to": vertices[b], "length": draw(length)}
        for k, (a, b) in enumerate(pairs)
    ]
    if n == 1 and not edges:
        edges.append({"id": "loop", "from": "v0", "to": "v0", "length": 1.0})
    # each half-line gets a far end of its own
    for k, a in enumerate(draw(st.lists(vertex, max_size=3))):
        vertices.append(f"t{k}")
        edges.append({"id": f"h{k}", "from": f"v{a}", "to": f"t{k}", "length": "inf"})
    edges = draw(st.permutations(edges))
    return {"vertices": vertices, "edges": edges, "truncation": 2.5}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(doc=_multigraphs())
def test_the_edge_end_table_matches_the_scan_and_distances_match_floyd_warshall(doc):
    g = build_graph(doc)
    for v in g.vertices:
        assert list(g.incident(v)) == _incident_by_scan(g, v)
    assert sum(len(g.incident(v)) for v in g.vertices) == 2 * len(g.edges)
    reference = _floyd_warshall(g)
    for v in g.vertices:
        assert vertex_distances(g, v) == reference[v]


class _CountedEdges(tuple):
    """An edge tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def _counted_ladder(n_vertices):
    """The cubic circular ladder with unit edges, its edges counted."""
    rungs = n_vertices // 2
    edges = []
    for i in range(rungs):
        j = (i + 1) % rungs
        edges += [
            Edge(f"a{i}", f"a{i}", f"a{j}", 1.0),
            Edge(f"b{i}", f"b{i}", f"b{j}", 1.0),
            Edge(f"r{i}", f"a{i}", f"b{i}", 1.0),
        ]
    vertices = tuple(f"{side}{i}" for side in "ab" for i in range(rungs))
    return MetricGraph(vertices, _CountedEdges(edges))


def test_incidence_queries_pass_over_the_edges_a_fixed_number_of_times():
    passes = []
    for n_vertices in (50, 500):
        g = _counted_ladder(n_vertices)
        for v in g.vertices:
            assert len(g.incident(v)) == 3
        assert max(vertex_distances(g, "a0").values()) == n_vertices // 4 + 1
        assert star_neighborhood(g, "a0").degree == 3
        passes.append(g.edges.passes)
    assert passes[0] == passes[1]
