"""The scaling law of the peaked states, as a metamorphic check.

If u solves -u'' + lam u = u^(2 mu + 1) on a graph G, then
k^(-1/mu) u(x/k) solves the same problem at lam/k^2 on kG, the graph
with every length (and the truncation) multiplied by k.  Its mass is
k^(1 - 2/mu) times u's and its action k^(-1 - 2/mu) times.  Where k and
k^(1/mu) are powers of two, every mesh node, seed value and Newton
iterate on kG is the one on G scaled by a power of two, so the sweep
must reproduce the functionals bit for bit, in the same iterations.
"""

import json
from importlib.resources import files

import pytest

from graphnls import SolveConfig, build_graph, continuation_sweep, peak_template
from graphnls.acceptance import BUILTIN_GRAPHS, reference_graph

# each built-in graph with a peak set the pipeline sweeps on it
PEAKS = {
    "tripod": ("c",),
    "t_graph": ("v",),
    "star5": ("c",),
    "double_tripod": ("c1", "c2"),
    "figure1": ("v1",),
}
LAM = 100.0


def _scaled_graph(name: str, k: float):
    """The built-in graph with every finite length and the truncation
    multiplied by k."""
    text = (files("graphnls") / "data" / f"{name}.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    for edge in doc["edges"]:
        if edge["length"] != "inf":
            edge["length"] *= k
    if "truncation" in doc:
        doc["truncation"] *= k
    return build_graph(doc)


def _solve(g, peaks, lam: float, mu: float):
    cfg = SolveConfig(mu=mu, lambdas=(lam,))
    (res,) = continuation_sweep(peak_template(g, peaks), cfg)
    return res


def test_every_builtin_graph_has_a_peak_set():
    assert sorted(PEAKS) == sorted(BUILTIN_GRAPHS)


# (mu, k) = (2, 2) is left out: k^(1/mu) = sqrt(2) is inexact there, so
# the states agree to rounding only, and Newton may take other steps
@pytest.mark.parametrize("mu, k", [(1.0, 2.0), (1.0, 4.0), (2.0, 4.0)])
@pytest.mark.parametrize("name", sorted(PEAKS))
def test_a_scaled_graph_at_the_scaled_shift_gives_the_scaled_state(name, mu, k):
    peaks = PEAKS[name]
    base = _solve(reference_graph(name), peaks, LAM, mu)
    scaled = _solve(_scaled_graph(name, k), peaks, LAM / k**2, mu)
    assert scaled.u.mesh.ndof == base.u.mesh.ndof
    assert scaled.termination == base.termination
    assert scaled.iterations == base.iterations
    assert scaled.functionals.mass * k ** (2.0 / mu - 1.0) == base.functionals.mass
    assert scaled.functionals.action * k ** (2.0 / mu + 1.0) == base.functionals.action
