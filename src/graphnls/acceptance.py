"""The nine acceptance checks, shared by the test suite and `verify`.

Each criterion function runs a pinned experiment and returns a
CriterionResult with the measured values in its detail string.  The
expensive sweeps are cached so criteria that share a run (the tripod
sweep feeds 4, 5, 6 and 8) only pay for it once per process.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass
from functools import lru_cache
from importlib.resources import files

import numpy as np

from .discrete import (
    CondensedFactor,
    DiscreteField,
    EdgeBands,
    Mesh,
    assemble,
    count_below,
    refined_mesh,
    resolvent_apply,
    uniform_mesh,
)
from .errors import GraphNLSError
# evaluate_functionals and soliton_reference are unused here; bench/tracer.py
# wraps them by these names
from .functionals import evaluate_functionals, ground_state_gap, normalized_ratios
from .functionals import soliton_reference
from .graphs import (
    MetricGraph,
    _parse_json,
    build_graph,
    star_neighborhood,
)
# sample_kernel_mode is unused here; bench/tracer.py wraps it by this name
from .profiles import sample_kernel_mode, sample_kernel_modes, sample_star_state
from .reduced import (
    enumerate_critical_points,
    even_case_lines,
    perturbed_gradient_hessian,
)
from .solve import (
    SolveConfig,
    continuation_sweep,
    jacobian,
    linearization_bands,
    newton_solve,
    nonlinear_residual,
    peak_template,
)


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion."""

    cid: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.cid} ({self.name}): {status} - {self.detail}"


# the graphs shipped with the package, as `data/<name>.json`
BUILTIN_GRAPHS = ("tripod", "t_graph", "star5", "double_tripod", "figure1")


def reference_graph(name: str) -> MetricGraph:
    """Load one of the graphs shipped with the package.

    They are JSON (`data/<name>.json`), read without PyYAML.
    """
    if name not in BUILTIN_GRAPHS:
        raise ValueError(
            f"no built-in graph {name!r}; the built-ins are "
            f"{', '.join(BUILTIN_GRAPHS)}"
        )
    text = (files("graphnls") / "data" / f"{name}.json").read_text(encoding="utf-8")
    return build_graph(_parse_json(text))


# the only table of criterion names; criterion_k reports _NAMES[k]
_NAMES = {
    1: "kernel dimension",
    2: "reduced-energy degree",
    3: "even-N structure",
    4: "peaked solution existence",
    5: "mass asymptotics",
    6: "correction rate",
    7: "multi-peak",
    8: "not a ground state",
    9: "numerical hygiene",
}


def _star_description(N: int, truncation: float) -> dict:
    """The N-star of half-lines e0..e(N-1) from c to t0..t(N-1),
    truncated at truncation: a mapping for `build_graph`."""
    return {
        "vertices": ["c"] + [f"t{i}" for i in range(N)],
        "edges": [
            {"id": f"e{i}", "from": "c", "to": f"t{i}", "length": "inf"}
            for i in range(N)
        ],
        "truncation": truncation,
    }


# Criterion 1 counts the pencil's eigenvalues below each of these
# shifts exactly (`count_below`): N-1 of them must lie within 1e-3 of
# zero (the kernel eigenvalues are about 6e-6), and no other within
# 1e-2 (the nearest ones are about 1.0045 and the single negative one,
# near -3).
_KERNEL_SHIFTS = (-1e-2, -1e-3, 1e-3, 1e-2)
# Block inverse iteration steps for the kernel vectors that corr reads.
# Each step shrinks a vector's parts outside the kernel by the kernel
# eigenvalue over the nearest other one, about 6e-6.  On `_kernel_mesh`
# the Ritz residuals |L v - theta M v| of M-normalized vectors reach
# 7e-3, 1e-8 and 1e-12 after one, two and three steps (N = 5 is the
# worst); three leave the vectors at rounding level, and corr > 0.999
# would accept far less.
_KERNEL_STEPS = 3


def _kernel_mesh(N: int) -> Mesh:
    """Criterion 1's mesh of the N-star truncated at 25: h = 1/200 at
    the centre, graded beyond 15 peak widths (see `refined_mesh`)."""
    return refined_mesh(build_graph(_star_description(N, 25.0)), 1.0, ["c"], 200.0)


def _star_linearization(mesh: Mesh) -> tuple[EdgeBands, EdgeBands]:
    """The linearization at the star state centred at c (lam = mu = 1)
    on mesh, and the mass bands."""
    op = assemble(mesh.graph, mesh, 1.0)
    star = star_neighborhood(mesh.graph, "c")
    psi = DiscreteField(mesh, sample_star_state(mesh, star, 1.0, 1.0))
    return linearization_bands(op, 1.0, psi), op.mass


# the golden ratio: i*j*phi mod 1 never repeats in the integer i
_PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _weyl_vectors(n: int, k: int) -> np.ndarray:
    """k deterministic test vectors of length n, the rows of the result:
    row j holds the Weyl sequence frac(i*(j+1)*phi) - 1/2 over the
    index i = 0..n-1, spread over [-1/2, 1/2)."""
    x = np.arange(1, k + 1)[:, None] * np.arange(n) * _PHI
    # the same bits as x % 1.0 in a third of the time: for these
    # nonnegative x below 2**52 both are exact
    return x - np.floor(x) - 0.5


def _kernel_ritz(
    bands: EdgeBands, mass: EdgeBands, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """k Ritz pairs of the pencil (bands, mass) nearest zero, on the free dofs.

    Block inverse iteration with a `CondensedFactor` of bands, each step
    M-orthonormalized by a Cholesky factor of the block's mass Gram
    matrix, then one Rayleigh-Ritz step.  The start block is a Weyl
    sequence over the dof index (`_weyl_vectors`), so it differs from
    edge to edge.  It must: identical edges are eliminated by identical
    arithmetic, so a block invariant under edge permutations would stay
    invariant and miss the kernel modes that sum to zero across the
    edges.  Returns the Ritz values in ascending order and M-orthonormal
    vectors, zero at the Dirichlet dofs.
    """
    mesh = bands.mesh
    factor = CondensedFactor(bands)
    x = _weyl_vectors(mesh.ndof, k).T
    x[mesh.dirichlet_dofs] = 0.0
    for _ in range(_KERNEL_STEPS):
        y = np.stack([factor.solve(mass @ v) for v in x.T], axis=1)
        gram = y.T @ np.stack([mass @ v for v in y.T], axis=1)
        x = y @ np.linalg.inv(np.linalg.cholesky(gram)).T
    projected = x.T @ np.stack([bands @ v for v in x.T], axis=1)
    vals, rotation = np.linalg.eigh(0.5 * (projected + projected.T))
    return vals, x @ rotation


def criterion_1() -> CriterionResult:
    """Kernel of the linearization at the star state has dimension N-1."""
    details = []
    passed = True
    for N in (2, 3, 4, 5):
        mesh = _kernel_mesh(N)
        bands, mass = _star_linearization(mesh)
        star = star_neighborhood(mesh.graph, "c")
        far_neg, near_neg, near_pos, far_pos = (
            count_below(bands, mass, sigma) for sigma in _KERNEL_SHIFTS
        )
        n_small = near_pos - near_neg
        n_gap = (far_pos - near_pos) + (near_neg - far_neg)
        _, vecs = _kernel_ritz(bands, mass, N - 1)

        modes = np.stack(sample_kernel_modes(mesh, star, 1.0, 1.0), axis=1)
        # the Ritz vectors vanish there; the modes are taken on the free dofs
        modes[mesh.dirichlet_dofs] = 0.0
        mass_modes = np.stack([mass @ m for m in modes.T], axis=1)
        gram = modes.T @ mass_modes
        corr_min = 1.0
        for v in vecs.T:
            b = mass_modes.T @ v
            proj_sq = float(b @ np.linalg.solve(gram, b))
            corr = math.sqrt(max(proj_sq, 0.0) / float(v @ (mass @ v)))
            corr_min = min(corr_min, corr)
        ok = n_small == N - 1 and n_gap == 0 and corr_min > 0.999
        passed = passed and ok
        details.append(
            f"N={N}: {n_small} small, {n_gap} in gap, {near_neg} below -1e-3, "
            f"corr {corr_min:.5f}"
        )
    return CriterionResult(1, _NAMES[1], passed, "; ".join(details))


def criterion_2() -> CriterionResult:
    """Local degree of the reduced energy matches the closed form (odd N)."""
    details = []
    passed = True
    for N in (3, 5, 7, 9):
        rep = enumerate_critical_points(N)
        count = math.comb(N - 1, (N - 1) // 2)
        degree = (-1) ** ((N - 1) // 2) * count
        ok = rep.local_degree == degree and len(rep.critical_points) == count
        passed = passed and ok
        details.append(
            f"N={N}: degree {rep.local_degree} (want {degree}), "
            f"{len(rep.critical_points)} points (want {count})"
        )
    return CriterionResult(2, _NAMES[2], passed, "; ".join(details))


def criterion_3() -> CriterionResult:
    """Even N: the critical set is the expected family of lines."""
    details = []
    passed = True
    for N in (4, 6):
        lines = even_case_lines(N)
        want = 2 * math.comb(N - 1, N // 2)
        # three points on each line
        x = np.array([0.7, 1.3, -0.6])[:, None, None] * np.array(lines, dtype=float)
        grad, _ = perturbed_gradient_hessian(N, 0.0, x)
        worst = float(np.max(np.abs(grad)))
        ok = len(lines) == want and worst <= 1e-10
        passed = passed and ok
        details.append(
            f"N={N}: {len(lines)} directions (want {want}), "
            f"max |grad| {worst:.2g}"
        )
    return CriterionResult(3, _NAMES[3], passed, "; ".join(details))


_TRIPOD_SCHEDULE = (25.0, 50.0, 100.0, 200.0, 400.0)


def _sweep(graph: str, peaks: tuple[str, ...], **knobs):
    """The zero-coefficient sweep of the built-in graph with peaks at
    peaks: its template (of the split graph) and its results."""
    template = peak_template(reference_graph(graph), peaks)
    return template, continuation_sweep(template, SolveConfig(**knobs))


@lru_cache(maxsize=None)
def _tripod_sweep():
    return _sweep("tripod", ("c",), mu=1.0, lambdas=_TRIPOD_SCHEDULE, seed="ansatz")


def criterion_4() -> CriterionResult:
    """Ansatz-seeded Newton converges to a positive single-peak state."""
    template, results = _tripod_sweep()
    eid, away = template.stars[0].incident_edges[0]
    details = []
    passed = True
    for res in results:
        mesh = res.u.mesh
        h = mesh.edge_spacing(eid, at_start=away)
        low = float(np.min(res.u.values[mesh.free_dofs]))
        offset = res.peak_locations[0][1]
        ok = res.converged and low > 0.0 and offset <= h + 1e-12
        passed = passed and ok
        details.append(
            f"lam={res.lam:g}: conv={res.converged} its={res.iterations} "
            f"min={low:.2g} offset={offset:.2g} (cell {h:.2g})"
        )
    return CriterionResult(4, _NAMES[4], passed, "; ".join(details))


def criterion_5() -> CriterionResult:
    """Mass follows sqrt(lam) * (3/2) * (soliton mass), approaching it."""
    template, results = _tripod_sweep()
    ratios = [normalized_ratios(res, template.weight)[0] for res in results]
    errs = [abs(r - 1.0) for r in ratios]
    in_band = 0.95 <= ratios[-1] <= 1.05
    monotone = all(b <= a * (1.0 + 1e-6) for a, b in zip(errs, errs[1:]))
    passed = in_band and monotone and all(res.converged for res in results)
    detail = (
        "ratios " + ", ".join(f"{r:.4f}" for r in ratios) + f"; final in band={in_band}, monotone={monotone}"
    )
    return CriterionResult(5, _NAMES[5], passed, detail)


def criterion_6() -> CriterionResult:
    """Normalized correction size strictly decreases along the sweep."""
    template, results = _tripod_sweep()
    rates = [normalized_ratios(res, template.weight)[2] for res in results]
    converged = all(res.converged for res in results)
    passed = converged and all(b < a for a, b in zip(rates, rates[1:]))
    detail = "rates " + ", ".join(f"{r:.4g}" for r in rates)
    return CriterionResult(6, _NAMES[6], passed, detail)


# the double tripod's long truncated sides leave the linearization's
# kernel eigenvalues at machine scale, so the ansatz-quality floor at
# lam=25 stalls Newton; the sweep starts where the seed is inside the
# quadratic basin
_DOUBLE_SCHEDULE = (50.0, 100.0, 200.0, 400.0)


@lru_cache(maxsize=None)
def _double_sweep():
    return _sweep("double_tripod", ("c1", "c2"), mu=1.0, lambdas=_DOUBLE_SCHEDULE)


def criterion_7() -> CriterionResult:
    """Two-peak state on the double tripod carries twice the mass."""
    template, results = _double_sweep()
    all_converged = all(res.converged for res in results)
    last = results[-1]
    mesh = last.u.mesh
    ratio = normalized_ratios(last, template.weight)[0]
    offsets_ok = True
    offs = []
    for star, (center, off) in zip(template.stars, last.peak_locations):
        eid, away = star.incident_edges[0]
        h = mesh.edge_spacing(eid, at_start=away)
        offsets_ok = offsets_ok and off <= h + 1e-12
        offs.append(f"{center}:{off:.2g}")
    passed = all_converged and abs(ratio - 1.0) <= 0.07 and offsets_ok
    detail = (
        f"converged={all_converged}, mass ratio {ratio:.4f} "
        f"(band 7%), offsets {', '.join(offs)}"
    )
    return CriterionResult(7, _NAMES[7], passed, detail)


@lru_cache(maxsize=None)
def _mu2_sweep():
    return _sweep("tripod", ("c",), mu=2.0, lambdas=(400.0,))


def criterion_8() -> CriterionResult:
    """The peaked state is not a ground state: action and mass excess."""
    template, results = _tripod_sweep()
    gap = ground_state_gap(results[-1], weight=template.weight)
    ratio = gap.normalized_action / gap.action_reference
    ratio_ok = 1.35 <= ratio <= 1.65 and gap.not_ground_state

    template2, (res2,) = _mu2_sweep()
    gap2 = ground_state_gap(res2, weight=template2.weight)
    # at mu = 2 not_ground_state is mass_exceeds, and the gap refuses an
    # unconverged result
    passed = ratio_ok and gap2.mass_exceeds
    detail = (
        f"action ratio {ratio:.4f} (band [1.35, 1.65]); mu=2 mass "
        f"{gap2.mass:.4f} vs {gap2.mass_reference:.4f}"
    )
    return CriterionResult(8, _NAMES[8], passed, detail)


# criterion 9's uniform mesh spacings: each halves the last, so an h^2
# error shrinks by a factor near 4 from one to the next
_HYGIENE_SPACINGS = (1.0 / 40.0, 1.0 / 80.0, 1.0 / 160.0)


def criterion_9() -> CriterionResult:
    """Discretization hygiene: h^2 rate, resolvent symmetry, Jacobian."""
    g = build_graph(_star_description(3, 10.0))
    star = star_neighborhood(g, "c")
    lam, mu = 4.0, 1.0
    errors = []
    for h in _HYGIENE_SPACINGS:
        mesh = uniform_mesh(g, h)
        op = assemble(g, mesh, lam)
        exact = sample_star_state(mesh, star, lam, mu)
        cfg = SolveConfig(mu=mu, newton_tol=1e-11, lambdas=(lam,))
        res = newton_solve(op, DiscreteField(mesh, exact), cfg)
        diff = res.u.values - exact
        diff[mesh.dirichlet_dofs] = 0.0
        errors.append(float(np.max(np.abs(diff))))
    factors = [a / b for a, b in zip(errors, errors[1:])]
    rate_ok = all(f >= 3.5 for f in factors)

    mesh = uniform_mesh(g, 1.0 / 100.0)
    op = assemble(g, mesh, 3.0)
    vf, vw, direction, vu = _weyl_vectors(mesh.ndof, 4)
    f = DiscreteField(mesh, vf)
    w = DiscreteField(mesh, vw)
    lhs = float(resolvent_apply(op, f).values @ (op.mass @ w.values))
    rhs = float(f.values @ (op.mass @ resolvent_apply(op, w).values))
    adj_err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    adj_ok = adj_err <= 1e-10

    u = DiscreteField(mesh, 0.6 + vu)
    eps = 1e-5
    up = DiscreteField(mesh, u.values + eps * direction)
    dn = DiscreteField(mesh, u.values - eps * direction)
    fd = (
        nonlinear_residual(op, mu, up).values
        - nonlinear_residual(op, mu, dn).values
    ) / (2.0 * eps)
    jv = jacobian(op, mu, u) @ direction
    jac_err = float(np.linalg.norm(fd - jv) / max(1.0, np.linalg.norm(jv)))
    jac_ok = jac_err <= 1e-5

    passed = rate_ok and adj_ok and jac_ok
    detail = (
        "factors " + ", ".join(f"{f:.2f}" for f in factors)
        + f"; adjointness {adj_err:.2g}; jacobian fd {jac_err:.2g}"
    )
    return CriterionResult(9, _NAMES[9], passed, detail)


# criteria that run Newton; `run_all` runs them in a child process
_NEWTON = (4, 5, 6, 7, 8, 9)


def _requested(criteria) -> list[int]:
    """The requested criteria in order, all nine for None.  Raises
    ValueError on an empty request or an unknown criterion, so that a
    bad request runs nothing."""
    wanted = sorted(_NAMES) if criteria is None else sorted(set(criteria))
    if not wanted:
        raise ValueError("no criteria requested")
    unknown = [cid for cid in wanted if cid not in _NAMES]
    if unknown:
        raise ValueError(f"no criterion {', '.join(map(str, unknown))}")
    return wanted


def run_criterion(cid: int) -> CriterionResult:
    """Run one criterion; a GraphNLSError it raises is a failed result."""
    _requested((cid,))
    # looked up at call time, so a rebound criterion_k is the one run
    fn = globals()[f"criterion_{cid}"]
    try:
        return fn()
    except GraphNLSError as exc:
        return CriterionResult(
            cid, _NAMES[cid], passed=False, detail=f"{type(exc).__name__}: {exc}"
        )


def _send_from_child(write_fd: int, run, cids: list[int]) -> None:
    """In a forked child: pickle run(cids), or the exception it raised,
    to write_fd, and leave the process.  Never returns."""
    status = 1
    try:
        try:
            payload = (True, run(cids))
        # Ctrl-C and SystemExit too: the child never unwinds into the
        # caller's stack, and the caller re-raises what it was sent
        except BaseException as exc:
            payload = (False, exc)
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # an exception that does not round-trip
                payload = (False, RuntimeError(f"{type(exc).__name__}: {exc}"))
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(payload))
        status = 0
    finally:
        os._exit(status)


def run_all(criteria=None) -> list[CriterionResult]:
    """Run the requested criteria (all nine by default) in order.

    The request is checked before anything runs.  When it holds
    criteria of both groups, and the platform has os.fork, the Newton
    criteria (4-9) run in a forked child while this process runs
    criteria 1-3; the two groups share nothing, so on two cores they
    overlap.  A request of one group, or a fork that fails, runs here.
    The child's cached sweeps live and die with it.  The child is reaped
    before this returns or raises, an exception it raised is raised here
    with its type and message, and a child that dies without a result
    raises RuntimeError naming its exit status.
    """
    wanted = _requested(criteria)

    def run(cids: list[int]) -> list[CriterionResult]:
        return [run_criterion(cid) for cid in cids]

    newton = [cid for cid in wanted if cid in _NEWTON]
    here = [cid for cid in wanted if cid not in _NEWTON]
    if not (newton and here and hasattr(os, "fork")):
        return run(wanted)
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: run every criterion here
        os.close(read_fd)
        os.close(write_fd)
        return run(wanted)
    if pid == 0:
        os.close(read_fd)
        _send_from_child(write_fd, run, newton)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            results = run(here)
            data = pipe.read()
    except BaseException:
        import signal  # only a failed run needs it

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(
            f"the child running criteria {', '.join(map(str, newton))} exited "
            f"with status {os.waitstatus_to_exitcode(status)} and no result"
        )
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    # every criterion run here precedes every Newton criterion
    return results + value
