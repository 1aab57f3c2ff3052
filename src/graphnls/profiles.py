"""Closed-form profiles: soliton, star states, kernel modes, tapers, ansatz.

Everything here is an explicit formula.  The building block is the
positive even solution of -u'' + u = u^(2*mu+1) on the line,

    phi(x) = (mu+1)^(1/(2*mu)) * sech(mu*x)^(1/mu),

together with its derivative modes; the peaked seed state glues scaled
copies of these onto a graph inside tapered support balls around the
chosen peak vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .discrete import DiscreteField, Mesh
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    OddNWithShift,
    QuadratureNotConverged,
)
from .graphs import MetricGraph, StarNeighborhood, check_disjoint_peak_balls


@dataclass(frozen=True)
class SolitonParams:
    """Nonlinearity exponent and translation of the line soliton."""

    mu: float
    a: float = 0.0

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError("nonlinearity exponent must be positive")

    @property
    def within_hypotheses(self) -> bool:
        # the existence results assume mu >= 1/2; smaller mu is allowed
        # for profile evaluation only
        return self.mu >= 0.5


def eval_soliton(p: SolitonParams, x):
    """phi(x - a); strictly positive, even about a, decays like exp(-|x|)."""
    z = p.mu * (np.asarray(x, dtype=float) - p.a)
    amp = (p.mu + 1.0) ** (1.0 / (2.0 * p.mu))
    s = np.exp(-np.abs(z))
    sech = 2.0 * s / (1.0 + s * s)
    out = amp * sech ** (1.0 / p.mu)
    return out if out.ndim else float(out)


def soliton_derivative(p: SolitonParams, x):
    """phi'(x - a) = -phi * tanh(mu*(x - a))."""
    z = p.mu * (np.asarray(x, dtype=float) - p.a)
    out = -np.asarray(eval_soliton(p, x)) * np.tanh(z)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class KernelBasis:
    """Integer sign vectors spanning the linearization kernel on an N-star.

    vector j (1-based) is (1, ..., 1, -j, 0, ..., 0) with j leading
    ones; each sums to zero and they are pairwise orthogonal.
    """

    N: int
    vectors: tuple[np.ndarray, ...]


def kernel_basis(N: int) -> KernelBasis:
    if N < 2:
        raise ValueError("kernel basis needs N >= 2")
    vecs = []
    for j in range(1, N):
        v = np.zeros(N, dtype=int)
        v[:j] = 1
        v[j] = -j
        vecs.append(v)
    return KernelBasis(N, tuple(vecs))


def eval_star_solution(N: int, mu: float, edge_index: int, x, a: float = 0.0):
    """Value of the symmetric star state on edge `edge_index` at x >= 0.

    For a = 0 this is phi on every edge (any N).  For a != 0, N must be
    even: half the edges carry phi shifted outward by a, the other half
    phi shifted inward, which preserves continuity and flux balance.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 0 <= edge_index < N:
        raise IndexOutOfRange(f"edge index {edge_index} not in 0..{N - 1}")
    if a == 0.0:
        return eval_soliton(SolitonParams(mu), x)
    if N % 2 == 1:
        raise OddNWithShift("shifted star states exist only for even N")
    shift = a if edge_index < N // 2 else -a
    return eval_soliton(SolitonParams(mu, a=shift), x)


def eval_kernel_function(
    basis: KernelBasis, j: int, mu: float, edge_index: int, x
):
    """Kernel mode j on edge `edge_index`: a signed copy of phi'.

    Vanishes at the vertex (phi'(0) = 0) and satisfies the vertex flux
    balance because the sign vector sums to zero.
    """
    if not 1 <= j <= basis.N - 1:
        raise IndexOutOfRange(f"kernel index {j} not in 1..{basis.N - 1}")
    if not 0 <= edge_index < basis.N:
        raise IndexOutOfRange(f"edge index {edge_index} not in 0..{basis.N - 1}")
    sign = float(basis.vectors[j - 1][edge_index])
    return sign * soliton_derivative(SolitonParams(mu), x)


def eval_cutoff(kind: str, ell: float, x):
    """Monotone C^1 taper: 1 on [0, ell], 0 from 2*ell on.

    The only registered family is "cos2", the squared-cosine ramp; its
    value at 1.5*ell is exactly one half.
    """
    if kind != "cos2":
        raise ValueError(f"unknown cutoff kind {kind!r}")
    if not ell > 0.0:
        raise ValueError("cutoff radius must be positive")
    t = np.asarray(x, dtype=float)
    out = np.zeros_like(t)
    out[t <= ell] = 1.0
    ramp = (t > ell) & (t < 2.0 * ell)
    out[ramp] = np.cos(np.pi * (t[ramp] - ell) / (2.0 * ell)) ** 2
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class AnsatzSpec:
    """Everything defining the peaked seed state.

    Each peak pairs a star neighborhood with a coefficient vector of
    length degree-1 weighting the kernel modes; the coefficients are
    damped by lam**(-alpha) when the state is assembled.
    """

    peaks: tuple[tuple[StarNeighborhood, tuple[float, ...]], ...]
    mu: float
    lam: float
    alpha: float
    cutoff_kind: str = "cos2"

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError("lam must be positive")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        for star, coeffs in self.peaks:
            if len(coeffs) != star.degree - 1:
                raise DimensionMismatch(
                    f"peak {star.center!r}: expected {star.degree - 1} "
                    f"coefficients, got {len(coeffs)}"
                )
            if not all(math.isfinite(c) for c in coeffs):
                raise ValueError(
                    f"peak {star.center!r}: kernel coefficients must be "
                    f"finite, got {tuple(coeffs)}"
                )

    def with_lam(self, lam: float) -> "AnsatzSpec":
        return AnsatzSpec(self.peaks, self.mu, lam, self.alpha, self.cutoff_kind)


def _assign_on_rays(
    mesh: Mesh,
    star: StarNeighborhood,
    out: np.ndarray,
    ray_fn,
    reach: float,
) -> None:
    """Write ray_fn(ray_index, distances) onto the star's rays.

    Rays from the same peak only share the center node, where every ray
    yields the same value, so plain assignment is well defined.
    """
    for i, (eid, away) in enumerate(star.incident_edges):
        nodes = mesh.edge_nodes[eid]
        t = nodes if away else nodes[-1] - nodes
        sel = t <= reach
        if not np.any(sel):
            continue
        out[mesh.edge_dofs[eid][sel]] = ray_fn(i, t[sel])


def assemble_ansatz(
    g: MetricGraph, spec: AnsatzSpec, mesh: Mesh
) -> DiscreteField:
    """Sample the peaked seed state W on the mesh.

    W is supported in the union of the peaks' 2*radius balls; at each
    peak vertex its value is lam^(1/(2*mu)) * (mu+1)^(1/(2*mu)) since
    the kernel modes vanish there and the taper equals one.
    """
    if mesh.graph is not g:
        raise ValueError("mesh was built for a different graph")
    check_disjoint_peak_balls(g, [star for star, _ in spec.peaks])
    scale = spec.lam ** (1.0 / (2.0 * spec.mu))
    root = math.sqrt(spec.lam)
    p = SolitonParams(spec.mu)
    vals = np.zeros(mesh.ndof)
    for star, coeffs in spec.peaks:
        basis = kernel_basis(star.degree)
        b = np.asarray(coeffs, dtype=float) / spec.lam**spec.alpha
        # per-ray kernel weight: sum_j b_j e^j_i
        ray_sign = np.zeros(star.degree)
        for j, vec in enumerate(basis.vectors):
            ray_sign += b[j] * vec
        ell = star.radius

        def ray_fn(i, t, _ell=ell, _sign=ray_sign):
            chi = eval_cutoff(spec.cutoff_kind, _ell, t)
            body = eval_soliton(p, root * t) + _sign[i] * soliton_derivative(
                p, root * t
            )
            return chi * scale * np.asarray(body)

        _assign_on_rays(mesh, star, vals, ray_fn, 2.0 * ell)
    return DiscreteField(mesh, vals)


def sample_star_state(
    mesh: Mesh, star: StarNeighborhood, lam: float, mu: float
) -> np.ndarray:
    """Untapered scaled star state on the star's full rays (zero elsewhere)."""
    scale = lam ** (1.0 / (2.0 * mu))
    root = math.sqrt(lam)
    p = SolitonParams(mu)
    out = np.zeros(mesh.ndof)
    _assign_on_rays(
        mesh,
        star,
        out,
        lambda i, t: scale * np.asarray(eval_soliton(p, root * t)),
        math.inf,
    )
    return out


def sample_kernel_mode(
    mesh: Mesh,
    star: StarNeighborhood,
    j: int,
    lam: float,
    mu: float,
    cutoff_kind: str | None = None,
) -> np.ndarray:
    """Scaled kernel mode j on the star's rays, optionally tapered.

    With cutoff_kind set, this is the projection-basis function used
    for the kernel split of the correction; without it, the raw mode.
    """
    basis = kernel_basis(star.degree)
    if not 1 <= j <= star.degree - 1:
        raise IndexOutOfRange(f"kernel index {j} not in 1..{star.degree - 1}")
    scale = lam ** (1.0 / (2.0 * mu))
    root = math.sqrt(lam)
    p = SolitonParams(mu)
    signs = basis.vectors[j - 1]
    out = np.zeros(mesh.ndof)
    reach = 2.0 * star.radius if cutoff_kind is not None else math.inf

    def ray_fn(i, t):
        body = scale * float(signs[i]) * np.asarray(soliton_derivative(p, root * t))
        if cutoff_kind is not None:
            body = body * eval_cutoff(cutoff_kind, star.radius, t)
        return body

    _assign_on_rays(mesh, star, out, ray_fn, reach)
    return out


def reduced_cubic_coefficient(mu: float) -> float:
    """Coefficient of the cubic reduced-energy term.

    (mu*(2*mu+1)/3) * integral over the positive half line of
    phi^(2*mu-1) * (phi')^3; strictly negative since phi decreases
    there.
    """
    if mu < 0.5:
        raise ValueError("cubic coefficient defined for mu >= 1/2")
    p = SolitonParams(mu)

    def integrand(x):
        return eval_soliton(p, x) ** (2.0 * mu - 1.0) * soliton_derivative(p, x) ** 3

    val, err = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=200)
    if not math.isfinite(val) or err > 1e-10 * max(1.0, abs(val)):
        raise QuadratureNotConverged(
            f"cubic coefficient quadrature error {err} too large"
        )
    return mu * (2.0 * mu + 1.0) / 3.0 * val
