"""Closed-form profiles: soliton, star states, kernel modes, taper, ansatz.

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
from functools import cached_property

import numpy as np

from .discrete import DiscreteField, Mesh
from .graphs import MetricGraph, StarNeighborhood, star_neighborhood


def eval_soliton(mu: float, x):
    """phi(x) for exponent mu > 0; strictly positive, even, decays like exp(-|x|)."""
    if not mu > 0.0:
        raise ValueError("nonlinearity exponent must be positive")
    z = mu * np.asarray(x, dtype=float)
    amp = (mu + 1.0) ** (1.0 / (2.0 * mu))
    s = np.exp(-np.abs(z))
    sech = 2.0 * s / (1.0 + s * s)
    out = amp * sech ** (1.0 / mu)
    return out if out.ndim else float(out)


def soliton_derivative(mu: float, x):
    """phi'(x) = -phi * tanh(mu*x)."""
    z = mu * np.asarray(x, dtype=float)
    out = -np.asarray(eval_soliton(mu, x)) * np.tanh(z)
    return out if out.ndim else float(out)


def kernel_basis(N: int) -> np.ndarray:
    """Integer sign vectors spanning the linearization kernel on an N-star.

    Row j-1 of the (N-1) x N matrix is (1, ..., 1, -j, 0, ..., 0) with
    j leading ones; each row sums to zero and the rows are pairwise
    orthogonal.
    """
    if N < 2:
        raise ValueError("kernel basis needs N >= 2")
    basis = np.zeros((N - 1, N), dtype=int)
    for j in range(1, N):
        basis[j - 1, :j] = 1
        basis[j - 1, j] = -j
    return basis


def eval_cutoff(ell: float, x):
    """The taper: 1 on [0, ell], cos^2 down to 0 at 2*ell, 0 beyond.

    Monotone and C^1; its value at 1.5*ell is exactly one half.
    """
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
    """The peaked seed state's shape on one graph, fixed across a sweep.

    peaks are vertices of graph, and coeffs holds one vector per peak,
    of length degree-1, weighting its kernel modes.  An empty, unknown
    or repeated peak, a wrong number of vectors or of coefficients, and
    a non-finite coefficient are refused with `ValueError`.
    """

    graph: MetricGraph
    peaks: tuple[str, ...]
    coeffs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.peaks:
            raise ValueError("at least one peak vertex is required")
        missing = [p for p in self.peaks if p not in self.graph.vertices]
        if missing:
            raise ValueError(f"peak vertices not in graph: {missing}")
        if len(set(self.peaks)) != len(self.peaks):
            raise ValueError("duplicate peak vertices")
        if len(self.coeffs) != len(self.peaks):
            raise ValueError(
                f"got {len(self.coeffs)} coefficient vectors for {len(self.peaks)} peaks"
            )
        for star, coeffs in zip(self.stars, self.coeffs):
            # the seed's kernel modes need two rays: a degree-1 vertex
            # has none, and the state could not be assembled
            if star.degree < 2:
                raise ValueError(
                    f"peak {star.center!r} has degree {star.degree}: a peak "
                    "needs at least 2 incident edge-ends"
                )
            if len(coeffs) != star.degree - 1:
                raise ValueError(
                    f"peak {star.center!r}: expected {star.degree - 1} "
                    f"coefficients, got {len(coeffs)}"
                )
            if not all(math.isfinite(c) for c in coeffs):
                raise ValueError(
                    f"peak {star.center!r}: kernel coefficients must be "
                    f"finite, got {tuple(coeffs)}"
                )

    @cached_property
    def stars(self) -> tuple[StarNeighborhood, ...]:
        """The peaks' stars, in multi-peak mode when there are several.

        A multi-peak radius is at most |e|/4 of every incident edge
        (|e|/8 of a self-loop), so two peaks at distance d, joined by one
        edge or by a longer path, have d >= 2*r_p + 2*r_q: their 2*radius
        balls are disjoint.
        """
        mode = "multi" if len(self.peaks) > 1 else "single"
        return tuple(star_neighborhood(self.graph, p, mode=mode) for p in self.peaks)

    @property
    def weight(self) -> float:
        """Sum of peak degrees / 2: the soliton levels mass and action tend to."""
        return sum(star.degree for star in self.stars) / 2.0


def _rays(mesh: Mesh, star: StarNeighborhood, reach: float):
    """Yield (ray index, dofs, distances) of the nodes within reach of the center.

    Rays from the same peak only share the center node, where every ray
    yields the same value up to the sign of a zero, so plain assignment
    ray after ray is well defined; the last ray sets the sign.
    """
    for i, (eid, away) in enumerate(star.incident_edges):
        nodes = mesh.edge_nodes[eid]
        t = nodes if away else nodes[-1] - nodes
        sel = t <= reach
        if np.any(sel):
            yield i, mesh.edge_dofs[eid][sel], t[sel]


def assemble_ansatz(
    spec: AnsatzSpec, mesh: Mesh, lam: float, mu: float
) -> DiscreteField:
    """Sample the peaked seed state W at shift lam on the mesh.

    W sums, over the peaks, the tapered star state and each tapered
    kernel mode times c_j / lam**0.25; a shift that is not positive and
    finite is refused.  At each peak vertex W is lam^(1/(2*mu)) *
    (mu+1)^(1/(2*mu)): the modes vanish there and the taper is one.
    """
    if mesh.graph is not spec.graph:
        raise ValueError("the mesh is not of the template's graph")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive")
    vals = np.zeros(mesh.ndof)
    for star, coeffs in zip(spec.stars, spec.coeffs):
        vals += sample_star_state(mesh, star, lam, mu, tapered=True)
        if any(coeffs):  # zero terms add nothing: skip sampling the modes
            modes = sample_kernel_modes(mesh, star, lam, mu, tapered=True)
            for c, mode in zip(coeffs, modes):
                vals += (c / lam**0.25) * mode
    return DiscreteField(mesh, vals)


def sample_star_state(
    mesh: Mesh, star: StarNeighborhood, lam: float, mu: float, tapered: bool = False
) -> np.ndarray:
    """Scaled star state on the star's full rays, or tapered to its
    2*radius ball as in the seed; zero elsewhere."""
    scale = lam ** (1.0 / (2.0 * mu))
    root = math.sqrt(lam)
    out = np.zeros(mesh.ndof)
    reach = 2.0 * star.radius if tapered else math.inf
    for _, dofs, t in _rays(mesh, star, reach):
        phi = np.asarray(eval_soliton(mu, root * t))
        out[dofs] = eval_cutoff(star.radius, t) * scale * phi if tapered else scale * phi
    return out


def sample_kernel_mode(
    mesh: Mesh,
    star: StarNeighborhood,
    j: int,
    lam: float,
    mu: float,
    tapered: bool = False,
) -> np.ndarray:
    """Kernel mode j of sample_kernel_modes."""
    if not 1 <= j <= star.degree - 1:
        raise ValueError(f"kernel index {j} not in 1..{star.degree - 1}")
    return sample_kernel_modes(mesh, star, lam, mu, tapered)[j - 1]


def sample_kernel_modes(
    mesh: Mesh,
    star: StarNeighborhood,
    lam: float,
    mu: float,
    tapered: bool = False,
) -> list[np.ndarray]:
    """Scaled kernel modes j = 1, ..., degree-1 on the star's rays.

    Tapered, these are the projection-basis functions used for the
    kernel split of the correction; untapered, the raw modes.  The
    modes differ on a ray only by their sign factor, so each ray's
    soliton derivative and taper are evaluated once for all of them.
    """
    basis = kernel_basis(star.degree)
    scale = lam ** (1.0 / (2.0 * mu))
    root = math.sqrt(lam)
    modes = [np.zeros(mesh.ndof) for _ in basis]
    reach = 2.0 * star.radius if tapered else math.inf
    for i, dofs, t in _rays(mesh, star, reach):
        slope = np.asarray(soliton_derivative(mu, root * t))
        taper = eval_cutoff(star.radius, t) if tapered else None
        for out, signs in zip(modes, basis):
            body = scale * float(signs[i]) * slope
            out[dofs] = body if taper is None else body * taper
    return modes


def beta(a: float, b: float) -> float:
    """Euler's Beta function B(a, b) = Gamma(a)*Gamma(b)/Gamma(a+b)."""
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def reduced_cubic_coefficient(mu: float) -> float:
    """Coefficient of the cubic reduced-energy term.

    (mu*(2*mu+1)/3) * integral over the positive half line of
    phi^(2*mu-1) * (phi')^3; strictly negative since phi decreases
    there.  With q = 1/mu the integral is a Beta function, giving
    -(2*mu+1) * (mu+1)^(1+q) / 6 * B(2, 1+q).
    """
    if mu < 0.5:
        raise ValueError("cubic coefficient defined for mu >= 1/2")
    q = 1.0 / mu
    return -(2.0 * mu + 1.0) * (mu + 1.0) ** (1.0 + q) / 6.0 * beta(2.0, 1.0 + q)
