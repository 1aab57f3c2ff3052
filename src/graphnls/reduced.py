"""The cubic reduced energy on kernel coefficients and its critical set.

For an N-star the leading finite-dimensional obstruction to continuing
the peaked state is a homogeneous cubic in the N-1 kernel coefficients.
After a linear change of variables it reads

    sum_j x_j^3 - (sum_j x_j)^3,

whose gradient vanishes only at the origin when N is odd.  A small
symmetric perturbation splits the origin into finitely many
nondegenerate critical points whose Hessian signs sum to the local
topological degree; for even N the critical set degenerates into
straight lines and no degree is defined.  Both sets are sign patterns
with a fixed number of minus entries, built from the combinations of
their minus positions; for odd N the algebra in
enumerate_critical_points shows that nothing else is critical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .profiles import kernel_basis


@dataclass(frozen=True)
class ReducedEnergyReport:
    """Critical-point structure of the perturbed reduced energy."""

    N: int
    eps: float
    critical_points: tuple[tuple[float, ...], ...]
    hessian_signs: tuple[int, ...]
    local_degree: int


def change_of_variables_matrix(N: int) -> np.ndarray:
    """Matrix sending kernel coefficients to the first N-1 edge sums."""
    return kernel_basis(N)[:, : N - 1].T.astype(float)


def reduced_energy(N: int, coeffs) -> float:
    """The cubic: sum over edges of (signed coefficient sum)^3.

    Homogeneous of degree three in the coefficients.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (N - 1,):
        raise ValueError(
            f"expected {N - 1} coefficients for N={N}, got {coeffs.shape}"
        )
    edge_sums = np.zeros(N)
    for k, vec in enumerate(kernel_basis(N)):
        edge_sums += coeffs[k] * vec
    return float(np.sum(edge_sums**3))


def perturbed_gradient_hessian(
    N: int, eps: float, x
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the linearly perturbed diagonal cubic.

    The perturbation is -3*eps^2 * sum(x), normalized so the critical
    points sit exactly at the sign patterns scaled by eps and the
    Hessian there is diag(6*sign*eps).  Points may be stacked: x holds
    one point per entry of its leading axes, its N-1 coordinates on the
    last axis, and the results stack the same way.
    """
    x = np.asarray(x, dtype=float)
    d = N - 1
    if x.ndim == 0 or x.shape[-1] != d:
        raise ValueError(f"expected {d} entries for N={N}, got {x.shape}")
    s = x.sum(axis=-1)[..., None]
    grad = 3.0 * x**2 - 3.0 * s**2 - 3.0 * eps**2
    hess = np.empty(x.shape + (d,))
    hess[:] = -6.0 * s[..., None]
    _diagonal(hess)[:] += 6.0 * x
    return grad, hess


def _diagonal(a: np.ndarray) -> np.ndarray:
    """A writable view of the diagonals of a's stacked square matrices
    (a contiguous)."""
    d = a.shape[-1]
    return a.reshape(a.shape[:-2] + (d * d,))[..., :: d + 1]


# The report lists every critical point (odd N) or direction (even N):
# C(N-1, (N-1)/2) points, or 2*C(N-1, N/2) directions.  That is 924 at
# N = 12 and 13 and 3432 at 14 and 15, about four times more for each
# step of 2 in N
MAX_N = 13


def _check_star_size(N: int) -> None:
    if N < 2:
        raise ValueError("N must be >= 2")
    if N > MAX_N:
        raise ValueError(
            f"N must be <= {MAX_N}, got {N}: the report would list "
            "thousands of critical points or directions"
        )


def _sign_patterns(d: int, minus: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The sign patterns in {-1, 1}^d whose number of minus entries is in
    `minus`, in itertools.product((1, -1), repeat=d) order: descending
    lexicographic."""
    out = [
        tuple(-1 if j in cols else 1 for j in range(d))
        for n in minus
        for cols in itertools.combinations(range(d), n)
    ]
    return sorted(out, reverse=True)


def enumerate_critical_points(N: int, eps: float = 0.35) -> ReducedEnergyReport:
    """All critical points of the perturbed cubic, in closed form.

    They are the sign patterns with exactly (N-1)/2 minus entries,
    scaled by eps, and nothing else is critical.  The gradient
    3*x_j^2 - 3*s^2 - 3*eps^2, s = sum(x), vanishes only where every
    |x_j| = a = sqrt(s^2 + eps^2) > 0.  With n minus signs s = a*(N-1-2n),
    so a^2 * (1 - (N-1-2n)^2) = eps^2.  N-1-2n is even, so that has a
    root only at n = (N-1)/2, where s = 0 and a = eps.  Each point is
    checked to be critical; the local degree is the sum of Hessian
    determinant signs.

    The perturbed cubic is homogeneous: its critical points at eps are
    eps times those at eps = 1, and the Hessian there is eps times the
    one at eps = 1, with the same determinant signs.  The points are
    therefore built and checked at eps = 1, and eps only scales them.
    """
    if N % 2 == 0:
        raise ValueError("critical points degenerate into lines for even N")
    _check_star_size(N)  # for odd N, N >= 2 is N >= 3
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")

    points = np.array(_sign_patterns(N - 1, ((N - 1) // 2,)), dtype=float)
    grad, hess = perturbed_gradient_hessian(N, 1.0, points)
    off = np.linalg.norm(grad, axis=1) >= 1e-10
    if off.any():
        x = points[np.argmax(off)]
        raise AssertionError(f"closed-form point {x} is not critical")
    signs = [int(math.copysign(1.0, det)) for det in np.linalg.det(hess)]

    return ReducedEnergyReport(
        N=N,
        eps=eps,
        critical_points=tuple(tuple(eps * p) for p in points),
        hessian_signs=tuple(signs),
        local_degree=int(sum(signs)),
    )


def even_case_lines(N: int) -> list[tuple[int, ...]]:
    """Sign directions spanning the degenerate critical lines (even N).

    A direction sigma in {-1, 1}^(N-1) is critical when its number of
    minus entries n satisfies (N-1-2n)^2 = 1, i.e. n = N/2 - 1 or
    n = N/2.  Directions come in opposite pairs (sigma, -sigma) that
    span the same line; both members are returned, in
    itertools.product((1, -1), repeat=N-1) order.
    """
    if N % 2 == 1:
        raise ValueError("the line structure exists only for even N")
    _check_star_size(N)
    return _sign_patterns(N - 1, (N // 2 - 1, N // 2))
