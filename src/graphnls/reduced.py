"""The cubic reduced energy on kernel coefficients and its critical set.

For an N-star the leading finite-dimensional obstruction to continuing
the peaked state is a homogeneous cubic in the N-1 kernel coefficients.
After a linear change of variables it reads

    sum_j x_j^3 - (sum_j x_j)^3,

whose gradient vanishes only at the origin when N is odd.  A small
symmetric perturbation splits the origin into finitely many
nondegenerate critical points whose Hessian signs sum to the local
topological degree; for even N the critical set degenerates into
straight lines and no degree is defined.
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


# Both critical-set searches walk all 2^(N-1) sign patterns, and the
# odd one runs Newton from two starts per pattern led by +1: about 1 s
# at N=13 and 5 s at N=15 on one core, about five times more for each
# step of 2 in N
MAX_N = 13


def _check_star_size(N: int) -> None:
    if N < 2:
        raise ValueError("N must be >= 2")
    if N > MAX_N:
        raise ValueError(
            f"N must be <= {MAX_N}, got {N}: the search walks all "
            "2^(N-1) sign patterns"
        )


# Steps of the Newton sweep.  The cap decides the zero set: of N = 9's
# 256 starts, 70 converge within 56 steps, 80 within 58, 92 within 59
# and 108 within 60; of N = 13's 4096, 934 within 56 and 1535 within 60.
# Each zero found is checked against the closed form.
_NEWTON_STEPS = 60


def _newton_zeros(N: int, starts: np.ndarray) -> np.ndarray:
    """Batched Newton on the perturbed gradient at eps = 1.

    A start stops once its gradient norm is below 1e-12; the rest keep
    stepping, up to _NEWTON_STEPS.  Returns the points where it converged.
    """
    x = np.array(starts, dtype=float)
    # the rows still stepping: their indices into x and their iterates,
    # written back to x as they stop
    run, xr = np.arange(x.shape[0]), x
    for _ in range(_NEWTON_STEPS):
        grad, hess = perturbed_gradient_hessian(N, 1.0, xr)
        going = ~(np.linalg.norm(grad, axis=1) < 1e-12)
        if not going.any():
            break
        if not going.all():
            x[run[~going]] = xr[~going]
            run, xr, grad, hess = run[going], xr[going], grad[going], hess[going]
        try:
            step = np.linalg.solve(hess, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # regularize the singular batch entries and keep going
            _diagonal(hess)[:] += 1e-12
            step = np.linalg.solve(hess, grad[..., None])[..., 0]
        xr = xr - step
        xr[~np.isfinite(xr).all(axis=1)] = np.inf
    x[run] = xr
    grad, _ = perturbed_gradient_hessian(N, 1.0, x)
    ok = np.isfinite(x).all(axis=1) & (np.linalg.norm(grad, axis=1) < 1e-12)
    return x[ok]


def _positive_starts(N: int) -> np.ndarray:
    """Newton starts for the sweep: every sign pattern in {-1, 1}^(N-1)
    whose first entry is +1, each at scale 1 then 1/2."""
    tails = np.array(list(itertools.product((1.0, -1.0), repeat=N - 2)))
    patterns = np.hstack([np.ones((len(tails), 1)), tails])
    return np.stack([patterns, 0.5 * patterns], axis=1).reshape(-1, N - 1)


def enumerate_critical_points(N: int, eps: float = 0.35) -> ReducedEnergyReport:
    """All critical points of the perturbed cubic, found two ways.

    Closed form: sign patterns with exactly (N-1)/2 minus entries,
    scaled by eps.  Verification: the gradient vanishes there, and a
    Newton sweep started from every sign pattern finds nothing else.
    The local degree is the sum of Hessian determinant signs.

    The perturbed cubic is homogeneous: its critical points at eps are
    eps times those at eps = 1, and the Hessian there is eps times the
    one at eps = 1, with the same determinant signs.  Both searches
    therefore run at eps = 1, and eps only scales the points found.
    """
    if N % 2 == 0:
        raise ValueError("critical points degenerate into lines for even N")
    _check_star_size(N)  # for odd N, N >= 2 is N >= 3
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")

    d = N - 1
    points = np.array(
        [
            pattern
            for pattern in itertools.product((1.0, -1.0), repeat=d)
            if sum(1 for s in pattern if s < 0) == d // 2
        ]
    )
    grad, hess = perturbed_gradient_hessian(N, 1.0, points)
    off = np.linalg.norm(grad, axis=1) >= 1e-10
    if off.any():
        x = points[np.argmax(off)]
        raise AssertionError(f"closed-form point {x} is not critical")
    signs = [int(math.copysign(1.0, det)) for det in np.linalg.det(hess)]

    # independent sweep: Newton from every sign pattern at two scales.  The
    # gradient is even in x and the Hessian odd, and pivoting and rounding
    # are symmetric in sign, so Newton from -x0 steps through exactly the
    # negated iterates: the patterns led by -1 are the mirror images
    zeros = _newton_zeros(N, _positive_starts(N))
    zeros = np.concatenate([zeros, -zeros])
    # each zero must round to a closed-form point and lie next to it
    keys = np.round(zeros)
    expected = (
        (np.abs(keys) == 1.0).all(axis=1)
        & ((keys < 0.0).sum(axis=1) == d // 2)
        & np.isclose(zeros, keys, atol=1e-9).all(axis=1)
    )
    if not expected.all():
        unexpected = zeros[np.argmin(expected)]
        raise AssertionError(f"Newton sweep found an unexpected zero {unexpected}")

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
    span the same line; both members are returned.
    """
    if N % 2 == 1:
        raise ValueError("the line structure exists only for even N")
    _check_star_size(N)
    out = []
    for pattern in itertools.product((1, -1), repeat=N - 1):
        n = sum(1 for s in pattern if s < 0)
        if (N - 1 - 2 * n) ** 2 == 1:
            out.append(pattern)
    return out
