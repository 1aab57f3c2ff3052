"""Reduced cubic energy: identities, critical points, degenerate lines."""

import math

import numpy as np
import pytest

from graphnls import (
    change_of_variables_matrix,
    enumerate_critical_points,
    even_case_lines,
    perturbed_gradient_hessian,
    reduced_energy,
    reduced_energy_diagonal,
)
from graphnls import reduced
from graphnls.errors import DimensionMismatch, EvenN, OddN


@pytest.mark.parametrize("N", [3, 4, 5, 7])
def test_change_of_variables_identity(N):
    A = change_of_variables_matrix(N)
    assert abs(np.linalg.det(A)) > 1e-12
    rng = np.random.default_rng(N)
    for _ in range(10):
        b = rng.standard_normal(N - 1)
        assert reduced_energy(N, b) == pytest.approx(
            reduced_energy_diagonal(N, A @ b), rel=1e-12, abs=1e-12
        )


def test_reduced_energy_is_homogeneous_cubic():
    rng = np.random.default_rng(1)
    for _ in range(10):
        b = rng.standard_normal(4)
        t = float(rng.uniform(0.2, 3.0))
        assert reduced_energy(5, t * b) == pytest.approx(
            t**3 * reduced_energy(5, b), rel=1e-12
        )


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        reduced_energy(4, [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        reduced_energy_diagonal(4, [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        perturbed_gradient_hessian(4, 0.1, [1.0, 2.0])


@pytest.mark.parametrize("N, eps", [(3, 0.4), (5, 0.3), (6, 0.25)])
def test_gradient_and_hessian_match_finite_differences(N, eps):
    def value(x):
        return reduced_energy_diagonal(N, x) - 3.0 * eps**2 * float(np.sum(x))

    rng = np.random.default_rng(10 * N)
    h = 1e-6
    for _ in range(6):
        x = rng.uniform(-1.0, 1.0, size=N - 1)
        grad, hess = perturbed_gradient_hessian(N, eps, x)
        assert np.allclose(hess, hess.T)
        for k in range(N - 1):
            step = np.zeros(N - 1)
            step[k] = h
            fd = (value(x + step) - value(x - step)) / (2.0 * h)
            assert grad[k] == pytest.approx(fd, abs=5e-8)
            gp, _ = perturbed_gradient_hessian(N, eps, x + step)
            gm, _ = perturbed_gradient_hessian(N, eps, x - step)
            assert np.allclose(hess[:, k], (gp - gm) / (2.0 * h), atol=5e-8)


def test_tripod_critical_points_closed_form():
    rep = enumerate_critical_points(3, 0.5)
    assert rep.N == 3 and rep.eps == 0.5
    pts = {tuple(round(c, 12) for c in p) for p in rep.critical_points}
    assert pts == {(0.5, -0.5), (-0.5, 0.5)}
    assert rep.hessian_signs == (-1, -1)
    assert rep.local_degree == -2
    assert rep.even_case_lines is None


def _newton_zeros_every_row(N, starts, iters=60):
    """Reference sweep: batched Newton stepping every start all `iters`
    times, converged or not."""
    x = np.array(starts, dtype=float)
    idx = np.arange(N - 1)
    for _ in range(iters):
        s = x.sum(axis=1)
        grad = 3.0 * x**2 - 3.0 * s[:, None] ** 2 - 3.0
        hess = np.zeros((x.shape[0], N - 1, N - 1))
        hess[:] = -6.0 * s[:, None, None]
        hess[:, idx, idx] += 6.0 * x
        try:
            step = np.linalg.solve(hess, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            hess[:, idx, idx] += 1e-12
            step = np.linalg.solve(hess, grad[..., None])[..., 0]
        x = x - step
        x[~np.isfinite(x).all(axis=1)] = np.inf
    s = x.sum(axis=1)
    grad = 3.0 * x**2 - 3.0 * s[:, None] ** 2 - 3.0
    ok = np.isfinite(x).all(axis=1) & (np.linalg.norm(grad, axis=1) < 1e-12)
    return x[ok]


@pytest.mark.parametrize(
    "N, count, degree",
    [(3, 2, -2), (5, 6, 6), (7, 20, -20), (9, 70, 70), (11, 252, -252)],
)
def test_odd_star_counts_and_degrees(monkeypatch, N, count, degree):
    sweeps, reports = [], []

    def recording(newton):
        def run(N, starts):
            sweeps.append(newton(N, starts))
            return sweeps[-1]

        return run

    for newton in (reduced._newton_zeros, _newton_zeros_every_row):
        monkeypatch.setattr(reduced, "_newton_zeros", recording(newton))
        reports.append(enumerate_critical_points(N, 0.3))
    rep = reports[0]
    assert len(rep.critical_points) == count
    assert count == math.comb(N - 1, (N - 1) // 2)
    assert rep.local_degree == degree
    for p in rep.critical_points:
        # every point is a sign pattern scaled by eps with (N-1)/2 minuses
        assert sorted(abs(c) for c in p) == pytest.approx([0.3] * (N - 1))
        assert sum(1 for c in p if c < 0) == (N - 1) // 2
    # starts stop once converged: the same report, and the same zeros to
    # 1e-12, as stepping every start to the end
    assert reports[1] == rep
    zeros, reference = sweeps
    assert zeros.shape == reference.shape
    assert np.abs(zeros - reference).max() <= 1e-12


@pytest.mark.parametrize("N", [3, 5, 7, 9, 11])
def test_the_half_sweep_and_its_mirror_are_the_full_sweep(N):
    half = reduced._positive_starts(N)
    everything = np.concatenate([half, -half])
    # every sign pattern, each at scales 1 and 1/2
    patterns = {tuple(row) for row in np.sign(everything)}
    assert len(patterns) == 2 ** (N - 1) and len(everything) == 2**N
    assert set(np.abs(everything).ravel()) == {0.5, 1.0}
    for newton in (reduced._newton_zeros, _newton_zeros_every_row):
        full = newton(N, everything)
        zeros = newton(N, half)
        mirrored = np.concatenate([zeros, -zeros])
        assert full.shape == mirrored.shape and len(full) > 0
        assert full.tobytes() == mirrored.tobytes()


@pytest.mark.parametrize(
    "planted",
    [
        [1.0, 1.0, 1.0, 1.0],  # a sign pattern with no minus entry
        [1.0, -1.0, 1.0, 0.0],  # an entry that rounds to zero
        [1.0, -1.0, 1.0, -1.001],  # rounds to a pattern but lies off it
    ],
)
def test_newton_sweep_rejects_a_zero_off_the_closed_form(monkeypatch, planted):
    # beside the closed-form points, as a real sweep returns them
    zeros = np.array([[1.0, -1.0, 1.0, -1.0], planted, [-1.0, 1.0, -1.0, 1.0]])
    monkeypatch.setattr(reduced, "_newton_zeros", lambda N, starts: zeros)
    with pytest.raises(AssertionError, match="unexpected zero"):
        enumerate_critical_points(5, 0.3)


def test_critical_points_scale_linearly_with_eps():
    a = enumerate_critical_points(5, 0.2)
    b = enumerate_critical_points(5, 0.7)
    pa = {tuple(round(c / 0.2, 9) for c in p) for p in a.critical_points}
    pb = {tuple(round(c / 0.7, 9) for c in p) for p in b.critical_points}
    assert pa == pb


def test_enumerate_rejects_bad_input():
    with pytest.raises(EvenN):
        enumerate_critical_points(4, 0.3)
    with pytest.raises(ValueError):
        enumerate_critical_points(1, 0.3)
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            enumerate_critical_points(5, eps)


@pytest.mark.parametrize("N, count", [(2, 2), (4, 6), (6, 20)])
def test_even_case_line_counts(N, count):
    lines = even_case_lines(N)
    assert len(lines) == count
    assert count == 2 * math.comb(N - 1, N // 2)
    dir_set = {tuple(s) for s in lines}
    for sigma in lines:
        assert set(sigma) <= {-1, 1}
        assert tuple(-s for s in sigma) in dir_set
        n_minus = sum(1 for s in sigma if s < 0)
        assert (N - 1 - 2 * n_minus) ** 2 == 1


def test_even_case_lines_are_unperturbed_critical_rays():
    for sigma in even_case_lines(4):
        for t in (0.8, 1.7, -0.4):
            grad, _ = perturbed_gradient_hessian(4, 0.0, t * np.asarray(sigma, float))
            assert np.max(np.abs(grad)) < 1e-12
    with pytest.raises(OddN):
        even_case_lines(5)


def test_generic_directions_are_not_critical():
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        grad, _ = perturbed_gradient_hessian(4, 0.0, x)
        sigma = np.sign(x)
        n_minus = int(np.sum(sigma < 0))
        if (3 - 2 * n_minus) ** 2 != 1 or not np.allclose(np.abs(x), np.abs(x)[0]):
            assert np.max(np.abs(grad)) > 1e-10
