"""Reduced cubic energy: identities, critical points, degenerate lines,
and its link to the discrete action of the PDE."""

import itertools
import math

import numpy as np
import pytest

from graphnls import (
    DiscreteField,
    assemble,
    build_graph,
    change_of_variables_matrix,
    enumerate_critical_points,
    evaluate_functionals,
    even_case_lines,
    perturbed_gradient_hessian,
    reduced_cubic_coefficient,
    reduced_energy,
    sample_star_state,
    star_neighborhood,
    uniform_mesh,
)
from graphnls.acceptance import _star_description
from graphnls.profiles import sample_kernel_modes


@pytest.mark.parametrize("N", [3, 4, 5, 7])
def test_change_of_variables_identity(N):
    A = change_of_variables_matrix(N)
    assert abs(np.linalg.det(A)) > 1e-12
    rng = np.random.default_rng(N)
    for _ in range(10):
        b = rng.standard_normal(N - 1)
        x = A @ b  # the diagonal cubic sum x^3 - (sum x)^3 at x = A b
        assert reduced_energy(N, b) == pytest.approx(
            np.sum(x**3) - np.sum(x) ** 3, rel=1e-12, abs=1e-12
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
    with pytest.raises(ValueError, match="expected 3 coefficients for N=4"):
        reduced_energy(4, [1.0, 2.0])
    with pytest.raises(ValueError, match="expected 3 entries for N=4"):
        perturbed_gradient_hessian(4, 0.1, [1.0, 2.0])


@pytest.mark.parametrize("N, eps", [(3, 0.4), (5, 0.3), (6, 0.25)])
def test_gradient_and_hessian_match_finite_differences(N, eps):
    def value(x):
        # the diagonal cubic sum x^3 - (sum x)^3, perturbed
        return np.sum(x**3) - np.sum(x) ** 3 - 3.0 * eps**2 * np.sum(x)

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


def test_stacked_points_give_each_point_s_gradient_and_hessian():
    x = np.random.default_rng(7).uniform(-1.0, 1.0, size=(3, 2, 4))
    grad, hess = perturbed_gradient_hessian(5, 0.3, x)
    assert grad.shape == (3, 2, 4) and hess.shape == (3, 2, 4, 4)
    for i, j in np.ndindex(3, 2):
        g, h = perturbed_gradient_hessian(5, 0.3, x[i, j])
        assert g.tobytes() == grad[i, j].tobytes()
        assert h.tobytes() == hess[i, j].tobytes()
    with pytest.raises(ValueError, match="expected 4 entries for N=5"):
        perturbed_gradient_hessian(5, 0.3, x[..., :3])


def test_tripod_critical_points_closed_form():
    rep = enumerate_critical_points(3, 0.5)
    assert rep.N == 3 and rep.eps == 0.5
    pts = {tuple(round(c, 12) for c in p) for p in rep.critical_points}
    assert pts == {(0.5, -0.5), (-0.5, 0.5)}
    assert rep.hessian_signs == (-1, -1)
    assert rep.local_degree == -2


def _newton_zeros_every_row(N, starts):
    """Reference sweep: batched Newton on the perturbed gradient at
    eps = 1, stepping every start 60 times, converged or not."""
    x = np.array(starts, dtype=float)
    idx = np.arange(N - 1)
    for _ in range(60):
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
    [
        (3, 2, -2),
        (5, 6, 6),
        (7, 20, -20),
        (9, 70, 70),
        (11, 252, -252),
        (13, 924, 924),
    ],
)
def test_odd_star_counts_and_degrees(N, count, degree):
    rep = enumerate_critical_points(N, 0.3)
    assert len(rep.critical_points) == count
    assert count == math.comb(N - 1, (N - 1) // 2)
    assert rep.local_degree == degree
    # the points are the sign patterns with (N-1)/2 minus entries, scaled
    # by eps, in product order: the filter over every pattern, led by +1
    patterns = [
        p
        for p in itertools.product((1, -1), repeat=N - 1)
        if p.count(-1) == (N - 1) // 2
    ]
    assert rep.critical_points == tuple(tuple(0.3 * s for s in p) for p in patterns)


@pytest.mark.parametrize("N", [3, 5, 7, 9])
def test_newton_from_random_starts_finds_only_the_closed_form_points(N):
    # a numeric cross-check of the algebra that leaves nothing else
    # critical: every zero Newton reaches is one of the report's points
    points = set(enumerate_critical_points(N, 1.0).critical_points)
    starts = np.random.default_rng(41).uniform(-2.0, 2.0, size=(64, N - 1))
    zeros = _newton_zeros_every_row(N, starts)
    assert len(zeros) > 0
    for z in zeros:
        key = tuple(float(c) for c in np.round(z))
        assert key in points
        assert np.allclose(z, key, rtol=0.0, atol=1e-9)


def test_critical_points_scale_linearly_with_eps():
    a = enumerate_critical_points(5, 0.2)
    b = enumerate_critical_points(5, 0.7)
    pa = {tuple(round(c / 0.2, 9) for c in p) for p in a.critical_points}
    pb = {tuple(round(c / 0.7, 9) for c in p) for p in b.critical_points}
    assert pa == pb


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError, match="degenerate into lines for even N"):
        enumerate_critical_points(4, 0.3)
    with pytest.raises(ValueError):
        enumerate_critical_points(1, 0.3)
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            enumerate_critical_points(5, eps)


@pytest.mark.parametrize("N, count", [(2, 2), (4, 6), (6, 20), (12, 924)])
def test_even_case_line_counts(N, count):
    lines = even_case_lines(N)
    assert len(lines) == count
    assert count == 2 * math.comb(N - 1, N // 2)
    # in product order: the filter over every sign pattern, led by +1
    patterns = itertools.product((1, -1), repeat=N - 1)
    assert lines == [p for p in patterns if (N - 1 - 2 * p.count(-1)) ** 2 == 1]
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
    with pytest.raises(ValueError, match="exists only for even N"):
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


def _action_polynomial(op, mu, w, z):
    """Coefficients in s of the discrete action of w + s*z, s^0 first.

    For integer mu the potential term v.M.v^p, p = 2*mu+1, is a
    polynomial in s wherever v = w + s*z is positive: its s^m
    coefficient is w.M.(C(p,m) w^(p-m) z^m) + z.M.(C(p,k) w^(p-k) z^k),
    k = m-1.
    """
    p = int(2 * mu + 1)
    K, M, lam = op.stiffness, op.mass, op.lam
    out = np.zeros(p + 2)
    out[:3] = [
        0.5 * (w @ (K @ w)) + 0.5 * lam * (w @ (M @ w)),
        z @ (K @ w) + lam * (z @ (M @ w)),
        0.5 * (z @ (K @ z)) + 0.5 * lam * (z @ (M @ z)),
    ]
    for m in range(p + 2):
        potential = 0.0
        if m <= p:
            potential += w @ (M @ (math.comb(p, m) * w ** (p - m) * z**m))
        if m >= 1:
            k = m - 1
            potential += z @ (M @ (math.comb(p, k) * w ** (p - k) * z**k))
        out[m] -= potential / (p + 1)
    return out


# kernel coefficients c per star size, each with reduced_energy(N, c) != 0
KERNEL_COEFFS = {
    3: [(0.0, 1.0), (0.5, -0.25), (-0.3, 0.8)],
    5: [(0.0, 1.0, 0.0, 0.0), (0.5, -0.25, 0.1, 0.1), (-0.3, 0.8, -0.6, -0.6)],
}
# With h*sqrt(lam) = 1/400 the s^3 coefficient differed from the reduced
# energy's by 1.56e-6 (mu = 1) and 2.98e-6 (mu = 2), relative, for every
# N, c and lam here; it fell 4-fold with each halving of h (6.25e-6 and
# 1.19e-5 at 1/200; 3.9e-7 and 7.4e-7 at 1/800)
REDUCTION_RTOL = 4e-6


@pytest.mark.parametrize("lam", [4.0, 16.0])
@pytest.mark.parametrize("N", sorted(KERNEL_COEFFS))
@pytest.mark.parametrize("mu", [1.0, 2.0])
def test_the_cubic_term_of_the_action_is_the_reduced_energy(mu, N, lam):
    # along the kernel directions Z(c) at the star state W0, the s^3
    # coefficient of the action of W0 + s*Z(c) is the reduced cubic
    root = math.sqrt(lam)
    g = build_graph(_star_description(N, 30.0 / root))
    mesh = uniform_mesh(g, 1.0 / (400.0 * root))
    op = assemble(g, mesh, lam)
    star = star_neighborhood(g, "c")
    w = sample_star_state(mesh, star, lam, mu)
    modes = sample_kernel_modes(mesh, star, lam, mu)
    for c in KERNEL_COEFFS[N]:
        z = sum(ck * mode for ck, mode in zip(c, modes))
        coeffs = _action_polynomial(op, mu, w, z)
        # the polynomial is the library's action where w + s*z > 0
        for s in (-0.05, 0.05):
            v = w + s * z
            assert v.min() > 0.0
            action = evaluate_functionals(op, mu, DiscreteField(mesh, v)).action
            assert np.polynomial.polynomial.polyval(s, coeffs) == pytest.approx(
                action, rel=1e-12
            )
        energy = reduced_energy(N, c)
        assert abs(energy) > 0.1
        expect = -reduced_cubic_coefficient(mu) * energy * lam ** (1.0 / mu + 0.5)
        assert coeffs[3] == pytest.approx(expect, rel=REDUCTION_RTOL), c
