"""Acceptance suite: one test per shipped criterion.

Each test runs the corresponding check from graphnls.acceptance, prints its
pass/fail line, and asserts the verdict.  Tolerances are pinned inside
graphnls.acceptance; expensive sweeps are cached and shared across tests.
"""

import os
import time

import pytest

import graphnls.solve
from graphnls import acceptance
from graphnls.errors import SolveFailure


def _run(cid: int) -> None:
    res = acceptance.run_criterion(cid)
    print(res.line())
    assert res.passed, res.line()


def test_criterion_1_kernel_dimension_and_gap():
    # N-star linearization at the stationary state: N-1 near-zero eigenvalues
    # (|.| < 1e-3), next one beyond 1e-2, eigenvectors correlate > 0.999 with
    # the sign-pattern kernel modes.  N in 2..5, lam = 1, mu = 1.
    _run(1)


def test_criterion_2_odd_star_degree_count():
    # Odd N in {3,5,7,9}, eps = 0.3: nondegenerate critical points of the
    # perturbed reduced energy match the closed-form count and total degree
    # (-1)^((N-1)/2) * binom(N-1, (N-1)/2).
    _run(2)


def test_criterion_3_even_star_degenerate_lines():
    # Even N in {4,6}: no isolated critical points; 2 * binom(N-1, N/2)
    # degenerate critical directions, gradient zero along each line.
    _run(3)


def test_criterion_4_tripod_positive_peaked_states():
    # Tripod sweep lam = 25..400 seeded at the peaked ansatz: Newton converges
    # to a positive state whose maximum sits at the peak vertex (within one
    # mesh cell) for every lam.
    _run(4)


def test_criterion_5_tripod_mass_asymptotics():
    # mass(u_lam) / (sqrt(lam) * L * mass_ref) -> 1 monotonically along the
    # tripod sweep; final ratio within 5 percent.
    _run(5)


def test_criterion_6_kernel_correction_decay():
    # Kernel-component correction rate decays strictly along the sweep once
    # normalized by lam^(3/4).
    _run(6)


def test_criterion_7_double_tripod_two_peaks():
    # Two-peak state on the double tripod: converges along the schedule,
    # final mass within 7 percent of sqrt(lam) * 3 * mass_ref, both peak
    # offsets within one mesh cell.
    _run(7)


def test_criterion_8_not_ground_state():
    # Tripod state at lam = 400, weight 1.5: normalized action lands in
    # [1.35, 1.65] * reference and every ground-state test flags it; mu = 2
    # variant flags on mass alone.
    _run(8)


def test_criterion_9_discretization_oracles():
    # Mesh-halving error factors >= 3.5 against the exact sampled star state,
    # resolvent adjointness to 1e-10, Jacobian matches central differences to
    # 1e-5 relative.
    _run(9)


def test_criteria_5_and_6_fail_on_a_sweep_with_an_unconverged_shift(monkeypatch):
    # every Jacobian at lam=50 fails to factor: that shift ends singular,
    # and its seed state's ratio and rate must not pass for a solution
    shifts = []
    real_newton = graphnls.solve.newton_solve
    real_factor = graphnls.solve.CondensedFactor

    def newton(op, u0, cfg):
        shifts.append(op.lam)
        return real_newton(op, u0, cfg)

    def factor(bands):
        if shifts[-1] == 50.0:
            raise SolveFailure("planted zero pivot")
        return real_factor(bands)

    monkeypatch.setattr(graphnls.solve, "newton_solve", newton)
    monkeypatch.setattr(graphnls.solve, "CondensedFactor", factor)
    acceptance._tripod_sweep.cache_clear()
    try:
        _, results = acceptance._tripod_sweep()
        assert [res.termination for res in results][:2] == ["converged", "singular"]
        for cid in (5, 6):
            res = acceptance.run_criterion(cid)
            assert not res.passed, res.line()
    finally:
        # the planted sweep must not be the one the other criteria read
        acceptance._tripod_sweep.cache_clear()


def test_run_all_reports_every_criterion():
    results = acceptance.run_all()
    assert [r.cid for r in results] == list(range(1, 10))
    for res in results:
        print(res.line())
        assert res.passed


def test_unknown_criteria_are_rejected_before_any_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(acceptance, "criterion_2", lambda: ran.append(2))
    with pytest.raises(ValueError, match="no criterion 0"):
        acceptance.run_all([0, 2])
    with pytest.raises(ValueError, match="no criterion 12"):
        acceptance.run_all([2, 12])
    assert ran == []


def test_run_criterion_calls_the_current_binding(monkeypatch):
    # tracing rebinds acceptance.criterion_k, and run_criterion must honor it
    stub = acceptance.CriterionResult(3, acceptance._NAMES[3], True, "stub")
    monkeypatch.setattr(acceptance, "criterion_3", lambda: stub)
    assert acceptance.run_criterion(3) is stub


@pytest.fixture
def no_child_left():
    """Fails the test if run_all left a child process behind."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("criteria", [None, [2, 3], [7], [1, 9]])
def test_run_all_matches_the_criteria_run_in_process(no_child_left, criteria):
    wanted = range(1, 10) if criteria is None else criteria
    expected = [acceptance.run_criterion(cid) for cid in wanted]
    assert acceptance.run_all(criteria) == expected


def _refuse_to_fork():
    raise OSError("no process to spare")


@pytest.mark.parametrize("fork", [None, _refuse_to_fork])
def test_run_all_without_a_fork_runs_every_criterion_here(
    no_child_left, monkeypatch, fork
):
    # no os.fork (Windows), or one that fails
    if fork is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    expected = [acceptance.run_criterion(cid) for cid in (3, 7)]
    assert acceptance.run_all([3, 7]) == expected


def test_run_all_raises_what_a_newton_criterion_raised(no_child_left, monkeypatch):
    def fail():
        raise RuntimeError("x")

    monkeypatch.setattr(acceptance, "criterion_7", fail)
    with pytest.raises(RuntimeError, match="^x$"):
        acceptance.run_all([3, 7])


def test_run_all_names_the_status_of_a_child_that_died(no_child_left, monkeypatch):
    monkeypatch.setattr(acceptance, "criterion_7", lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="criteria 7 exited with status 3"):
        acceptance.run_all([3, 7])


def test_run_all_stops_the_child_when_the_caller_raises(no_child_left, monkeypatch):
    def fail():
        raise RuntimeError("in the caller")

    monkeypatch.setattr(acceptance, "criterion_3", fail)
    monkeypatch.setattr(acceptance, "criterion_7", lambda: time.sleep(60))
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="in the caller"):
        acceptance.run_all([3, 7])
    # the child was killed, not waited for
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize(
    "criteria, message",
    [((), "no criteria requested"), ([0, 2, 7], "no criterion 0")],
)
def test_run_all_refuses_a_bad_request_before_forking(
    no_child_left, monkeypatch, criteria, message
):
    def refuse():
        raise AssertionError("forked for a refused request")

    monkeypatch.setattr(os, "fork", refuse)
    with pytest.raises(ValueError, match=message):
        acceptance.run_all(criteria)
