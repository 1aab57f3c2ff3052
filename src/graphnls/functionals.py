"""Action, energy, mass and the not-a-ground-state comparison.

All quadratic terms use the assembled forms, and the degree-(2*mu+2)
term uses mass-matrix quadrature paired against the nonlinearity, so
the reported action, energy and Nehari residual satisfy their algebraic
identities exactly in the discrete setting (not just to O(h^2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .discrete import DiscreteField, KirchhoffOperator, positive_power
from .discrete import assemble  # unused; bench/tracer.py wraps it by this name
from .errors import NotConverged
from .profiles import beta

if TYPE_CHECKING:  # solve imports this module to fill in each result's report
    from .solve import BoundStateResult


@dataclass(frozen=True)
class FunctionalReport:
    """Scalar functionals of one state at one frequency shift."""

    lam: float
    mass: float
    kinetic: float
    potential: float
    action: float
    energy: float
    nehari_residual: float


def nonlinearity(mu: float, v):
    """f(u) = (u+)^(2*mu+1) at each node."""
    return positive_power(v, 2.0 * mu + 1.0)


def nonlinearity_slope(mu: float, v):
    """f'(u) = (2*mu+1) * (u+)^(2*mu) at each node."""
    return (2.0 * mu + 1.0) * positive_power(v, 2.0 * mu)


def evaluate_functionals(
    op: KirchhoffOperator, mu: float, u: DiscreteField
) -> FunctionalReport:
    """Mass, action, energy and Nehari residual of a discrete state.

    The potential term integrates (u+)^(2*mu+2), the antiderivative
    pairing of the positive-part nonlinearity; for nonnegative states
    this is the usual (2*mu+2)-norm.  action = energy + (lam/2)*mass
    and nehari_residual = kinetic + lam*mass - potential hold exactly.
    """
    if u.mesh is not op.mesh:
        raise ValueError("the state is not on the operator's mesh")
    v = u.values
    kinetic = float(v @ (op.stiffness @ v))
    mass = float(v @ (op.mass @ v))
    potential = float(v @ (op.mass @ nonlinearity(mu, v)))
    return _report(op.lam, mu, mass, kinetic, potential)


def _report(
    lam: float, mu: float, mass: float, kinetic: float, potential: float
) -> FunctionalReport:
    """The report with these terms: energy = kinetic/2 - potential/(2*mu+2),
    action = energy + (lam/2)*mass, nehari_residual = kinetic + lam*mass
    - potential."""
    energy = 0.5 * kinetic - potential / (2.0 * mu + 2.0)
    return FunctionalReport(
        lam=lam,
        mass=mass,
        kinetic=kinetic,
        potential=potential,
        action=energy + 0.5 * lam * mass,
        energy=energy,
        nehari_residual=kinetic + lam * mass - potential,
    )


@lru_cache(maxsize=None)
def soliton_reference(mu: float) -> FunctionalReport:
    """Full-line soliton functionals at lam = 1 in closed form, cached.

    With q = 1/mu, the substitution y = mu*x turns each integral of a
    power of phi (and of phi' = -phi*tanh(mu*x)) into a Beta function:
    mass = (mu+1)^q/mu * B(1/2, q), kinetic = (mu+1)^q/mu * B(3/2, q)
    and potential = (mu+1)^(1+q)/mu * B(1/2, 1+q).

    The action is positive for every mu; the energy is negative exactly
    when mu < 2 (it vanishes at mu = 2 and turns positive after), so
    the sign assertion is restricted accordingly.
    """
    mu = float(mu)
    if mu < 0.5:
        raise ValueError("reference constants need mu >= 0.5")
    q = 1.0 / mu
    mass = (mu + 1.0) ** q / mu * beta(0.5, q)
    kinetic = (mu + 1.0) ** q / mu * beta(1.5, q)
    potential = (mu + 1.0) ** (1.0 + q) / mu * beta(0.5, 1.0 + q)
    ref = _report(1.0, mu, mass, kinetic, potential)
    if not ref.action > 0.0:
        raise AssertionError(f"soliton action must be positive, got {ref.action}")
    if mu < 2.0 and not ref.energy < 0.0:
        raise AssertionError(f"soliton energy must be negative for mu < 2, got {ref.energy}")
    return ref


def normalized_ratios(
    result: BoundStateResult, weight: float
) -> tuple[float, float, float | None]:
    """diagnostics.csv's mass_ratio, action_ratio and correction_rate: mass
    over lam^(1/mu - 1/2), action over lam^(1/mu + 1/2), each also over
    weight times the soliton's, and the correction norm (None if unset)
    times lam^(-1/4 - 1/(2 mu))."""
    mu, lam, rep = result.mu, result.lam, result.functionals
    ref = soliton_reference(mu)
    corr = result.correction_norm
    return (
        rep.mass / (lam ** (1.0 / mu - 0.5) * weight * ref.mass),
        rep.action / (lam ** (1.0 / mu + 0.5) * weight * ref.action),
        None if corr is None else corr * lam ** (-0.25 - 1.0 / (2.0 * mu)),
    )


# how far past a reference level the normalized action, and the
# normalized energy in units of the soliton's, must lie to count as
# exceeding it
_GAP_MARGIN = 0.1


@dataclass(frozen=True)
class GroundStateGap:
    """Normalized functionals of a state against ground-state bounds.

    weight is the sum of degree/2 over the peaks; the normalized action
    tends to weight * (soliton action), which beats the ground-state
    level whenever weight > 1.  The energy comparison only discriminates
    for mu < 2, the mass comparison only for mu = 2, and for mu > 2 the
    constrained energy is unbounded below so the flag is unconditional.
    """

    mu: float
    weight: float
    normalized_action: float
    action_reference: float
    action_exceeds: bool
    normalized_energy: float | None
    energy_reference: float | None
    energy_exceeds: bool | None
    mass: float
    mass_reference: float
    mass_exceeds: bool
    not_ground_state: bool


def ground_state_gap(result: BoundStateResult, weight: float) -> GroundStateGap:
    """Compare a converged state against the ground-state levels.

    The state's mu and functionals are the ones newton_solve recorded
    with it, and the references are taken at that mu; normalization
    divides action and energy by lam^(1/mu + 1/2).  No minimization is
    performed; the references are the full-line soliton levels, which
    bound the ground state from above.
    """
    if not result.converged:
        raise NotConverged("ground-state comparison needs a converged result")
    if weight < 0.5:
        raise ValueError("weight must be at least 1/2")
    mu = result.mu
    rep = result.functionals
    ref = soliton_reference(mu)

    scale = result.lam ** (1.0 / mu + 0.5)
    norm_action = rep.action / scale
    action_exceeds = norm_action > (1.0 + _GAP_MARGIN) * ref.action

    if mu < 2.0:
        power = (2.0 + mu) / (2.0 - mu)
        energy_ref = weight**power * ref.energy
        norm_energy = rep.energy / scale
        energy_exceeds = norm_energy > energy_ref + _GAP_MARGIN * abs(ref.energy)
    else:
        energy_ref = None
        norm_energy = None
        energy_exceeds = None

    mass_exceeds = rep.mass > ref.mass

    if mu < 2.0:
        flag = action_exceeds and bool(energy_exceeds)
    elif mu == 2.0:
        flag = mass_exceeds
    else:
        flag = True

    return GroundStateGap(
        mu=mu,
        weight=weight,
        normalized_action=norm_action,
        action_reference=ref.action,
        action_exceeds=action_exceeds,
        normalized_energy=norm_energy,
        energy_reference=energy_ref,
        energy_exceeds=energy_exceeds,
        mass=rep.mass,
        mass_reference=ref.mass,
        mass_exceeds=mass_exceeds,
        not_ground_state=flag,
    )
