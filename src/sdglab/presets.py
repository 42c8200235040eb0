"""Built-in benchmark problems used by the test harness and the docs.

``analytic_interval_problem`` has the closed-form value x(1-x)/2 at unit
diffusion, ``two_action_game`` is a genuine 2x2 saddle with drift and
discount, and ``holder_game`` perturbs its running cost by a Hoelder
bump to slow down the penalty-constant convergence.
"""

from __future__ import annotations

import math

from .coefficients import ScalarField, SumField, const_matrix, const_scalar, const_vector
from .model import ActionSets, DomainSpec, GameProblem
from .pde import PucciParams

__all__ = [
    "analytic_interval_problem",
    "two_action_game",
    "holder_game",
    "default_pucci",
]

SQRT2 = math.sqrt(2.0)


def analytic_interval_problem() -> GameProblem:
    """Singleton actions on (0, 1): a = 1, f = 1, g = 0, value x(1-x)/2."""
    return GameProblem(
        actions=ActionSets(("a0",), ("b0",)),
        domain=DomainSpec("box", 1, (0.0,), (1.0,)),
        sigma=((const_matrix([[SQRT2]]),),),
        b=((const_vector([0.0]),),),
        c=((const_scalar(0.0),),),
        f=((const_scalar(1.0),),),
        g=const_scalar(0.0),
        K0=SQRT2,
        delta=0.5,
        delta1=0.5,
        K1=1.0,
        d=1,
        d1=1,
    )


def two_action_game(
    cost_slope: float = 1.2,
    drift_alpha: float = 0.3,
    drift_beta: float = 0.1,
    coupling: float = 0.35,
    discount: float = 0.2,
) -> GameProblem:
    """2x2 drift game on (0, 1) whose saddle switches in space for both sides.

    The leader's running cost slopes opposite ways for its two actions, so
    the optimal leader action flips in the interior; the responder's cost
    coupling depends on the action-pair parity, so the optimal response
    flips along with it.  Boundary payoff is x.
    """
    sigma_row = const_matrix([[SQRT2]])
    sigma = tuple(tuple(sigma_row for _ in range(2)) for _ in range(2))
    b = tuple(
        tuple(
            const_vector(
                [
                    (drift_alpha if ia == 0 else -drift_alpha)
                    + (drift_beta if ib == 0 else -drift_beta)
                ]
            )
            for ib in range(2)
        )
        for ia in range(2)
    )
    c = tuple(tuple(const_scalar(discount) for _ in range(2)) for _ in range(2))
    f = []
    for ia in range(2):
        row = []
        for ib in range(2):
            cc = coupling if (ia + ib) % 2 == 0 else -coupling
            if ia == 0:
                row.append(ScalarField("affine", (0.45 + cc, -cost_slope)))
            else:
                row.append(ScalarField("affine", (0.45 - cost_slope + cc, cost_slope)))
        f.append(tuple(row))
    return GameProblem(
        actions=ActionSets(("a0", "a1"), ("b0", "b1")),
        domain=DomainSpec("box", 1, (0.0,), (1.0,)),
        sigma=sigma,
        b=b,
        c=c,
        f=tuple(f),
        g=ScalarField("affine", (0.0, 1.0)),
        K0=2.2,
        delta=0.5,
        delta1=0.5,
        K1=1.0,
        d=1,
        d1=1,
    )


def holder_game(exponent: float = 0.4, amplitude: float = -6.0) -> GameProblem:
    """The 2x2 game with a Hoelder cost valley at the center.

    The negative bump makes the value convex near the center with
    curvature of order |amplitude|, so the curvature penalty binds over
    several doublings of K before the gap collapses to zero.
    """
    base = two_action_game()
    bump = ScalarField("holder", (0.0, amplitude, exponent, 0.5))
    f = tuple(
        tuple(SumField((base.f[ia][ib], bump)) for ib in range(2)) for ia in range(2)
    )
    return GameProblem(
        actions=base.actions,
        domain=base.domain,
        sigma=base.sigma,
        b=base.b,
        c=base.c,
        f=f,
        g=base.g,
        K0=8.0,
        delta=base.delta,
        delta1=base.delta1,
        K1=base.K1,
        d=1,
        d1=1,
    )


def default_pucci(d: int = 1) -> PucciParams:
    return PucciParams.build(d)
