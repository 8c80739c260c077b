"""Independent checks of the program's numbers.

``reference_terminal`` integrates the full (4n+1)-dimensional system with
scipy's DOP853 at rtol 1e-12, piecewise between activation days, through the
program's public ``full_system_rhs``.  ``true_fixed_point_residual`` recomputes
the closed-form control from a solver report with the public ``optimal_u``.
"""

from __future__ import annotations

import numpy as np


def reference_terminal(dynamics, config, u: float) -> np.ndarray:
    """Terminal ``[P, E_1..n, I_1..n, R_1..n]`` under a constant control ``u``.

    Inside one piece the set of active strains is fixed.  At each activation
    day the strain's susceptible pool is re-synchronised with its algebraic
    value ``P - E - I - R`` (an inactive strain's pool is frozen by the
    right-hand side while P still moves) and its seed is moved out of it.
    """
    from scipy.integrate import solve_ivp

    params = config.strain_params()
    n = len(params)
    p0 = config.population
    x = np.concatenate(([p0], np.full(n, p0), np.zeros(3 * n)))
    days = sorted({s.activation_day for s in config.strains} | {config.horizon})
    t = config.start
    for stop in days:
        if stop > t:
            t_piece = t

            def rhs(_t, y, t_piece=t_piece):
                parts = dynamics.full_system_rhs(
                    y[0], y[1 : n + 1], y[n + 1 : 2 * n + 1],
                    y[2 * n + 1 : 3 * n + 1], y[3 * n + 1 :],
                    params, u, t=t_piece,
                )
                return np.concatenate(([parts[0]], *parts[1:]))

            sol = solve_ivp(
                rhs, (t, stop), x, method="DOP853",
                rtol=1e-12, atol=1e-12 * p0,
            )
            if not sol.success:
                raise RuntimeError(f"reference integration failed: {sol.message}")
            x = sol.y[:, -1].copy()
            t = stop
        for j, s in enumerate(config.strains):
            if s.activation_day == t:
                E, I, R = x[1 + n + j], x[1 + 2 * n + j], x[1 + 3 * n + j]
                x[1 + j] = x[0] - E - I - R
                x[1 + n + j] += s.seed_exposed
                x[1 + 2 * n + j] += s.seed_infected
                x[1 + 3 * n + j] += s.seed_removed
                x[1 + j] -= s.seed_exposed + s.seed_infected + s.seed_removed
    return np.concatenate(([x[0]], x[1 + n :]))


def terminal_of(traj) -> np.ndarray:
    """Terminal ``[P, E, I, R]`` of a program trajectory, in the same layout."""
    return np.concatenate(([traj.P[-1]], traj.E[-1], traj.I[-1], traj.R[-1]))


def max_rel_err(got: np.ndarray, ref: np.ndarray, population: float) -> float:
    """Largest gap between the two terminal states, as a share of P(0)."""
    return float(np.max(np.abs(got - ref)) / population)


def true_fixed_point_residual(control, report, params, costs) -> float:
    """``max_k |optimal_u(state_k, costate_k) - u_k|`` over a solver report."""
    traj = report.trajectory
    costates = report.costates
    u = report.schedule.u
    worst = 0.0
    for k in range(traj.grid.n_points):
        formula = control.optimal_u(traj.state_at(k), costates.state_at(k), params, costs)
        worst = max(worst, abs(formula - float(u[k])))
    return worst
