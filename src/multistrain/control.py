"""Optimal mitigation scheduling via a forward-backward sweep.

The running reward ``c1 * P - exp(c2 * u)`` trades the value of the surviving
population against an exponentially growing cost of mitigation.  Pontryagin's
principle turns the maximisation into a two-point boundary-value problem:
state forward from the initial condition, adjoint backward from zero terminal
values, and a pointwise closed form for the control in between.  The sweep
solves the fixed point ``u = F(u)`` of those three parts with Anderson mixing
until the fixed-point residual ``max|F(u) - u|`` falls below tolerance.  It
starts from nested iteration: the same fixed point solved loosely on a grid a
few times coarser, whose schedule is interpolated onto the real grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dynamics import (
    EpidemicState, StrainParams, check_control, jacobian, max_stable_dt, split,
    strain_arrays,
)
from .errors import ConfigError, DomainError, IntegrationError, SolverError
from .integrate import ControlSchedule, SeedEvent, TimeGrid, Trajectory, same_time, simulate

# Number of past residual differences the Anderson step mixes.
ANDERSON_DEPTH = 5

# Steps whose adjoint maps the backward sweep forms at once.  All of them at
# once would hold 8 strains x 14 600 steps x 33^2 doubles = 127 MB per array.
# On that sweep blocks of 64 peaked at 47 MB RSS and blocks of 256 at 63 MB,
# at about the same speed; blocks of 16 ran a 1-strain sweep 3x slower.
SWEEP_BLOCK = 64

# Step multiples tried for the coarse grid of the nested start, largest first,
# and the tolerance of the coarse solve as a multiple of the fine one.  The
# coarse schedule only seeds the fine sweep, so it need not be sharp.
COARSE_FACTORS = (10, 5, 2)
COARSE_TOL_FACTOR = 100.0


@dataclass(frozen=True)
class CostParams:
    """Weights of the running reward ``c1 * P - exp(c2 * u)``."""

    c1: float
    c2: float

    def __post_init__(self):
        if not self.c1 > 0:
            raise DomainError(f"c1 must be > 0, got {self.c1!r}")
        if not self.c2 > 0:
            raise DomainError(f"c2 must be > 0, got {self.c2!r}")


@dataclass(frozen=True)
class CostateState:
    """Adjoint variables at one time: phi_P plus per-strain phi_S/E/I/R."""

    t: float
    phi_P: float
    phi_S: np.ndarray
    phi_E: np.ndarray
    phi_I: np.ndarray
    phi_R: np.ndarray

    def __post_init__(self):
        for name in ("phi_S", "phi_E", "phi_I", "phi_R"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise DomainError(f"{name} must be one-dimensional")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        lengths = {len(self.phi_S), len(self.phi_E), len(self.phi_I), len(self.phi_R)}
        if len(lengths) != 1:
            raise DomainError("costate vectors must share one length")

    @property
    def n_strains(self) -> int:
        return len(self.phi_S)


@dataclass(frozen=True)
class CostateDerivative:
    dphi_P: float
    dphi_S: np.ndarray
    dphi_E: np.ndarray
    dphi_I: np.ndarray
    dphi_R: np.ndarray


@dataclass(frozen=True)
class CostateTrajectory:
    """Adjoint sweep recorded on the same grid as the forward trajectory."""

    grid: TimeGrid
    phi_P: np.ndarray
    phi_S: np.ndarray
    phi_E: np.ndarray
    phi_I: np.ndarray
    phi_R: np.ndarray

    def __post_init__(self):
        for name in ("phi_P", "phi_S", "phi_E", "phi_I", "phi_R"):
            getattr(self, name).setflags(write=False)

    def state_at(self, k: int) -> CostateState:
        return CostateState(
            t=self.grid.time_at(k), phi_P=float(self.phi_P[k]),
            phi_S=self.phi_S[k], phi_E=self.phi_E[k],
            phi_I=self.phi_I[k], phi_R=self.phi_R[k],
        )


@dataclass(frozen=True)
class FbsmReport:
    """Outcome of a sweep solve.

    ``trajectory`` and ``costates`` are the forward and backward passes run
    under the returned schedule, so the three parts are mutually consistent.
    ``update_history`` holds the fixed-point residual ``max|F(u) - u|`` of
    every iteration in order; ``iterations`` is its length and
    ``last_update`` its final entry, the residual of the returned schedule.
    These describe the sweep on the caller's grid only.  ``coarse_iterations``
    and ``coarse_dt`` describe the coarse solve that seeded it; they are 0
    and ``None`` when the solve started cold.
    """

    converged: bool
    objective: float
    schedule: ControlSchedule
    trajectory: Trajectory
    costates: CostateTrajectory
    update_history: tuple[float, ...]
    coarse_iterations: int = 0
    coarse_dt: float | None = None

    @property
    def iterations(self) -> int:
        return len(self.update_history)

    @property
    def last_update(self) -> float:
        return self.update_history[-1]


def running_cost(P: float, u: float, costs: CostParams) -> float:
    """Instantaneous reward rate ``c1 * P - exp(c2 * u)``."""
    if not P >= 0:
        raise DomainError(f"population must be >= 0, got {P!r}")
    check_control(u)
    return costs.c1 * P - math.exp(costs.c2 * u)


def _uniform_trapezoid(values: np.ndarray, dt: float) -> float:
    if len(values) == 1:
        return 0.0
    return float(dt * (values.sum() - 0.5 * (values[0] + values[-1])))


def objective(traj: Trajectory, costs: CostParams) -> float:
    """Total reward: trapezoid quadrature of the running cost, under the
    trajectory's own recorded control, over the grid."""
    rates = costs.c1 * traj.P - np.exp(costs.c2 * traj.u)
    return _uniform_trapezoid(rates, traj.grid.dt)


def costate_derivatives(
    state: EpidemicState,
    costate: CostateState,
    u: float,
    params: Sequence[StrainParams],
    costs: CostParams,
) -> CostateDerivative:
    """Adjoint system ``d phi / dt = -J^T phi - c1 e_P`` at a state/costate pair.

    With ``J`` from :func:`~multistrain.dynamics.jacobian` this reads

    d phi_P / dt   = -c1
    d phi_S_j / dt = (phi_S_j - phi_E_j) (1-u) beta_j I_j
    d phi_E_j / dt = sigma_j (phi_E_j - phi_I_j)
    d phi_I_j / dt = (phi_S_j - phi_E_j) (1-u) beta_j S_j
                     + phi_I_j (mu_j + gamma_j) - phi_R_j gamma_j
                     + phi_P mu_j + mu_j sum_{i != j} phi_S_i
    d phi_R_j / dt = delta_j (phi_R_j - phi_S_j)

    with S_j taken algebraically from the state.  A strain not yet seeded
    has ``I_j = 0``, so its ``phi_S_j`` stays constant until the seed.  The
    product with ``J`` is an ``einsum``: a BLAS product may fuse multiply and
    add, and then equal ``phi_S_j`` and ``phi_E_j`` no longer cancel exactly.
    """
    if state.n_strains != costate.n_strains or state.n_strains != len(params):
        raise DomainError("state, costate and parameters disagree on strain count")
    if not same_time(costate.t, state.t):
        raise DomainError(
            f"state (t={state.t!r}) and costate (t={costate.t!r}) are not simultaneous"
        )
    check_control(u)
    J = jacobian(
        state.susceptible_all()[None], state.I[None], u, strain_arrays(params)
    )[0]
    phi = np.hstack((
        costate.phi_P, costate.phi_S, costate.phi_E, costate.phi_I, costate.phi_R
    ))
    d = -np.einsum("ij,i->j", J, phi)
    d[0] -= costs.c1
    dP, dS, dE, dI, dR = split(d, state.n_strains)
    return CostateDerivative(
        dphi_P=float(dP), dphi_S=dS, dphi_E=dE, dphi_I=dI, dphi_R=dR
    )


def optimal_u(
    state: EpidemicState,
    costate: CostateState,
    params: Sequence[StrainParams],
    costs: CostParams,
) -> float:
    """Pointwise maximiser of the Hamiltonian, projected onto [0, 1].

    u* = max(0, (1/c2) ln( (1/c2) sum_j S_j I_j beta_j (phi_S_j - phi_E_j) ))

    evaluated with algebraic S_j.  A non-positive log argument yields 0;
    values above 1 are clamped.
    """
    if state.n_strains != costate.n_strains or state.n_strains != len(params):
        raise DomainError("state, costate and parameters disagree on strain count")
    total = 0.0
    for j, p in enumerate(params):
        s_j = state.P - state.E[j] - state.I[j] - state.R[j]
        total += s_j * state.I[j] * p.beta * (costate.phi_S[j] - costate.phi_E[j])
    arg = total / costs.c2
    if arg <= 0.0:
        return 0.0
    value = math.log(arg) / costs.c2
    if value <= 0.0:
        return 0.0
    return min(value, 1.0)


def _adjoint_generators(J: np.ndarray, c1: float) -> np.ndarray:
    """Augmented generators ``[[-J^T, -c1 e_P], [0, 0]]`` of the adjoint.

    Acting on ``(phi, 1)`` they give ``d phi / dt``, so the affine adjoint
    becomes linear in one more coordinate.
    """
    K, D, _ = J.shape
    A = np.zeros((K, D + 1, D + 1))
    np.negative(J.transpose(0, 2, 1), out=A[:, :D, :D])
    A[:, 0, D] = -c1
    return A


def backward_sweep(
    traj: Trajectory, params: Sequence[StrainParams], costs: CostParams
) -> CostateTrajectory:
    """Integrate the adjoint system from zero terminal values back to t0.

    Runs RK4 with time reversed on the trajectory's grid.  The adjoint is
    affine, ``d phi / dt = -J^T phi - c1 e_P``, so the step from node k to
    k-1 is the affine map ``phi_{k-1} = M_k phi_k + c_k``, held as the
    matrix ``[[M_k, c_k], [0, 1]]`` acting on ``(phi, 1)``: the RK4 stages
    applied to the identity.  Stage 1 takes ``J`` at node k, stages 2 and 3
    at the midpoint (linear interpolants of the stored state and control)
    and stage 4 at node k-1.  The maps are formed in batches of
    ``SWEEP_BLOCK`` steps, then applied in one loop.
    """
    if traj.n_strains != len(params):
        raise DomainError("trajectory and parameter list disagree on strain count")
    grid = traj.grid
    n = traj.n_strains
    N = grid.n_steps
    D = 4 * n + 1
    arrays = strain_arrays(params)

    S = traj.susceptible_matrix()
    I = traj.I
    u = traj.u
    S_mid = 0.5 * (S[:-1] + S[1:])
    I_mid = 0.5 * (I[:-1] + I[1:])
    u_mid = 0.5 * (u[:-1] + u[1:])

    h = -grid.dt
    eye = np.eye(D + 1)
    hist = np.empty((N + 1, D + 1))
    x = np.zeros(D + 1)
    x[D] = 1.0
    hist[N] = x
    for m1 in range(N, 0, -SWEEP_BLOCK):
        m0 = max(m1 - SWEEP_BLOCK, 0)
        nodes = slice(m0, m1 + 1)
        A_node = _adjoint_generators(
            jacobian(S[nodes], I[nodes], u[nodes], arrays), costs.c1
        )
        steps = slice(m0, m1)
        A_mid = _adjoint_generators(
            jacobian(S_mid[steps], I_mid[steps], u_mid[steps], arrays), costs.c1
        )
        a = A_node[1:]
        b = A_mid @ (eye + 0.5 * h * a)
        c = A_mid @ (eye + 0.5 * h * b)
        d = A_node[:-1] @ (eye + h * c)
        step_maps = eye + (h / 6.0) * (a + 2.0 * (b + c) + d)
        for m in range(m1 - 1, m0 - 1, -1):
            x = step_maps[m - m0] @ x
            hist[m] = x

    return CostateTrajectory(grid, *(part.copy() for part in split(hist, n)))


def _pointwise_formula(
    traj: Trajectory,
    costates: CostateTrajectory,
    beta_row: np.ndarray,
    costs: CostParams,
) -> np.ndarray:
    """Closed-form control at every grid node, clamped to [0, 1]."""
    contrib = beta_row * traj.susceptible_matrix() * traj.I
    total = (contrib * (costates.phi_S - costates.phi_E)).sum(axis=1)
    positive = total > 0.0
    safe = np.where(positive, total / costs.c2, 1.0)
    values = np.log(safe) / costs.c2
    return np.clip(np.where(positive, values, 0.0), 0.0, 1.0)


def _anderson_step(
    u: np.ndarray, g: np.ndarray, dU: np.ndarray, dG: np.ndarray, a: float
) -> np.ndarray:
    """Type-II Anderson update of ``u`` with residual ``g = F(u) - u``.

    The rows of ``dU`` and ``dG`` are differences of past iterates and
    residuals, in any order.  The mixing weights ``gamma`` minimise
    ``|g - dG^T gamma|`` through the small Gram system of ``dG`` with a
    relative ridge; an empty, zero or singular history falls back to the
    plain relaxed step ``u + a g``.
    """
    step = u + a * g
    if len(dG):
        gram = np.dot(dG, dG.T)
        gram[np.diag_indices_from(gram)] += 1e-12 * np.trace(gram)
        try:
            gamma = np.linalg.solve(gram, np.dot(dG, g))
        except np.linalg.LinAlgError:
            return np.clip(step, 0.0, 1.0)
        if np.all(np.isfinite(gamma)):
            step -= np.dot(gamma, dU) + a * np.dot(gamma, dG)
    return np.clip(step, 0.0, 1.0)


def _coarse_grid(
    grid: TimeGrid,
    params: Sequence[StrainParams],
    events: Sequence[SeedEvent],
    population: float,
) -> TimeGrid | None:
    """The grid of step ``m * grid.dt`` for the largest ``m`` in
    ``COARSE_FACTORS`` that divides the step count, holds every seed time as
    a node, and keeps RK4 stable; ``None`` when no ``m`` qualifies."""
    safe = max_stable_dt(params, population)
    for m in COARSE_FACTORS:
        if grid.n_steps % m or m * grid.dt > safe:
            continue
        coarse = TimeGrid(t0=grid.t0, dt=m * grid.dt, n_steps=grid.n_steps // m)
        if all(coarse.aligned(ev.time) for ev in events):
            return coarse
    return None


def _sweep(
    initial: EpidemicState,
    params: Sequence[StrainParams],
    events: Sequence[SeedEvent],
    grid: TimeGrid,
    costs: CostParams,
    u: np.ndarray,
    relaxation: float,
    tol: float,
    max_iter: int,
) -> FbsmReport:
    """Anderson-mixed fixed-point iteration of ``u = F(u)`` on one grid,
    starting from the schedule values ``u``."""
    beta = strain_arrays(params).beta

    # The last ANDERSON_DEPTH differences, kept in ring buffers allocated once
    # so that no step stacks fresh copies of the history.
    dU = np.empty((ANDERSON_DEPTH, grid.n_points))
    dG = np.empty_like(dU)
    history: list[float] = []
    converged = False
    for iterations in range(1, max_iter + 1):
        schedule = ControlSchedule(grid, u)
        traj = simulate(initial, params, schedule, events, grid)
        costates = backward_sweep(traj, params, costs)
        g = _pointwise_formula(traj, costates, beta, costs) - u
        if not np.all(np.isfinite(g)):
            raise SolverError("control update produced non-finite values")
        residual = float(np.max(np.abs(g)))
        history.append(residual)
        if residual < tol:
            converged = True
            break
        if iterations > 1:
            slot = (iterations - 2) % ANDERSON_DEPTH
            np.subtract(u, u_prev, out=dU[slot])
            np.subtract(g, g_prev, out=dG[slot])
        u_prev, g_prev = u, g
        filled = min(iterations - 1, ANDERSON_DEPTH)
        u = _anderson_step(u, g, dU[:filled], dG[:filled], relaxation)

    return FbsmReport(
        converged=converged,
        objective=objective(traj, costs),
        schedule=schedule,
        trajectory=traj,
        costates=costates,
        update_history=tuple(history),
    )


def check_solver_settings(relaxation: float, tol: float, max_iter: int) -> None:
    """Raise DomainError for sweep settings :func:`fbsm_solve` cannot run with."""
    if not 0.0 < relaxation <= 1.0:
        raise DomainError(f"relaxation must lie in (0, 1], got {relaxation!r}")
    if not tol > 0:
        raise DomainError(f"tol must be > 0, got {tol!r}")
    if not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise DomainError(f"max_iter must be an integer >= 1, got {max_iter!r}")


def fbsm_solve(
    initial: EpidemicState,
    params: Sequence[StrainParams],
    events: Sequence[SeedEvent],
    grid: TimeGrid,
    costs: CostParams,
    u_init: ControlSchedule | None = None,
    relaxation: float = 0.5,
    tol: float = 1e-6,
    max_iter: int = 500,
) -> FbsmReport:
    """Forward-backward sweep for the mitigation schedule.

    Each iteration simulates forward under the current schedule ``u``,
    integrates the adjoints backward from zero and evaluates the closed-form
    control ``F(u)``.  The sweep stops when the fixed-point residual
    ``max|F(u) - u|`` falls below ``tol`` and returns ``u`` with the
    trajectory and costates already computed for it.  Otherwise the next
    schedule is the type-II Anderson step over the last ``ANDERSON_DEPTH``
    iterates, with ``relaxation`` as the mixing weight ``a`` of the plain
    step ``u + a (F(u) - u)``, clipped to [0, 1].

    The sweep starts from a nested solve (Brandt 1977): the same problem on
    a grid of step ``m * grid.dt``, started from ``u_init`` at every m-th
    node and run to ``COARSE_TOL_FACTOR * tol``, gives a schedule that is
    interpolated linearly onto ``grid``.  ``m`` is the largest of
    ``COARSE_FACTORS`` that divides the step count, puts every seed time on
    a coarse node and keeps RK4 stable
    (:func:`~multistrain.dynamics.max_stable_dt`).  When none does, or the
    coarse run leaves the admissible region, the sweep starts cold from
    ``u_init``.  A coarse solve that does not converge still seeds the fine
    sweep.

    Hitting ``max_iter`` on the caller's grid returns a report with
    ``converged=False`` rather than raising.
    """
    check_solver_settings(relaxation, tol, max_iter)
    if u_init is None:
        u = np.zeros(grid.n_points)
    else:
        if u_init.grid != grid:
            raise ConfigError("u_init schedule is defined on a different grid")
        u = np.array(u_init.u, dtype=float)

    coarse = _coarse_grid(grid, params, events, initial.P)
    start = None
    if coarse is not None:
        m = round(coarse.dt / grid.dt)
        try:
            start = _sweep(
                initial, params, events, coarse, costs, u[::m], relaxation,
                COARSE_TOL_FACTOR * tol, max_iter,
            )
        except IntegrationError:
            # A stable step may still overshoot a compartment below zero
            # where the caller's finer step does not; then start cold.
            pass
        else:
            u = np.interp(grid.times(), coarse.times(), start.schedule.u)
    report = _sweep(initial, params, events, grid, costs, u, relaxation, tol, max_iter)
    if start is None:
        return report
    return replace(report, coarse_iterations=start.iterations, coarse_dt=coarse.dt)
