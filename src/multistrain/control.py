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

from . import integrate
from .dynamics import (
    EpidemicState, StrainParams, costate_lists, max_stable_dt, rate_table, split,
)
from .errors import ConfigError, DomainError, IntegrationError, SolverError
from .integrate import ControlSchedule, SeedEvent, TimeGrid, Trajectory, simulate

# Number of past residual differences the Anderson step mixes.
ANDERSON_DEPTH = 5

# Step multiples tried for the coarse grid of the nested start, largest first,
# and the tolerance of the coarse solve as a multiple of the fine one.  The
# coarse schedule only seeds the fine sweep, so it need not be sharp.
COARSE_FACTORS = (10, 5, 2)
COARSE_TOL_FACTOR = 100.0


@dataclass(frozen=True)
class CostParams:
    """Weights of the running reward ``c1 * P - exp(c2 * u)``, each finite
    and > 0."""

    c1: float
    c2: float

    def __post_init__(self):
        for name in ("c1", "c2"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise DomainError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class CostateState:
    """Adjoint variables at one node: phi_P plus per-strain phi_S/E/I/R."""

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
class CostateTrajectory:
    """Adjoint sweep recorded on the same grid as the forward trajectory,
    held as read-only views of the caller's arrays, which stay writable."""

    grid: TimeGrid
    phi_P: np.ndarray
    phi_S: np.ndarray
    phi_E: np.ndarray
    phi_I: np.ndarray
    phi_R: np.ndarray

    def __post_init__(self):
        for name in ("phi_P", "phi_S", "phi_E", "phi_I", "phi_R"):
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    def state_at(self, k: int) -> CostateState:
        return CostateState(
            phi_P=float(self.phi_P[k]),
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


def _uniform_trapezoid(values: np.ndarray, dt: float) -> float:
    if len(values) == 1:
        return 0.0
    return float(dt * (values.sum() - 0.5 * (values[0] + values[-1])))


def objective(traj: Trajectory, costs: CostParams) -> float:
    """Total reward: trapezoid quadrature of the running cost, under the
    trajectory's own recorded control, over the grid."""
    rates = costs.c1 * traj.P - np.exp(costs.c2 * traj.u)
    return _uniform_trapezoid(rates, traj.grid.dt)


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


def backward_sweep(
    traj: Trajectory, params: Sequence[StrainParams], costs: CostParams
) -> CostateTrajectory:
    """Integrate the adjoint system from zero terminal values back to t0.

    Runs classical RK4 on the trajectory's grid in reversed time
    ``tau = T - t``, with step ``h = +dt``, where the adjoint
    ``d phi / dt = -J^T phi - c1 e_P`` reads, for the row vector ``phi``,

        d phi / d tau = phi J + c1 e_P.

    Stage 1 takes the state and control at node k, stages 2 and 3 at the
    midpoint (linear interpolants of the stored S, I and u) and stage 4 at
    node k-1.  Each slope is the O(n) row product of
    :func:`~multistrain.dynamics.costate_lists`, never a dense Jacobian.
    The whole sweep is one call: ``ms_adjoint`` in ``_rk4.c`` once the
    background build of :mod:`.integrate` is ready, and ``_adjoint_loop``,
    the same loop on plain lists, until then or without ``cc``; the two
    give the same costates bit for bit.  Both read the trajectory's stored
    S and its ``I`` view in place, whatever their strides, so the sweep
    makes no copies of them; only an array that is not aligned native
    float64 is first copied into one that is.  The result holds read-only
    views of one (nodes, 4n+1) costate matrix.
    """
    if traj.n_strains != len(params):
        raise DomainError("trajectory and parameter list disagree on strain count")
    n, N = traj.n_strains, traj.grid.n_steps
    rates = rate_table(params)
    S, I = _doubles(traj.susceptible_matrix()), _doubles(traj.I)
    u = _doubles(np.ascontiguousarray(traj.u))
    phi = np.empty((N + 1, 4 * n + 1))
    adjoint = integrate._kernel("ms_adjoint", n * N)
    if adjoint is None:
        _adjoint_loop(phi, rates, costs.c1, traj.grid.dt, S, I, u)
    else:
        work = np.empty(24 * n)
        adjoint(
            n, N, traj.grid.dt, costs.c1, rates.ctypes.data,
            S.ctypes.data, S.strides[0] // 8, S.strides[1] // 8,
            I.ctypes.data, I.strides[0] // 8, I.strides[1] // 8,
            u.ctypes.data, phi.ctypes.data, work.ctypes.data,
        )
    return CostateTrajectory(traj.grid, *split(phi, n))


def _doubles(a: np.ndarray) -> np.ndarray:
    """``a`` itself when it is aligned native float64, whose strides are
    whole doubles, else a contiguous float64 copy.  ``np.ascontiguousarray``
    would hand back an unaligned contiguous array as it is."""
    if a.dtype == np.float64 and a.flags.aligned:
        return a
    return np.array(a, dtype=np.float64, order="C")


def _adjoint_loop(phi, rates, c1, h, S, I, u):
    """``ms_adjoint`` on plain lists: fills ``phi`` from its last row back.

    ``rates`` is :func:`~multistrain.dynamics.rate_table`.  The
    transmission coefficients ``((1-u) beta) S`` and ``((1-u) beta) I`` are
    built up front with numpy, in the kernel's operation order, into two
    arrays whose row 2k holds node k and row 2k+1 the midpoint after it;
    the node loop takes each step's two new rows as lists.
    """
    N, n = S.shape[0] - 1, S.shape[1]
    wbS = np.empty((2 * N + 1, n))
    wbI = np.empty_like(wbS)
    wb = (1.0 - u)[:, None] * rates[:, 0]
    wbS[::2] = wb * S
    wbI[::2] = wb * I
    wb = (1.0 - 0.5 * (u[:-1] + u[1:]))[:, None] * rates[:, 0]
    wbS[1::2] = wb * (0.5 * (S[:-1] + S[1:]))
    wbI[1::2] = wb * (0.5 * (I[:-1] + I[1:]))
    rows = list(enumerate(rates.tolist()))
    half = 0.5 * h
    sixth = h / 6.0
    strains = range(n)
    P = 0.0
    xS, xE, xI, xR = ([0.0] * n for _ in range(4))
    # The S, E, I and R slopes of the four stages, and one zero list that
    # stands for every slope before stage 1.
    aS, aE, aI, aR, bS, bE, bI, bR, cS, cE, cI, cR, dS, dE, dI, dR, zero = (
        [0.0] * n for _ in range(17)
    )
    phi[N] = 0.0
    nS, nI = wbS[2 * N].tolist(), wbI[2 * N].tolist()
    for k in range(N, 0, -1):
        pS, mS = wbS[2 * k - 2 : 2 * k].tolist()
        pI, mI = wbI[2 * k - 2 : 2 * k].tolist()
        aP = costate_lists(P, xS, xE, xI, xR, 0.0, zero, zero, zero, zero, rows,
                           nS, nI, c1, aS, aE, aI, aR)
        bP = costate_lists(P, xS, xE, xI, xR, half, aS, aE, aI, aR, rows,
                           mS, mI, c1, bS, bE, bI, bR)
        cP = costate_lists(P, xS, xE, xI, xR, half, bS, bE, bI, bR, rows,
                           mS, mI, c1, cS, cE, cI, cR)
        dP = costate_lists(P, xS, xE, xI, xR, h, cS, cE, cI, cR, rows,
                           pS, pI, c1, dS, dE, dI, dR)
        nS, nI = pS, pI
        P = P + sixth * (aP + 2.0 * (bP + cP) + dP)
        for j in strains:
            xS[j] = xS[j] + sixth * (aS[j] + 2.0 * (bS[j] + cS[j]) + dS[j])
            xE[j] = xE[j] + sixth * (aE[j] + 2.0 * (bE[j] + cE[j]) + dE[j])
            xI[j] = xI[j] + sixth * (aI[j] + 2.0 * (bI[j] + cI[j]) + dI[j])
            xR[j] = xR[j] + sixth * (aR[j] + 2.0 * (bR[j] + cR[j]) + dR[j])
        phi[k - 1] = [P, *xS, *xE, *xI, *xR]


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
    """The grid of step ``m * grid.dt`` for the largest ``m`` in ``COARSE_FACTORS``
    that divides the step count and every seed's node (``grid.index_of``, which
    raises for a seed off ``grid``) and keeps RK4 stable; ``None`` if none does."""
    safe = max_stable_dt(params, population)
    nodes = [grid.index_of(ev.time) for ev in events]
    for m in COARSE_FACTORS:
        if grid.n_steps % m or m * grid.dt > safe or any(k % m for k in nodes):
            continue
        return TimeGrid(t0=grid.t0, dt=m * grid.dt, n_steps=grid.n_steps // m)
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
    beta = rate_table(params)[:, 0]

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
    if not (tol > 0 and math.isfinite(tol)):
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
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
        if not isinstance(u_init, ControlSchedule):
            raise DomainError("fbsm_solve expects a ControlSchedule as u_init")
        if u_init.grid != grid:
            raise ConfigError("u_init schedule is defined on a different grid")
        u = np.array(u_init.u, dtype=float)

    coarse = _coarse_grid(grid, params, events, initial.P)
    coarse_iterations = None
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
            # Only the count outlives the coarse report, whose trajectory
            # and costates the fine sweep need not hold beside its own.
            coarse_iterations = start.iterations
            del start
    report = _sweep(initial, params, events, grid, costs, u, relaxation, tol, max_iter)
    if coarse_iterations is None:
        return report
    return replace(report, coarse_iterations=coarse_iterations, coarse_dt=coarse.dt)
