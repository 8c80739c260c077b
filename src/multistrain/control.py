"""Optimal mitigation scheduling via a forward-backward sweep.

The running reward ``c1 * P - exp(c2 * u)`` trades the value of the surviving
population against an exponentially growing cost of mitigation.  Pontryagin's
principle turns the maximisation into a two-point boundary-value problem:
state forward from the initial condition, adjoint backward from zero terminal
values, and a pointwise closed form for the control in between.  The sweep
solves the fixed point ``u = F(u)`` of those three parts with Anderson mixing
until the fixed-point residual ``max|F(u) - u|`` falls below tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import EpidemicState, StrainParams, check_control, param_lists
from .errors import ConfigError, DomainError, SolverError
from .integrate import SeedEvent, TimeGrid, Trajectory, simulate

# Number of past residual differences the Anderson step mixes.
ANDERSON_DEPTH = 5


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
class ControlSchedule:
    """Mitigation values on a uniform grid, one per node, each in [0, 1]."""

    grid: TimeGrid
    u: np.ndarray

    def __post_init__(self):
        arr = np.array(self.u, dtype=float)
        if arr.shape != (self.grid.n_points,):
            raise DomainError(
                f"schedule needs {self.grid.n_points} values, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("schedule contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise DomainError("schedule values must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "u", arr)

    @classmethod
    def constant(cls, grid: TimeGrid, value: float) -> "ControlSchedule":
        check_control(value)
        return cls(grid=grid, u=np.full(grid.n_points, float(value)))


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
    every iteration in order; ``last_update`` is its final entry, the
    residual of the returned schedule.
    """

    converged: bool
    iterations: int
    objective: float
    last_update: float
    schedule: ControlSchedule
    trajectory: Trajectory
    costates: CostateTrajectory
    update_history: tuple[float, ...]


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


def objective(
    traj: Trajectory, costs: CostParams, schedule: ControlSchedule | None = None
) -> float:
    """Total reward: trapezoid quadrature of the running cost over the grid.

    The trajectory's own recorded control is used unless an explicit schedule
    is passed, which must live on the same grid.
    """
    if schedule is not None:
        if schedule.grid != traj.grid:
            raise ConfigError("schedule and trajectory are on different grids")
        u = schedule.u
    else:
        u = traj.u
    rates = costs.c1 * traj.P - np.exp(costs.c2 * u)
    return _uniform_trapezoid(rates, traj.grid.dt)


def _costate_rhs(
    n, c1, w, beta, sigma, gamma, delta, mu, active,
    S_row, I_row, phiP, phiS, phiE, phiI, phiR,
):
    """Adjoint right-hand side on plain lists; inactive strains are frozen."""
    sum_phi_s = 0.0
    for i in range(n):
        if active[i]:
            sum_phi_s += phiS[i]
    dS = [0.0] * n
    dE = [0.0] * n
    dI = [0.0] * n
    dR = [0.0] * n
    for j in range(n):
        if not active[j]:
            continue
        diff = phiS[j] - phiE[j]
        wb = w * beta[j]
        dS[j] = diff * wb * I_row[j]
        dE[j] = sigma[j] * (phiE[j] - phiI[j])
        dI[j] = (
            diff * wb * S_row[j]
            + phiI[j] * (mu[j] + gamma[j])
            - phiR[j] * gamma[j]
            + phiP * mu[j]
            + mu[j] * (sum_phi_s - phiS[j])
        )
        dR[j] = delta[j] * (phiR[j] - phiS[j])
    return -c1, dS, dE, dI, dR


def costate_derivatives(
    state: EpidemicState,
    costate: CostateState,
    u: float,
    params: Sequence[StrainParams],
    costs: CostParams,
) -> CostateDerivative:
    """Adjoint system evaluated at a state/costate pair.

    d phi_P / dt   = -c1
    d phi_S_j / dt = (phi_S_j - phi_E_j) (1-u) beta_j I_j
    d phi_E_j / dt = sigma_j (phi_E_j - phi_I_j)
    d phi_I_j / dt = (phi_S_j - phi_E_j) (1-u) beta_j S_j
                     + phi_I_j (mu_j + gamma_j) - phi_R_j gamma_j
                     + phi_P mu_j + mu_j sum_{i != j} phi_S_i
    d phi_R_j / dt = delta_j (phi_R_j - phi_S_j)

    with S_j taken algebraically from the state.  Strains not yet activated
    at ``state.t`` have frozen dynamics, so their adjoints are frozen too.
    """
    if state.n_strains != costate.n_strains or state.n_strains != len(params):
        raise DomainError("state, costate and parameters disagree on strain count")
    if abs(state.t - costate.t) > 1e-9 * max(1.0, abs(state.t)):
        raise DomainError(
            f"state (t={state.t!r}) and costate (t={costate.t!r}) are not simultaneous"
        )
    check_control(u)
    beta, sigma, gamma, delta, mu, act = param_lists(params)
    n = len(params)
    active = [state.t >= act[j] for j in range(n)]
    S_row = (state.P - state.E - state.I - state.R).tolist()
    dP, dS, dE, dI, dR = _costate_rhs(
        n, costs.c1, 1.0 - u, beta, sigma, gamma, delta, mu, active,
        S_row, state.I.tolist(),
        costate.phi_P, costate.phi_S.tolist(), costate.phi_E.tolist(),
        costate.phi_I.tolist(), costate.phi_R.tolist(),
    )
    return CostateDerivative(
        dphi_P=dP, dphi_S=np.array(dS), dphi_E=np.array(dE),
        dphi_I=np.array(dI), dphi_R=np.array(dR),
    )


def optimal_u(
    state: EpidemicState,
    costate: CostateState,
    params: Sequence[StrainParams],
    costs: CostParams,
) -> float:
    """Pointwise maximiser of the Hamiltonian, projected onto [0, 1].

    u* = max(0, (1/c2) ln( (1/c2) sum_j S_j I_j beta_j (phi_S_j - phi_E_j) ))

    evaluated with algebraic S_j and only over activated strains.  A
    non-positive log argument yields 0; values above 1 are clamped.
    """
    if state.n_strains != costate.n_strains or state.n_strains != len(params):
        raise DomainError("state, costate and parameters disagree on strain count")
    total = 0.0
    for j, p in enumerate(params):
        if state.t < p.activation_time:
            continue
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

    Runs RK4 with time reversed on the trajectory's grid; state and control
    values at the half-step stages are linear interpolants of the stored
    nodes.
    """
    if traj.n_strains != len(params):
        raise DomainError("trajectory and parameter list disagree on strain count")
    grid = traj.grid
    n = traj.n_strains
    N = grid.n_steps
    dt = grid.dt
    c1 = costs.c1
    beta, sigma, gamma, delta, mu, act = param_lists(params)

    S_mat = traj.susceptible_matrix()
    S_nodes = S_mat.tolist()
    I_nodes = traj.I.tolist()
    S_mids = (0.5 * (S_mat[:-1] + S_mat[1:])).tolist()
    I_mids = (0.5 * (traj.I[:-1] + traj.I[1:])).tolist()
    u_nodes = traj.u.tolist()
    times = grid.times()
    active_nodes = (times[:, None] >= np.array(act)[None, :]).tolist()

    phiP_hist = np.empty(N + 1)
    phiS_hist = np.empty((N + 1, n))
    phiE_hist = np.empty((N + 1, n))
    phiI_hist = np.empty((N + 1, n))
    phiR_hist = np.empty((N + 1, n))

    phiP = 0.0
    phiS = [0.0] * n
    phiE = [0.0] * n
    phiI = [0.0] * n
    phiR = [0.0] * n
    phiP_hist[N] = 0.0
    phiS_hist[N] = phiS
    phiE_hist[N] = phiE
    phiI_hist[N] = phiI
    phiR_hist[N] = phiR

    h = -dt
    half = 0.5 * h
    sixth = h / 6.0
    for k in range(N, 0, -1):
        S1, I1 = S_nodes[k], I_nodes[k]
        S0, I0 = S_nodes[k - 1], I_nodes[k - 1]
        Sm, Im = S_mids[k - 1], I_mids[k - 1]
        u1 = u_nodes[k]
        u0 = u_nodes[k - 1]
        um = 0.5 * (u0 + u1)
        act1 = active_nodes[k]
        act0 = active_nodes[k - 1]

        aP, aS, aE, aI, aR = _costate_rhs(
            n, c1, 1.0 - u1, beta, sigma, gamma, delta, mu, act1,
            S1, I1, phiP, phiS, phiE, phiI, phiR,
        )
        bP, bS, bE, bI, bR = _costate_rhs(
            n, c1, 1.0 - um, beta, sigma, gamma, delta, mu, act0,
            Sm, Im, phiP + half * aP,
            [phiS[j] + half * aS[j] for j in range(n)],
            [phiE[j] + half * aE[j] for j in range(n)],
            [phiI[j] + half * aI[j] for j in range(n)],
            [phiR[j] + half * aR[j] for j in range(n)],
        )
        cP, cS, cE, cI, cR = _costate_rhs(
            n, c1, 1.0 - um, beta, sigma, gamma, delta, mu, act0,
            Sm, Im, phiP + half * bP,
            [phiS[j] + half * bS[j] for j in range(n)],
            [phiE[j] + half * bE[j] for j in range(n)],
            [phiI[j] + half * bI[j] for j in range(n)],
            [phiR[j] + half * bR[j] for j in range(n)],
        )
        dP_, dS_, dE_, dI_, dR_ = _costate_rhs(
            n, c1, 1.0 - u0, beta, sigma, gamma, delta, mu, act0,
            S0, I0, phiP + h * cP,
            [phiS[j] + h * cS[j] for j in range(n)],
            [phiE[j] + h * cE[j] for j in range(n)],
            [phiI[j] + h * cI[j] for j in range(n)],
            [phiR[j] + h * cR[j] for j in range(n)],
        )
        phiP = phiP + sixth * (aP + 2.0 * (bP + cP) + dP_)
        phiS = [
            phiS[j] + sixth * (aS[j] + 2.0 * (bS[j] + cS[j]) + dS_[j]) for j in range(n)
        ]
        phiE = [
            phiE[j] + sixth * (aE[j] + 2.0 * (bE[j] + cE[j]) + dE_[j]) for j in range(n)
        ]
        phiI = [
            phiI[j] + sixth * (aI[j] + 2.0 * (bI[j] + cI[j]) + dI_[j]) for j in range(n)
        ]
        phiR = [
            phiR[j] + sixth * (aR[j] + 2.0 * (bR[j] + cR[j]) + dR_[j]) for j in range(n)
        ]
        phiP_hist[k - 1] = phiP
        phiS_hist[k - 1] = phiS
        phiE_hist[k - 1] = phiE
        phiI_hist[k - 1] = phiI
        phiR_hist[k - 1] = phiR

    return CostateTrajectory(
        grid=grid, phi_P=phiP_hist, phi_S=phiS_hist,
        phi_E=phiE_hist, phi_I=phiI_hist, phi_R=phiR_hist,
    )


def _pointwise_formula(
    traj: Trajectory,
    costates: CostateTrajectory,
    beta_row: np.ndarray,
    active_mask: np.ndarray,
    costs: CostParams,
) -> np.ndarray:
    """Closed-form control at every grid node, clamped to [0, 1]."""
    contrib = beta_row * traj.susceptible_matrix() * traj.I
    contrib = contrib * (costates.phi_S - costates.phi_E)
    total = np.where(active_mask, contrib, 0.0).sum(axis=1)
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

    Hitting ``max_iter`` returns a report with ``converged=False`` rather
    than raising.
    """
    if not 0.0 < relaxation <= 1.0:
        raise DomainError(f"relaxation must lie in (0, 1], got {relaxation!r}")
    if not tol > 0:
        raise DomainError(f"tol must be > 0, got {tol!r}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter!r}")

    if u_init is None:
        u = np.zeros(grid.n_points)
    else:
        if u_init.grid != grid:
            raise ConfigError("u_init schedule is defined on a different grid")
        u = np.array(u_init.u, dtype=float)

    beta_row = np.array([p.beta for p in params])
    act_row = np.array([p.activation_time for p in params])
    active_mask = grid.times()[:, None] >= act_row[None, :]

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
        g = _pointwise_formula(traj, costates, beta_row, active_mask, costs) - u
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
        iterations=iterations,
        objective=objective(traj, costs),
        last_update=residual,
        schedule=schedule,
        trajectory=traj,
        costates=costates,
        update_history=tuple(history),
    )
