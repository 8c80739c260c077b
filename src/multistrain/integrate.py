"""Fixed-step RK4 integration of the epidemic system with timed seeding.

The grid is uniform and shared with the control machinery: the forward state
sweep, the backward adjoint sweep and every recorded trajectory live on the
same nodes.  Controls between nodes are interpolated linearly, so an RK4 step
from ``t_k`` takes the control at ``t_k``, the midpoint average and the value
at ``t_{k+1}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import (
    NEGATIVE_TOLERANCE,
    EpidemicState,
    StrainParams,
    check_control,
    rhs_lists,
    strain_arrays,
)
from .errors import ConfigError, DomainError, IntegrationError, StateConsistencyError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid: ``n_steps`` steps of ``dt`` days starting at ``t0``."""

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if not self.dt > 0:
            raise DomainError(f"dt must be > 0, got {self.dt!r}")
        if self.n_steps < 0:
            raise DomainError(f"n_steps must be >= 0, got {self.n_steps!r}")

    @classmethod
    def from_horizon(cls, t0: float, horizon: float, dt: float) -> "TimeGrid":
        """Build a grid over [t0, horizon], snapping the end time to the grid."""
        if not dt > 0:
            raise DomainError(f"dt must be > 0, got {dt!r}")
        if not horizon > t0:
            raise DomainError("horizon must lie after t0")
        n = round((horizon - t0) / dt)
        if n < 1 or abs(t0 + n * dt - horizon) > 1e-6 * max(1.0, abs(horizon)):
            raise ConfigError(
                f"dt={dt!r} does not divide the horizon {horizon!r} - {t0!r}"
            )
        return cls(t0=t0, dt=dt, n_steps=n)

    @property
    def T(self) -> float:
        return self.t0 + self.n_steps * self.dt

    @property
    def n_points(self) -> int:
        return self.n_steps + 1

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_points)

    def time_at(self, k: int) -> float:
        return self.t0 + k * self.dt

    def index_of(self, time: float) -> int:
        """Grid index of ``time``; raises ``ConfigError`` when off-grid."""
        k = round((time - self.t0) / self.dt)
        if k < 0 or k > self.n_steps or abs(self.time_at(k) - time) > 1e-9 * max(
            1.0, abs(time)
        ):
            raise ConfigError(f"time {time!r} does not lie on the grid")
        return k


@dataclass(frozen=True)
class SeedEvent:
    """Introduction of infection mass into one strain at a grid time.

    Seeds are drawn from the susceptible pool, so the total population is
    unchanged; the strain's susceptibles shrink by the seeded amount.
    """

    time: float
    strain: int
    exposed: float = 0.0
    infected: float = 0.0
    removed: float = 0.0

    def __post_init__(self):
        if self.strain < 0:
            raise DomainError("strain index must be >= 0")
        if self.exposed < 0 or self.infected < 0 or self.removed < 0:
            raise DomainError("seed amounts must be >= 0")


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: state and applied control at every grid node."""

    grid: TimeGrid
    P: np.ndarray
    E: np.ndarray
    I: np.ndarray
    R: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        m = self.grid.n_points
        if self.P.shape != (m,) or self.u.shape != (m,):
            raise DomainError("P and u must hold one value per grid node")
        if self.E.shape != self.I.shape or self.E.shape != self.R.shape:
            raise DomainError("E, I, R must share one (nodes, strains) shape")
        if self.E.shape[0] != m:
            raise DomainError("per-strain history must hold one row per grid node")
        for name in ("P", "E", "I", "R", "u"):
            getattr(self, name).setflags(write=False)

    @property
    def n_strains(self) -> int:
        return self.E.shape[1]

    def susceptible_matrix(self) -> np.ndarray:
        """Algebraic susceptibles, shape (nodes, strains)."""
        return self.P[:, None] - self.E - self.I - self.R

    def state_at(self, k: int) -> EpidemicState:
        return EpidemicState(
            t=self.grid.time_at(k), P=float(self.P[k]),
            E=self.E[k], I=self.I[k], R=self.R[k],
        )

    @property
    def final_state(self) -> EpidemicState:
        return self.state_at(self.grid.n_steps)


def _rk4_core(t, P, E, I, R, beta, sigma, gamma, delta, mu, act, u0, um, u1, dt):
    """One classical RK4 step on plain lists; returns new (P, E, I, R)."""
    n = len(beta)
    half = 0.5 * dt
    aP, aE, aI, aR = rhs_lists(t, P, E, I, R, beta, sigma, gamma, delta, mu, act, u0)
    E2 = [E[j] + half * aE[j] for j in range(n)]
    I2 = [I[j] + half * aI[j] for j in range(n)]
    R2 = [R[j] + half * aR[j] for j in range(n)]
    bP, bE, bI, bR = rhs_lists(
        t + half, P + half * aP, E2, I2, R2, beta, sigma, gamma, delta, mu, act, um
    )
    E3 = [E[j] + half * bE[j] for j in range(n)]
    I3 = [I[j] + half * bI[j] for j in range(n)]
    R3 = [R[j] + half * bR[j] for j in range(n)]
    cP, cE, cI, cR = rhs_lists(
        t + half, P + half * bP, E3, I3, R3, beta, sigma, gamma, delta, mu, act, um
    )
    E4 = [E[j] + dt * cE[j] for j in range(n)]
    I4 = [I[j] + dt * cI[j] for j in range(n)]
    R4 = [R[j] + dt * cR[j] for j in range(n)]
    dP_, dE_, dI_, dR_ = rhs_lists(
        t + dt, P + dt * cP, E4, I4, R4, beta, sigma, gamma, delta, mu, act, u1
    )
    sixth = dt / 6.0
    P_new = P + sixth * (aP + 2.0 * (bP + cP) + dP_)
    E_new = [E[j] + sixth * (aE[j] + 2.0 * (bE[j] + cE[j]) + dE_[j]) for j in range(n)]
    I_new = [I[j] + sixth * (aI[j] + 2.0 * (bI[j] + cI[j]) + dI_[j]) for j in range(n)]
    R_new = [R[j] + sixth * (aR[j] + 2.0 * (bR[j] + cR[j]) + dR_[j]) for j in range(n)]
    return P_new, E_new, I_new, R_new


def _clamp_inplace(values, tol, step):
    """Zero small negative overshoots; reject anything worse."""
    for idx, v in enumerate(values):
        if not v >= 0.0:  # catches negatives and NaN
            if v >= -tol:
                values[idx] = 0.0
            else:
                raise IntegrationError(
                    f"state left the admissible region (value {v!r})", step=step
                )


def rk4_step(
    state: EpidemicState,
    params: Sequence[StrainParams],
    u_now: float,
    u_mid: float,
    u_next: float,
    dt: float,
    negative_tol: float | None = None,
) -> EpidemicState:
    """Advance the state by one RK4 step of length ``dt``.

    The three control values feed the four stages: ``u_now`` at the first,
    ``u_mid`` at both middle stages, ``u_next`` at the last.  Round-off
    negatives within tolerance are clamped to zero; non-finite results raise
    :class:`IntegrationError`.
    """
    if len(params) != state.n_strains:
        raise DomainError("state and parameter list disagree on strain count")
    for u in (u_now, u_mid, u_next):
        check_control(u)
    if not dt > 0:
        raise DomainError(f"dt must be > 0, got {dt!r}")
    state.validate()
    beta, sigma, gamma, delta, mu, act = (c.tolist() for c in strain_arrays(params))
    P, E, I, R = _rk4_core(
        state.t, state.P, state.E.tolist(), state.I.tolist(), state.R.tolist(),
        beta, sigma, gamma, delta, mu, act, u_now, u_mid, u_next, dt,
    )
    tol = (
        negative_tol
        if negative_tol is not None
        else NEGATIVE_TOLERANCE * max(state.P, 1.0)
    )
    if not math.isfinite(P):
        raise IntegrationError(f"total population became {P!r}")
    boxed = [P]
    _clamp_inplace(boxed, tol, None)
    _clamp_inplace(E, tol, None)
    _clamp_inplace(I, tol, None)
    _clamp_inplace(R, tol, None)
    return EpidemicState(t=state.t + dt, P=boxed[0], E=E, I=I, R=R)


def simulate(
    initial: EpidemicState,
    params: Sequence[StrainParams],
    schedule: "ControlSchedule",
    events: Sequence[SeedEvent],
    grid: TimeGrid,
) -> Trajectory:
    """Integrate the system over the grid, applying seed events at their nodes.

    Seeds are added to the named strain's compartments with the total
    population unchanged, then the step proceeds.  The recorded state at a
    seeding node includes the seed.
    """
    from .control import ControlSchedule  # local import to avoid a cycle

    if not isinstance(schedule, ControlSchedule):
        raise DomainError("simulate expects a ControlSchedule")
    if schedule.grid != grid:
        raise ConfigError("control schedule is defined on a different grid")
    if len(params) != initial.n_strains:
        raise DomainError("initial state and parameter list disagree on strain count")
    if abs(initial.t - grid.t0) > 1e-9 * max(1.0, abs(grid.t0)):
        raise ConfigError(
            f"initial state is at t={initial.t!r} but the grid starts at {grid.t0!r}"
        )
    initial.validate()

    n = initial.n_strains
    events_at: dict[int, list[SeedEvent]] = {}
    for ev in sorted(events, key=lambda e: (e.time, e.strain)):
        if ev.strain >= n:
            raise ConfigError(f"seed event targets unknown strain {ev.strain}")
        events_at.setdefault(grid.index_of(ev.time), []).append(ev)

    beta, sigma, gamma, delta, mu, act = (c.tolist() for c in strain_arrays(params))
    N = grid.n_steps
    P_hist = np.empty(N + 1)
    E_hist = np.empty((N + 1, n))
    I_hist = np.empty((N + 1, n))
    R_hist = np.empty((N + 1, n))
    u_list = schedule.u.tolist()

    p_ref = max(initial.P, 1.0)
    tol = NEGATIVE_TOLERANCE * p_ref
    P = initial.P
    E = initial.E.tolist()
    I = initial.I.tolist()
    R = initial.R.tolist()
    t0, dt = grid.t0, grid.dt

    for k in range(N + 1):
        t = t0 + k * dt
        for ev in events_at.get(k, ()):
            j = ev.strain
            E[j] += ev.exposed
            I[j] += ev.infected
            R[j] += ev.removed
            if P - E[j] - I[j] - R[j] < -tol:
                raise StateConsistencyError(
                    f"seed at day {ev.time} exceeds the susceptible pool of "
                    f"strain {j}"
                )
        P_hist[k] = P
        E_hist[k] = E
        I_hist[k] = I
        R_hist[k] = R
        if k == N:
            break
        u0 = u_list[k]
        u1 = u_list[k + 1]
        P, E, I, R = _rk4_core(
            t, P, E, I, R, beta, sigma, gamma, delta, mu, act,
            u0, 0.5 * (u0 + u1), u1, dt,
        )
        if not math.isfinite(P):
            raise IntegrationError(f"total population became {P!r}", step=k)
        boxed = [P]
        _clamp_inplace(boxed, tol, k)
        P = boxed[0]
        _clamp_inplace(E, tol, k)
        _clamp_inplace(I, tol, k)
        _clamp_inplace(R, tol, k)

    return Trajectory(
        grid=grid, P=P_hist, E=E_hist, I=I_hist, R=R_hist,
        u=np.array(schedule.u, dtype=float),
    )
