"""Fixed-step RK4 integration of the epidemic system with timed seeding.

The grid is uniform and shared with the control machinery: the forward state
sweep, the backward adjoint sweep and every recorded trajectory live on the
same nodes.  Controls between nodes are interpolated linearly, so an RK4 step
from ``t_k`` takes the control at ``t_k``, the midpoint average and the value
at ``t_{k+1}``.

``simulate`` runs the RK4 steps inline in its node loop, on plain lists: the
four stage slopes live in lists made once per call, each stage walks the
strains once through ``dynamics.rhs_lists`` and forms its input as ``x + h*k``
on the fly, and the state is updated in place.  The admissibility check is one
test per strain, of the signs and of the finite sum; the clamp runs only when
it fails.  Each node's state goes into one preallocated history matrix as one
row, ``[P, E, I, R]``, and the recorded ``P``, ``E``, ``I`` and ``R`` are
column views of it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import (
    NEGATIVE_TOLERANCE,
    EpidemicState,
    StrainParams,
    check_control,
    rhs_lists,
    strain_rows,
)
from .errors import ConfigError, DomainError, IntegrationError, StateConsistencyError


def same_time(t: float, ref: float) -> bool:
    """Whether ``t`` is the time ``ref`` up to round-off, 1e-9 of ``max(1,
    |ref|)`` days; a NaN or infinite ``t`` never is.  Every time check uses it."""
    return abs(t - ref) <= 1e-9 * max(1.0, abs(ref))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid: ``n_steps`` steps of ``dt`` days starting at ``t0``."""

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if not math.isfinite(self.t0):
            raise DomainError(f"t0 must be finite, got {self.t0!r}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise DomainError(f"dt must be finite and > 0, got {self.dt!r}")
        if not isinstance(self.n_steps, numbers.Integral) or self.n_steps < 0:
            raise DomainError(f"n_steps must be an integer >= 0, got {self.n_steps!r}")

    @classmethod
    def from_horizon(cls, t0: float, horizon: float, dt: float) -> "TimeGrid":
        """Build a grid over [t0, horizon], snapping the end time to the grid."""
        if not dt > 0:
            raise DomainError(f"dt must be > 0, got {dt!r}")
        if not horizon > t0:
            raise DomainError("horizon must lie after t0")
        span = (horizon - t0) / dt
        if not math.isfinite(span):
            raise DomainError(
                f"dt={dt!r} does not give a finite step count over {horizon!r} - {t0!r}"
            )
        n = round(span)
        if n < 1 or not same_time(t0 + n * dt, horizon):
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

    def aligned(self, time: float) -> bool:
        """Whether ``time`` is ``t0 + k*dt`` for an integer ``k``, in the span or
        not; a NaN or infinite ``time`` never is."""
        k = round((time - self.t0) / self.dt) if math.isfinite(time) else 0
        return same_time(time, self.time_at(k))

    def index_of(self, time: float) -> int:
        """Grid index of ``time``; raises ``ConfigError`` when off-grid."""
        k = round((time - self.t0) / self.dt) if self.aligned(time) else -1
        if not 0 <= k <= self.n_steps:
            raise ConfigError(f"time {time!r} does not lie on the grid")
        return k


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
        if not isinstance(self.strain, numbers.Integral) or self.strain < 0:
            raise DomainError(f"strain index must be an integer >= 0, got {self.strain!r}")
        for name in ("time", "exposed", "infected", "removed"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"seed {name} must be finite, got {getattr(self, name)!r}")
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


def _clamp_inplace(values, tol, step):
    """Zero small negative overshoots; reject anything worse, NaN or +inf."""
    for idx, v in enumerate(values):
        if not 0.0 <= v < math.inf:
            if -tol <= v < 0.0:
                values[idx] = 0.0
            else:
                raise IntegrationError(
                    f"state left the admissible region (value {v!r})", step=step
                )


def simulate(
    initial: EpidemicState,
    params: Sequence[StrainParams],
    schedule: ControlSchedule,
    events: Sequence[SeedEvent],
    grid: TimeGrid,
) -> Trajectory:
    """Integrate the system over the grid, applying seed events at their nodes.

    Seeds are added to the named strain's compartments with the total
    population unchanged, then the step proceeds.  The recorded state at a
    seeding node includes the seed.  A strain with zero compartments has no
    flows, so it enters the run through its seed; until then its
    susceptible pool is all of ``P``.
    """
    if not isinstance(schedule, ControlSchedule):
        raise DomainError("simulate expects a ControlSchedule")
    if schedule.grid != grid:
        raise ConfigError("control schedule is defined on a different grid")
    if len(params) != initial.n_strains:
        raise DomainError("initial state and parameter list disagree on strain count")
    if not same_time(initial.t, grid.t0):
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

    rows = strain_rows(params)
    # Stage slopes of one RK4 step: E, I, R lists for each of the four
    # stages, and one zero list that stands for the slope before stage 1.
    aE, aI, aR, bE, bI, bR, cE, cI, cR, dE, dI, dR, zero = (
        [0.0] * n for _ in range(13)
    )
    N = grid.n_steps
    # One row [P, E_1..E_n, I_1..I_n, R_1..R_n] per node, written in one call.
    hist = np.empty((N + 1, 3 * n + 1))
    u_list = schedule.u.tolist()

    p_ref = max(initial.P, 1.0)
    tol = NEGATIVE_TOLERANCE * p_ref
    P = initial.P
    E = initial.E.tolist()
    I = initial.I.tolist()
    R = initial.R.tolist()
    dt = grid.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    inf = math.inf
    strains = range(n)

    for k in range(N + 1):
        if k in events_at:
            for ev in events_at[k]:
                j = ev.strain
                E[j] += ev.exposed
                I[j] += ev.infected
                R[j] += ev.removed
                if P - E[j] - I[j] - R[j] < -tol:
                    raise StateConsistencyError(
                        f"seed at day {ev.time} exceeds the susceptible pool of "
                        f"strain {j}"
                    )
        hist[k] = [P, *E, *I, *R]
        if k == N:
            break
        # One classical RK4 step.  Each stage evaluates rhs_lists at x + h*k
        # of the previous stage's slope k, so the step builds no list.
        u0 = u_list[k]
        u1 = u_list[k + 1]
        um = 0.5 * (u0 + u1)
        aP = rhs_lists(P, E, I, R, 0.0, zero, zero, zero, rows, u0, aE, aI, aR)
        bP = rhs_lists(P + half * aP, E, I, R, half, aE, aI, aR, rows, um, bE, bI, bR)
        cP = rhs_lists(P + half * bP, E, I, R, half, bE, bI, bR, rows, um, cE, cI, cR)
        dP = rhs_lists(P + dt * cP, E, I, R, dt, cE, cI, cR, rows, u1, dE, dI, dR)
        P = P + sixth * (aP + 2.0 * (bP + cP) + dP)
        admissible = True
        for j in strains:
            e = E[j] = E[j] + sixth * (aE[j] + 2.0 * (bE[j] + cE[j]) + dE[j])
            i = I[j] = I[j] + sixth * (aI[j] + 2.0 * (bI[j] + cI[j]) + dI[j])
            r = R[j] = R[j] + sixth * (aR[j] + 2.0 * (bR[j] + cR[j]) + dR[j])
            # False for a negative, NaN or +inf value, which the clamp handles.
            if not (e >= 0.0 and i >= 0.0 and r >= 0.0 and e + i + r < inf):
                admissible = False
        # Round-off negatives within tol become zero; anything worse, a NaN
        # or infinite compartment or a non-finite P fails with the step.
        if not math.isfinite(P):
            raise IntegrationError(f"total population became {P!r}", step=k)
        if not P >= 0.0:
            boxed = [P]
            _clamp_inplace(boxed, tol, k)
            P = boxed[0]
        if not admissible:
            for values in (E, I, R):
                _clamp_inplace(values, tol, k)

    return Trajectory(
        grid=grid, P=hist[:, 0], E=hist[:, 1 : n + 1], I=hist[:, n + 1 : 2 * n + 1],
        R=hist[:, 2 * n + 1 :], u=np.array(schedule.u, dtype=float),
    )
