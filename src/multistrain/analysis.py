"""Trajectory summaries.

The finite-difference Jacobian oracle that the tests hold the analytic
Jacobian and eigenvalues to lives in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .integrate import Trajectory, same_time

# A terminal window is reported as a plateau when the compartment's share of
# the initial population moves by less than this over the window.
PLATEAU_BAND = 0.02


@dataclass(frozen=True)
class StrainSummary:
    strain: int
    peak_infected: float
    peak_day: float
    dominant_strain_at_peak: int
    share_S: float
    share_E: float
    share_I: float
    share_R: float
    plateau_S: bool
    plateau_E: bool
    plateau_I: bool
    plateau_R: bool


@dataclass(frozen=True)
class TrajectorySummary:
    """Per-strain peaks and terminal-window shares of the initial population."""

    initial_population: float
    cumulative_deaths: float
    window: float
    strains: tuple[StrainSummary, ...]

    def format(self) -> str:
        p0 = self.initial_population
        lines = [
            f"initial population {p0:.6g}, cumulative deaths "
            f"{self.cumulative_deaths:.6g} ({100 * self.cumulative_deaths / p0:.3f}%)"
        ]
        for s in self.strains:
            lines.append(
                f"strain {s.strain + 1}: peak infected {s.peak_infected:.6g} "
                f"({100 * s.peak_infected / p0:.1f}% of P0) on day {s.peak_day:g}; "
                f"dominant strain there: {s.dominant_strain_at_peak + 1}"
            )
            flags = "".join(
                name if flag else name.lower()
                for name, flag in (
                    ("S", s.plateau_S), ("E", s.plateau_E),
                    ("I", s.plateau_I), ("R", s.plateau_R),
                )
            )
            lines.append(
                f"  last {self.window:g} d shares of P0: "
                f"S {100 * s.share_S:.1f}%  E {100 * s.share_E:.1f}%  "
                f"I {100 * s.share_I:.1f}%  R {100 * s.share_R:.1f}%  "
                f"(settled: {flags})"
            )
        return "\n".join(lines)


def summarize(traj: Trajectory, window: float = 90.0) -> TrajectorySummary:
    """Peaks, terminal plateau shares and total deaths of a recorded run.

    ``window`` is the length in days of the trailing interval over which the
    plateau shares are averaged; it must be positive and at most the horizon.
    Shares are fractions of the trajectory's initial total population, so the
    summary is invariant under rescaling of population units.
    """
    grid = traj.grid
    horizon = grid.T - grid.t0
    if not window > 0:
        raise DomainError(f"window must be > 0, got {window!r}")
    if window > horizon and not same_time(window, horizon):
        raise DomainError(
            f"window {window!r} exceeds the horizon {horizon!r}"
        )
    k0 = max(0, grid.n_steps - round(window / grid.dt))
    p0 = float(traj.P[0])
    times = grid.times()
    S_mat = traj.susceptible_matrix()
    comps = {"S": S_mat, "E": traj.E, "I": traj.I, "R": traj.R}

    strains = []
    for j in range(traj.n_strains):
        peak_k = int(np.argmax(traj.I[:, j]))
        shares = {}
        flags = {}
        for name, mat in comps.items():
            tail = mat[k0:, j] / p0
            shares[name] = float(tail.mean())
            flags[name] = bool(tail.max() - tail.min() < PLATEAU_BAND)
        strains.append(
            StrainSummary(
                strain=j,
                peak_infected=float(traj.I[peak_k, j]),
                peak_day=float(times[peak_k]),
                dominant_strain_at_peak=int(np.argmax(traj.I[peak_k])),
                share_S=shares["S"], share_E=shares["E"],
                share_I=shares["I"], share_R=shares["R"],
                plateau_S=flags["S"], plateau_E=flags["E"],
                plateau_I=flags["I"], plateau_R=flags["R"],
            )
        )
    return TrajectorySummary(
        initial_population=p0,
        cumulative_deaths=p0 - float(traj.P[-1]),
        window=float(window),
        strains=tuple(strains),
    )
