import ctypes
import hashlib
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from multistrain import (
    NEGATIVE_TOLERANCE,
    ConfigError,
    ControlSchedule,
    CostParams,
    DomainError,
    EpidemicState,
    IntegrationError,
    SeedEvent,
    StateConsistencyError,
    StrainParams,
    TimeGrid,
    Trajectory,
    backward_sweep,
    control,
    full_system_rhs,
    integrate,
    simulate,
)
from multistrain.cli import main

from conftest import (
    BETA,
    DELTA,
    E0,
    GAMMA,
    I0,
    MU,
    P0,
    R0_,
    SIGMA,
    compiled_simulate,
    many_strain_inputs,
    preset_inputs,
    reference_simulate,
    seeded_inputs,
    wave,
)


def baseline_run(dt=0.05, horizon=730.0, u=0.0):
    params = [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]
    grid = TimeGrid.from_horizon(0.0, horizon, dt)
    initial = EpidemicState(t=0.0, P=P0, E=[0.0], I=[0.0], R=[0.0])
    events = [SeedEvent(time=0.0, strain=0, exposed=E0, infected=I0, removed=R0_)]
    schedule = ControlSchedule.constant(grid, u)
    return simulate(initial, params, schedule, events, grid), params, grid


class TestTimeGrid:
    def test_horizon_snaps_to_grid(self):
        grid = TimeGrid.from_horizon(0.0, 10.0, 0.1)
        assert grid.n_steps == 100
        assert grid.T == pytest.approx(10.0)
        assert len(grid.times()) == 101

    def test_incommensurate_horizon_rejected(self):
        with pytest.raises(ConfigError):
            TimeGrid.from_horizon(0.0, 10.05, 0.1)
        # The tolerance of every same-time check, which config load also uses.
        with pytest.raises(ConfigError):
            TimeGrid.from_horizon(0.0, 730.00001, 0.1)

    @pytest.mark.parametrize("horizon, dt", [(math.inf, 0.1), (1e308, 0.1), (730.0, 1e-320)])
    def test_step_count_beyond_float_range_is_rejected(self, horizon, dt):
        with pytest.raises(DomainError, match="finite step count"):
            TimeGrid.from_horizon(0.0, horizon, dt)

    @pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -1.0])
    def test_from_horizon_checks_the_step_as_the_constructor_does(self, dt):
        with pytest.raises(DomainError) as direct:
            TimeGrid(t0=0.0, dt=dt, n_steps=0)
        with pytest.raises(DomainError, match=r"^dt must be finite and > 0, got ") as err:
            TimeGrid.from_horizon(0.0, 10.0, dt)
        assert type(err.value) is type(direct.value)
        assert str(err.value) == str(direct.value)

    def test_index_of_off_grid_time(self):
        grid = TimeGrid.from_horizon(0.0, 10.0, 0.1)
        assert grid.index_of(0.5) == 5
        with pytest.raises(ConfigError):
            grid.index_of(0.55)

    def test_bad_steps(self):
        with pytest.raises(Exception):
            TimeGrid(t0=0.0, dt=0.0, n_steps=10)

    @pytest.mark.parametrize("n_steps", [10.0, 2.5, "10"])
    def test_non_integral_step_count_is_rejected(self, n_steps):
        with pytest.raises(DomainError, match="n_steps must be an integer"):
            TimeGrid(0.0, 0.1, n_steps)
        assert TimeGrid(0.0, 0.1, np.int64(10)).n_points == 11

    @pytest.mark.parametrize("field", ["t0", "dt"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_or_step_is_rejected(self, field, value):
        kwargs = {"t0": 0.0, "dt": 0.1, "n_steps": 3, field: value}
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            TimeGrid(**kwargs)

    @pytest.mark.parametrize("t0, dt, n_steps", [
        (1e308, 1e308, 1), (0.0, 1e308, 2), (-1e308, 1e308, 2), (0.0, 1.0, 10**400),
    ], ids=["t0 + dt", "2 dt", "2 dt after a negative t0", "n_steps past the float range"])
    def test_last_node_must_be_finite(self, t0, dt, n_steps):
        with pytest.raises(DomainError, match=r"last node t0 \+ n_steps\*dt must be finite"):
            TimeGrid(t0, dt, n_steps)
        assert TimeGrid(-1e308, 1e308, 1).T == 0.0
        assert TimeGrid(0.0, 1e308, 1).T == 1e308

    @pytest.mark.parametrize("time, reason", [
        (-0.5, r"before the start 0\.0"),
        (10.5, r"after the horizon 10\.0"),
        (1e308, "after the horizon"),
        (-1e308, "before the start"),
        (0.55, r"dt=0\.1 does not divide its offset"),
    ])
    def test_index_of_names_why_a_time_is_off_the_grid(self, time, reason):
        grid = TimeGrid.from_horizon(0.0, 10.0, 0.1)
        with pytest.raises(ConfigError, match=f"does not lie on the grid: .*{reason}"):
            grid.index_of(time)

    def test_index_of_allows_round_off_at_either_end(self):
        grid = TimeGrid.from_horizon(0.0, 10.0, 0.1)
        assert grid.index_of(-1e-12) == 0
        assert grid.index_of(10.0 + 1e-9) == 100
        assert [grid.index_of(t) for t in grid.times().tolist()] == list(range(101))

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_off_the_grid(self, time):
        grid = TimeGrid.from_horizon(0.0, 10.0, 0.1)
        with pytest.raises(ConfigError, match="does not lie on the grid: it is not finite"):
            grid.index_of(time)


class TestSeedEvent:
    @pytest.mark.parametrize("field", ["time", "exposed", "infected", "removed"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_or_amount_is_rejected(self, field, value):
        kwargs = {"time": 10.0, "strain": 0, "exposed": 1.0, field: value}
        with pytest.raises(DomainError, match=f"seed {field} must be finite"):
            SeedEvent(**kwargs)

    def test_negative_amount_is_rejected(self):
        with pytest.raises(DomainError, match=">= 0"):
            SeedEvent(time=0.0, strain=0, removed=-1.0)

    @pytest.mark.parametrize("strain", [0.5, 1.0, -1, "0"])
    def test_strain_must_be_a_non_negative_integer(self, strain):
        with pytest.raises(DomainError, match="strain index must be an integer"):
            SeedEvent(0.0, strain)
        assert SeedEvent(0.0, np.int64(1)).strain == 1


def one_step(state, params, u, dt):
    """The state after one ``simulate`` step of ``dt`` under constant ``u``."""
    grid = TimeGrid(t0=state.t, dt=dt, n_steps=1)
    return simulate(state, params, ControlSchedule.constant(grid, u), [], grid).state_at(1)


class TestRk4Step:
    def params(self):
        return [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]

    def test_fixed_point_stays_put(self):
        state = EpidemicState(t=3.0, P=1e6, E=[0.0], I=[0.0], R=[0.0])
        out = one_step(state, self.params(), 0.2, 0.5)
        assert out.t == 3.5
        assert out.P == 1e6
        assert np.all(out.E == 0) and np.all(out.I == 0) and np.all(out.R == 0)

    def test_linear_decay_matches_fourth_order_polynomial(self):
        # Full lockdown: dE/dt = -sigma E, exactly linear, so one RK4 step is
        # the degree-4 truncation of the exponential.
        state = EpidemicState(t=0.0, P=1e9, E=[100.0], I=[0.0], R=[0.0])
        out = one_step(state, self.params(), 1.0, 1.0)
        assert out.E[0] == pytest.approx(86.6878384006664, abs=1e-10)
        assert abs(out.E[0] - 100.0 * math.exp(-SIGMA)) < 1e-4

    def test_convergence_is_fourth_order(self):
        # Coarse steps keep the truncation error well above round-off.
        def final(dt):
            traj, _, _ = baseline_run(dt=dt, horizon=200.0)
            return np.array(
                [traj.P[-1], traj.E[-1, 0], traj.I[-1, 0], traj.R[-1, 0]]
            )

        d1 = np.linalg.norm(final(0.4) - final(0.2))
        d2 = np.linalg.norm(final(0.2) - final(0.1))
        assert 8.0 < d1 / d2 < 32.0


class TestSimulate:
    def test_zero_step_grid(self):
        params = [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]
        grid = TimeGrid(t0=0.0, dt=0.05, n_steps=0)
        initial = EpidemicState(t=0.0, P=P0, E=[5.0], I=[1.0], R=[0.0])
        traj = simulate(initial, params, ControlSchedule.constant(grid, 0.0), [], grid)
        assert traj.grid.n_points == 1
        assert traj.P[0] == P0
        assert traj.E[0, 0] == 5.0

    def test_seed_event_moves_susceptibles_not_population(self):
        traj, _, _ = baseline_run(dt=0.05, horizon=1.0)
        assert traj.P[0] == P0
        assert traj.E[0, 0] == E0 and traj.I[0, 0] == I0 and traj.R[0, 0] == R0_
        assert traj.susceptible_matrix()[0, 0] == 217e6

    def test_off_grid_event_rejected(self):
        params = [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]
        grid = TimeGrid.from_horizon(0.0, 10.0, 0.1)
        initial = EpidemicState(t=0.0, P=P0, E=[0.0], I=[0.0], R=[0.0])
        events = [SeedEvent(time=0.55, strain=0, exposed=1.0)]
        with pytest.raises(ConfigError):
            simulate(initial, params, ControlSchedule.constant(grid, 0.0), events, grid)

    @pytest.mark.parametrize("time", [1e308, -1e308, 1.7976931348623157e308])
    def test_seed_time_past_the_float_range_of_the_grid_is_a_config_error(self, time):
        # (time - t0) / dt overflows to inf here, so the range must be checked
        # before anything is rounded.
        params = [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]
        grid = TimeGrid.from_horizon(0.0, 10.0, 0.1)
        initial = EpidemicState(t=0.0, P=P0, E=[0.0], I=[0.0], R=[0.0])
        events = [SeedEvent(time=time, strain=0, exposed=1.0)]
        with pytest.raises(ConfigError, match="does not lie on the grid"):
            simulate(initial, params, ControlSchedule.constant(grid, 0.0), events, grid)

    def test_oversized_seed_rejected(self):
        params = [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]
        grid = TimeGrid.from_horizon(0.0, 1.0, 0.1)
        initial = EpidemicState(t=0.0, P=100.0, E=[0.0], I=[0.0], R=[0.0])
        events = [SeedEvent(time=0.0, strain=0, exposed=200.0)]
        with pytest.raises(StateConsistencyError):
            simulate(initial, params, ControlSchedule.constant(grid, 0.0), events, grid)

    def test_schedule_grid_mismatch(self):
        params = [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]
        grid = TimeGrid.from_horizon(0.0, 10.0, 0.1)
        other = TimeGrid.from_horizon(0.0, 10.0, 0.2)
        initial = EpidemicState(t=0.0, P=P0, E=[0.0], I=[0.0], R=[0.0])
        with pytest.raises(ConfigError):
            simulate(initial, params, ControlSchedule.constant(other, 0.0), [], grid)

    # One input per rejection of simulate and Trajectory, each with a single
    # flaw, and the error and exact message it raises.
    REJECTIONS = {
        "schedule that is an array": (
            lambda p, g, i, s: simulate(i, p, s.u, [], g),
            DomainError, "simulate expects a ControlSchedule",
        ),
        "strain count": (
            lambda p, g, i, s: simulate(i, p * 2, s, [], g),
            DomainError, "initial state and parameter list disagree on strain count",
        ),
        "initial time": (
            lambda p, g, i, s: simulate(replace(i, t=1.0), p, s, [], g),
            ConfigError, "initial state is at t=1.0 but the grid starts at 0.0",
        ),
        "seed strain": (
            lambda p, g, i, s: simulate(i, p, s, [SeedEvent(time=0.0, strain=1, exposed=1.0)], g),
            ConfigError, "seed event targets unknown strain 1",
        ),
        "P length": (
            lambda p, g, i, s: Trajectory(g, np.ones(20), np.zeros((21, 1)),
                                          np.zeros((21, 1)), np.zeros((21, 1)), s.u),
            DomainError, "P and u must hold one value per grid node",
        ),
        "E, I, R shapes": (
            lambda p, g, i, s: Trajectory(g, np.ones(21), np.zeros((21, 1)),
                                          np.zeros((21, 2)), np.zeros((21, 1)), s.u),
            DomainError, "E, I, R must share one (nodes, strains) shape",
        ),
        "history rows": (
            lambda p, g, i, s: Trajectory(g, np.ones(21), np.zeros((20, 1)),
                                          np.zeros((20, 1)), np.zeros((20, 1)), s.u),
            DomainError, "per-strain history must hold one row per grid node",
        ),
    }

    @pytest.mark.parametrize("case", REJECTIONS)
    def test_rejection(self, case):
        params = [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]
        grid = TimeGrid.from_horizon(0.0, 10.0, 0.5)
        initial = EpidemicState(t=0.0, P=P0, E=[0.0], I=[0.0], R=[0.0])
        build, error, message = self.REJECTIONS[case]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build(params, grid, initial, ControlSchedule.constant(grid, 0.0))

    def test_state_at_a_negative_index_counts_from_the_last_node(self):
        traj, _, grid = baseline_run(dt=0.5, horizon=10.0)
        last, end = traj.state_at(-1), traj.state_at(grid.n_points - 1)
        assert (last.t, last.P) == (end.t, end.P) == (grid.T, traj.P[-1])
        assert (last.E, last.I, last.R) == (end.E, end.I, end.R)
        assert traj.state_at(-grid.n_points).t == 0.0
        for k in (grid.n_points, -grid.n_points - 1):
            with pytest.raises(IndexError):
                traj.state_at(k)

    def test_blow_up_raises_integration_error(self):
        # A transmission rate this large overflows within a few steps.
        params = [StrainParams(beta=1e4, sigma=0.1, gamma=0.1, delta=0.1, mu=0.0)]
        grid = TimeGrid.from_horizon(0.0, 50.0, 0.5)
        initial = EpidemicState(t=0.0, P=1e8, E=[0.0], I=[10.0], R=[0.0])
        with pytest.raises(IntegrationError) as err:
            simulate(initial, params, ControlSchedule.constant(grid, 0.0), [], grid)
        assert err.value.step is not None

    def test_population_never_increases_and_pools_stay_valid(self):
        traj, _, _ = baseline_run(dt=0.05, horizon=300.0)
        assert np.all(np.diff(traj.P) <= 0.0)
        assert np.all(traj.susceptible_matrix() >= 0.0)
        assert np.all(traj.E >= 0.0) and np.all(traj.I >= 0.0) and np.all(traj.R >= 0.0)

    def test_deaths_match_quadrature_of_infections(self):
        traj, params, grid = baseline_run(dt=0.05, horizon=300.0)
        deaths = traj.P[0] - traj.P[-1]
        rate = MU * traj.I[:, 0]
        integral = grid.dt * (rate.sum() - 0.5 * (rate[0] + rate[-1]))
        assert deaths == pytest.approx(integral, rel=1e-4)

    def test_recorded_arrays_are_read_only(self):
        traj, _, _ = baseline_run(dt=0.1, horizon=5.0)
        for name in ("P", "E", "I", "R", "u"):
            values = getattr(traj, name)
            assert values.flags.writeable is False
            with pytest.raises(ValueError):
                values[0] = 0.0

    def test_callers_arrays_stay_writable(self):
        # The trajectory keeps read-only views of the arrays it is given, not
        # copies, and leaves those arrays writable.  S is formed when the
        # trajectory is built, so a later write does not reach it.
        grid = TimeGrid(t0=0.0, dt=1.0, n_steps=2)
        P, E, u = np.ones(3), np.zeros((3, 1)), np.zeros(3)
        traj = Trajectory(grid, P, E, E, E, u)
        assert not any(getattr(traj, name).flags.writeable for name in "PEIRu")
        P[0] = 2.0
        E[1, 0] = 3.0
        assert traj.P[0] == 2.0 and traj.R[1, 0] == 3.0
        assert traj.susceptible_matrix().tolist() == [[1.0], [1.0], [1.0]]

    def test_susceptible_matrix_is_formed_once(self):
        traj, _, _ = baseline_run(dt=0.1, horizon=5.0)
        S = traj.susceptible_matrix()
        assert traj.susceptible_matrix() is S
        assert S.flags.writeable is False
        with pytest.raises(ValueError):
            S[0, 0] = 0.0

    def test_deterministic_repetition(self):
        t1, _, _ = baseline_run(dt=0.1, horizon=50.0)
        t2, _, _ = baseline_run(dt=0.1, horizon=50.0)
        assert np.array_equal(t1.P, t2.P)
        assert np.array_equal(t1.E, t2.E)

    def test_full_lockdown_extinguishes_infection(self):
        traj, _, _ = baseline_run(dt=0.05, horizon=400.0, u=1.0)
        E = traj.E[:, 0]
        assert np.all(np.diff(E) <= 1e-12 * E[0])
        assert traj.E[-1, 0] + traj.I[-1, 0] < 1e-6 * (E0 + I0)

    def test_second_strain_activation_keeps_compartments_blank(self):
        params = [
            StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU),
            StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU),
        ]
        grid = TimeGrid.from_horizon(0.0, 40.0, 0.1)
        initial = EpidemicState(t=0.0, P=P0, E=[0.0, 0.0], I=[0.0, 0.0], R=[0.0, 0.0])
        events = [
            SeedEvent(time=0.0, strain=0, exposed=E0, infected=I0, removed=R0_),
            SeedEvent(time=20.0, strain=1, exposed=E0, infected=I0, removed=R0_),
        ]
        traj = simulate(initial, params, ControlSchedule.constant(grid, 0.0), events, grid)
        before = traj.grid.index_of(20.0)
        assert np.all(traj.E[:before, 1] == 0.0)
        assert np.all(traj.I[:before, 1] == 0.0)
        assert traj.E[before, 1] == E0
        assert traj.I[-1, 1] > I0

    def test_unseeded_strain_susceptibles_track_population(self):
        # Until its seed on day 20 strain 2 has no flows: its susceptible
        # pool is all of P and strain 1 runs as in the one-strain model.
        params = [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)] * 2
        grid = TimeGrid.from_horizon(0.0, 40.0, 0.1)
        initial = EpidemicState(t=0.0, P=P0, E=[0.0, 0.0], I=[0.0, 0.0], R=[0.0, 0.0])
        events = [
            SeedEvent(time=0.0, strain=0, exposed=E0, infected=I0, removed=R0_),
            SeedEvent(time=20.0, strain=1, exposed=E0, infected=I0, removed=R0_),
        ]
        traj = simulate(initial, params, ControlSchedule.constant(grid, 0.0), events, grid)
        alone, _, _ = baseline_run(dt=0.1, horizon=40.0)
        before = traj.grid.index_of(20.0)
        assert np.array_equal(traj.susceptible_matrix()[:before, 1], traj.P[:before])
        assert np.array_equal(traj.P[:before + 1], alone.P[:before + 1])
        assert np.array_equal(traj.E[:before + 1, 0], alone.E[:before + 1, 0])
        assert traj.P[-1] != alone.P[-1]

    def test_seeds_of_one_strain_add_up(self):
        # A second seed of a strain that is already spreading adds to its
        # compartments as they stand on the seed day.
        params = [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]
        grid = TimeGrid.from_horizon(0.0, 30.0, 0.1)
        initial = EpidemicState(t=0.0, P=P0, E=[0.0], I=[0.0], R=[0.0])
        first = SeedEvent(time=5.0, strain=0, exposed=E0, infected=I0, removed=R0_)
        second = SeedEvent(time=10.0, strain=0, exposed=100.0, infected=20.0, removed=3.0)
        schedule = ControlSchedule.constant(grid, 0.0)
        once = simulate(initial, params, schedule, [first], grid)
        twice = simulate(initial, params, schedule, [first, second], grid)
        k = grid.index_of(10.0)
        for name in ("P", "E", "I", "R"):
            assert np.array_equal(getattr(twice, name)[:k], getattr(once, name)[:k])
        assert twice.P[k] == once.P[k]
        assert twice.E[k, 0] == once.E[k, 0] + 100.0
        assert twice.I[k, 0] == once.I[k, 0] + 20.0
        assert twice.R[k, 0] == once.R[k, 0] + 3.0
        assert twice.I[-1, 0] > once.I[-1, 0]


def oracle_simulate(initial, params, u, events, grid):
    """Plain numpy RK4 over x = [P, E, I, R], one row per grid node.

    The flows come from ``full_system_rhs`` with ``S = P - E - I - R`` at
    every stage, the middle stages take the control ``(u_k + u_{k+1}) / 2``
    and seeds are added at their nodes before the node is recorded.
    """
    n = len(params)

    def f(x, uu):
        P, E, I, R = x[0], x[1:1 + n], x[1 + n:1 + 2 * n], x[1 + 2 * n:]
        dP, _, dE, dI, dR = full_system_rhs(P, P - E - I - R, E, I, R, params, uu)
        return np.concatenate(([dP], dE, dI, dR))

    x = np.concatenate(([initial.P], initial.E, initial.I, initial.R))
    out = np.empty((grid.n_points, 3 * n + 1))
    h = grid.dt
    for k in range(grid.n_points):
        for ev in events:
            if grid.index_of(ev.time) == k:
                x[1 + ev.strain] += ev.exposed
                x[1 + n + ev.strain] += ev.infected
                x[1 + 2 * n + ev.strain] += ev.removed
        out[k] = x
        if k == grid.n_steps:
            break
        um = 0.5 * (u[k] + u[k + 1])
        k1 = f(x, u[k])
        k2 = f(x + 0.5 * h * k1, um)
        k3 = f(x + 0.5 * h * k2, um)
        k4 = f(x + h * k3, u[k + 1])
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def late_strains(n):
    """Strain j is seeded on day 10 j and has its own beta."""
    params = [
        StrainParams(beta=BETA * (1.0 + 0.1 * j), sigma=SIGMA, gamma=GAMMA,
                     delta=DELTA, mu=MU * (1.0 + 0.2 * j))
        for j in range(n)
    ]
    events = [
        SeedEvent(time=10.0 * j, strain=j, exposed=E0, infected=I0, removed=R0_)
        for j in range(n)
    ]
    initial = EpidemicState(t=0.0, P=P0, E=[0.0] * n, I=[0.0] * n, R=[0.0] * n)
    return initial, params, events


class TestForwardOracle:
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_nodes_match_a_numpy_rk4_on_the_full_system(self, n):
        initial, params, events = late_strains(n)
        grid = TimeGrid.from_horizon(0.0, 150.0, 0.1)
        u = 0.3 + 0.2 * np.sin(2.0 * math.pi * grid.times() / 60.0)
        traj = simulate(initial, params, ControlSchedule(grid, u), events, grid)
        expected = oracle_simulate(initial, params, u, events, grid)
        got = np.column_stack([traj.P, traj.E, traj.I, traj.R])
        assert traj.I[-1, n - 1] > I0  # the last strain really spread
        assert np.max(np.abs(got - expected)) <= 1e-12 * P0

    def test_one_simulate_step_takes_the_midpoint_control(self):
        _, params, _ = late_strains(2)
        grid = TimeGrid(t0=10.0, dt=0.1, n_steps=1)
        state = EpidemicState(t=10.0, P=P0, E=[E0, E0], I=[I0, I0], R=[R0_, R0_])
        u = [0.15, 0.35]
        traj = simulate(state, params, ControlSchedule(grid, u), [], grid)
        got = np.concatenate(([traj.P[1]], traj.E[1], traj.I[1], traj.R[1]))
        expected = oracle_simulate(state, params, u, [], grid)[1]
        assert np.max(np.abs(got - expected)) <= 1e-12 * P0


def overshoot_state(t):
    """P = 1 with almost everyone infected: the RK4 step on S' = -beta I S
    overshoots once beta I dt passes about 2.785 and drives E below zero."""
    return EpidemicState(t=t, P=1.0, E=[0.0], I=[0.999], R=[0.0])


def overshoot_params(e_target):
    """Parameters under which one unit RK4 step from ``overshoot_state``
    leaves E at ``e_target``, found by bisection on beta with the oracle."""

    def make(beta):
        return [StrainParams(beta=beta, sigma=1e-6, gamma=1e-6, delta=1e-6, mu=0.0)]

    def e_after(beta):
        grid = TimeGrid(t0=0.0, dt=1.0, n_steps=1)
        state = overshoot_state(0.0)
        return oracle_simulate(state, make(beta), [0.0, 0.0], [], grid)[1, 1]

    lo, hi = 2.0 / 0.999, 3.5 / 0.999  # E > 0 at lo, E < target at hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if e_after(mid) > e_target else (lo, mid)
    assert e_after(lo) == pytest.approx(e_target, rel=1e-3)
    return make(lo)


class TestClamp:
    """Admissibility of the step result: P = 1, so the tolerance is
    NEGATIVE_TOLERANCE itself."""

    def test_round_off_negative_becomes_exact_zero(self):
        params = overshoot_params(-0.5 * NEGATIVE_TOLERANCE)
        out = one_step(overshoot_state(0.0), params, 0.0, 1.0)
        assert out.E[0] == 0.0 and math.copysign(1.0, out.E[0]) == 1.0
        assert out.I[0] > 0.0

    def test_negative_just_beyond_tolerance_raises_with_the_step(self):
        params = overshoot_params(-1.5 * NEGATIVE_TOLERANCE)
        with pytest.raises(IntegrationError) as err:
            one_step(overshoot_state(3.0), params, 0.0, 1.0)
        assert err.value.step == 0
        # The strain is seeded on day 3, so the overshoot comes at step 3.
        grid = TimeGrid(t0=0.0, dt=1.0, n_steps=5)
        initial = EpidemicState(t=0.0, P=1.0, E=[0.0], I=[0.0], R=[0.0])
        seed = [SeedEvent(time=3.0, strain=0, infected=0.999)]
        with pytest.raises(IntegrationError) as err:
            simulate(initial, params, ControlSchedule.constant(grid, 0.0), seed, grid)
        assert err.value.step == 3

    def test_nan_compartment_raises(self):
        # For the unseeded strain (beta * S) overflows and meets I = 0, so
        # its E slope turns NaN in stage 1; by stage 3 the NaN reaches I and,
        # through the deaths, P.
        params = [
            StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU),
            StrainParams(beta=1e308, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU),
        ]
        grid = TimeGrid(t0=0.0, dt=1.0, n_steps=3)
        initial = EpidemicState(t=0.0, P=1e6, E=[10.0, 0.0], I=[10.0, 0.0], R=[0.0, 0.0])
        with pytest.raises(IntegrationError, match="nan") as err:
            simulate(initial, params, ControlSchedule.constant(grid, 0.0), [], grid)
        assert err.value.step == 0

    def test_infinite_compartment_raises(self):
        # Every stage slope of E is finite and positive, about P, but their
        # weighted sum overflows, so E turns +inf while P stays finite.
        params = [StrainParams(beta=1e-100, sigma=1e-220, gamma=1e-220, delta=1e-220,
                               mu=0.0)]
        state = EpidemicState(t=0.0, P=1e308, E=[0.0], I=[1e100], R=[0.0])
        grid = TimeGrid(t0=0.0, dt=1.0, n_steps=2)
        with pytest.raises(IntegrationError, match="value inf") as err:
            simulate(state, params, ControlSchedule.constant(grid, 0.0), [], grid)
        assert err.value.step == 0

    def test_non_finite_population_raises(self):
        params = [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=1e10)]
        state = EpidemicState(t=0.0, P=1e300, E=[0.0], I=[1e299], R=[0.0])
        grid = TimeGrid(t0=0.0, dt=1.0, n_steps=2)
        with pytest.raises(IntegrationError, match="total population") as err:
            simulate(state, params, ControlSchedule.constant(grid, 0.0), [], grid)
        assert err.value.step == 0


KERNEL_INPUTS = {
    "experiment1": lambda: preset_inputs("experiment1"),
    "experiment3": lambda: preset_inputs("experiment3"),
    "case_a_varying_u": lambda: preset_inputs("case_a", wave),
    "eight_strains": many_strain_inputs,
    "seeds_at_node_0_and_N": lambda: seeded_inputs(
        SeedEvent(time=0.0, strain=0, exposed=E0, infected=I0, removed=R0_),
        SeedEvent(time=30.0, strain=1, exposed=E0, infected=I0, removed=R0_),
    ),
    "two_seeds_one_strain_one_node": lambda: seeded_inputs(
        SeedEvent(time=0.0, strain=1, exposed=E0, infected=I0, removed=R0_),
        SeedEvent(time=5.0, strain=0, exposed=0.1, infected=0.7, removed=0.3),
        SeedEvent(time=5.0, strain=0, exposed=E0, infected=I0, removed=R0_),
    ),
    "zero_seed": lambda: seeded_inputs(
        SeedEvent(time=0.0, strain=0, exposed=E0, infected=I0, removed=R0_),
        SeedEvent(time=3.0, strain=1),
    ),
}


def history_bytes(traj):
    return [getattr(traj, name).tobytes() for name in ("P", "E", "I", "R")]


def outcome(run, *inputs):
    """The history bytes of a run, or its error's type, message and step."""
    try:
        return history_bytes(run(*inputs))
    except (IntegrationError, StateConsistencyError) as exc:
        return type(exc), str(exc), getattr(exc, "step", None)


class TestCompiledLoop:
    """``simulate`` runs its node loop in compiled C or in Python; the two
    agree bit for bit, failures included."""

    @pytest.mark.parametrize("name", list(KERNEL_INPUTS))
    def test_history_is_the_reference_bit_for_bit(self, name):
        inputs = KERNEL_INPUTS[name]()
        assert history_bytes(compiled_simulate(*inputs)) == history_bytes(
            reference_simulate(*inputs)
        )

    @pytest.mark.parametrize("run", [compiled_simulate, reference_simulate])
    def test_seeds_add_in_order_and_land_on_their_node(self, run):
        # Two seeds of strain 0 on day 5 add in input order; the one on the
        # last node is in the recorded last row; the zero seed changes nothing.
        _, _, _, _, grid = seeded_inputs()
        two = run(*KERNEL_INPUTS["two_seeds_one_strain_one_node"]())
        k = grid.index_of(5.0)
        assert two.E[k - 1, 0] == 0.0 and two.E[k, 0] == (0.0 + 0.1) + E0
        ends = run(*KERNEL_INPUTS["seeds_at_node_0_and_N"]())
        assert np.all(ends.E[:-1, 1] == 0.0) and ends.E[-1, 1] == E0
        zero = run(*KERNEL_INPUTS["zero_seed"]())
        assert np.all(zero.E[:, 1] == 0.0) and np.all(zero.I[:, 1] == 0.0)

    @pytest.mark.parametrize("make", [
        lambda: (overshoot_state(0.0), overshoot_params(-0.5 * NEGATIVE_TOLERANCE),
                 0.0, 1.0, 1),
        lambda: (overshoot_state(0.0), overshoot_params(-1.5 * NEGATIVE_TOLERANCE),
                 0.0, 1.0, 1),
        lambda: (EpidemicState(t=0.0, P=1e6, E=[10.0, 0.0], I=[10.0, 0.0], R=[0.0, 0.0]),
                 [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU),
                  StrainParams(beta=1e308, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)],
                 0.0, 1.0, 3),
        lambda: (EpidemicState(t=0.0, P=1e308, E=[0.0], I=[1e100], R=[0.0]),
                 [StrainParams(beta=1e-100, sigma=1e-220, gamma=1e-220, delta=1e-220,
                               mu=0.0)], 0.0, 1.0, 2),
        lambda: (EpidemicState(t=0.0, P=1e300, E=[0.0], I=[1e299], R=[0.0]),
                 [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=1e10)],
                 0.0, 1.0, 2),
        lambda: (EpidemicState(t=0.0, P=1e8, E=[0.0], I=[10.0], R=[0.0]),
                 [StrainParams(beta=1e4, sigma=0.1, gamma=0.1, delta=0.1, mu=0.0)],
                 0.0, 0.5, 100),
    ], ids=["clamped", "beyond_tol", "nan", "inf", "population", "blow_up"])
    def test_failures_match_the_reference(self, make):
        state, params, u, dt, steps = make()
        grid = TimeGrid(t0=state.t, dt=dt, n_steps=steps)
        inputs = (state, params, ControlSchedule.constant(grid, u), [], grid)
        assert outcome(compiled_simulate, *inputs) == outcome(reference_simulate, *inputs)

    @pytest.mark.parametrize("run", [compiled_simulate, reference_simulate])
    def test_a_failure_after_a_seed_keeps_its_global_step(self, run):
        # Strain 0 overshoots below zero on its own, at step 38.  A seed of
        # strain 1, whose flows never reach strain 0 since no strain dies,
        # splits the run at node 3 and changes nothing of strain 0, so the
        # failure keeps its step.
        params = [
            StrainParams(beta=2e-7, sigma=0.1, gamma=0.1, delta=0.1, mu=0.0),
            StrainParams(beta=1e-12, sigma=0.1, gamma=0.1, delta=0.1, mu=0.0),
        ]
        state = EpidemicState(t=0.0, P=1e8, E=[0.0, 0.0], I=[10.0, 0.0], R=[0.0, 0.0])
        grid = TimeGrid(t0=0.0, dt=0.5, n_steps=100)
        schedule = ControlSchedule.constant(grid, 0.0)
        alone = outcome(run, state, params, schedule, [], grid)
        seed = SeedEvent(time=1.5, strain=1, exposed=1.0)
        assert alone[0] is IntegrationError and alone[2] == 38
        assert outcome(run, state, params, schedule, [seed], grid) == alone

    def test_oversized_seed_names_its_own_day(self):
        inputs = seeded_inputs(
            SeedEvent(time=2.0, strain=0, exposed=E0),
            SeedEvent(time=2.0, strain=1, exposed=2.0 * P0),
        )
        got = outcome(compiled_simulate, *inputs)
        assert got == outcome(reference_simulate, *inputs)
        assert got[0] is StateConsistencyError and "day 2.0" in got[1] and "strain 1" in got[1]

    def test_calls_share_no_state(self):
        # Interleaved 1- and 8-strain runs, serially and from two threads,
        # each give what a fresh serial call gives.
        one = seeded_inputs(SeedEvent(time=0.0, strain=0, exposed=E0, infected=I0), n=1)
        eight = seeded_inputs(
            *(SeedEvent(time=2.0 * j, strain=j, exposed=E0, infected=I0) for j in range(8)),
            n=8,
        )
        runs = [one, eight]
        fresh = [history_bytes(reference_simulate(*inputs)) for inputs in runs]
        order = [0, 1] * 4
        serial = [history_bytes(compiled_simulate(*runs[i])) for i in order]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda i: history_bytes(simulate(*runs[i])), order))
        for i, a, b in zip(order, serial, threaded):
            assert a == fresh[i]
            assert b == fresh[i]


# One process starts the build, forks a child while cc runs and two after
# cc has exited but before it is reaped, then asks for the library itself.
# Each process writes whether it ended on the library and the digest of its
# history to a file named after it in the directory argv[2].
FORK_SCRIPT = """
import hashlib, math, os, sys, traceback
sys.path.insert(0, sys.argv[1])
from multistrain import integrate, simulate, EpidemicState, StrainParams, ControlSchedule, TimeGrid

g = TimeGrid(0.0, 1.0, 50)
x = EpidemicState(t=0.0, P=1e6, E=[1.0], I=[1.0], R=[0.0])
p = [StrainParams(beta=1e-7, sigma=0.2, gamma=0.1, delta=0.01, mu=0.0)]


def run():
    return simulate(x, p, ControlSchedule.constant(g, 0.0), [], g)


def report(name):
    try:
        loaded = bool(integrate._kernel("ms_rk4", math.inf))
        t = run()
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (t.P, t.E, t.I, t.R)))
        text = f"{loaded} {digest.hexdigest()}"
    except BaseException:
        text = traceback.format_exc()
    with open(os.path.join(sys.argv[2], name), "w") as fh:
        fh.write(text)


def fork(name):
    pid = os.fork()
    if pid == 0:
        report(name)
        os._exit(0)
    return pid


run()
cc = integrate._build[0]
children = [fork("running")]
open(os.environ["GO"], "w").close()
os.waitid(os.P_PID, cc.pid, os.WEXITED | os.WNOWAIT)
children += [fork("exited-0"), fork("exited-1")]
report("parent")
assert all(os.waitpid(pid, 0)[1] == 0 for pid in children)
"""


# A thread waits for the build, holding the kernel lock, while the main
# thread forks.  The child runs a simulate and writes the digest of its
# history to the file argv[2]/child; the parent gives it ten seconds, then
# kills it, lets cc build and waits for the thread.
FORK_WHILE_WAITING_SCRIPT = """
import hashlib, math, os, sys, threading, time
sys.path.insert(0, sys.argv[1])
from multistrain import integrate, simulate, EpidemicState, StrainParams, ControlSchedule, TimeGrid

g = TimeGrid(0.0, 1.0, 50)
x = EpidemicState(t=0.0, P=1e6, E=[1.0], I=[1.0], R=[0.0])
p = [StrainParams(beta=1e-7, sigma=0.2, gamma=0.1, delta=0.01, mu=0.0)]
waiter = threading.Thread(target=integrate._kernel, args=("ms_rk4", math.inf))
waiter.start()
while integrate._build is None or not integrate._KERNEL_LOCK.locked():
    time.sleep(0.001)
pid = os.fork()
if pid == 0:
    t = simulate(x, p, ControlSchedule.constant(g, 0.0), [], g)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in (t.P, t.E, t.I, t.R)))
    with open(os.path.join(sys.argv[2], "child"), "w") as fh:
        fh.write(digest.hexdigest())
    integrate._end_build()
    os._exit(0)
deadline = time.monotonic() + 10.0
while os.waitpid(pid, os.WNOHANG) == (0, 0) and time.monotonic() < deadline:
    time.sleep(0.01)
if not os.path.exists(os.path.join(sys.argv[2], "child")):
    os.kill(pid, 9)
    os.waitpid(pid, 0)
open(os.environ["GO"], "w").close()
waiter.join()
assert integrate._KERNEL
"""


def run_fork_script(script, tmp_path):
    """Run ``script`` with a stand-in cc that builds once the file $GO
    exists; the reports the script wrote, by file name, and the digest of
    its run's history.  Every build directory must be gone after."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    stand_in = bin_dir / "cc"
    stand_in.write_text(
        '#!/bin/sh\nwhile [ ! -e "$GO" ]; do sleep 0.01; done\n'
        f'exec "{shutil.which("cc")}" "$@"\n'
    )
    stand_in.chmod(0o755)
    tmp, out = tmp_path / "tmp", tmp_path / "out"
    tmp.mkdir()
    out.mkdir()
    src = os.path.dirname(os.path.dirname(integrate.__file__))
    path = str(bin_dir) + os.pathsep + os.environ.get("PATH", "")
    env = {**os.environ, "TMPDIR": str(tmp), "GO": str(tmp_path / "go"), "PATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script, src, str(out)], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert list(tmp.iterdir()) == []
    grid = TimeGrid(0.0, 1.0, 50)
    expected = hashlib.sha256(b"".join(history_bytes(reference_simulate(
        EpidemicState(t=0.0, P=1e6, E=[1.0], I=[1.0], R=[0.0]),
        [StrainParams(beta=1e-7, sigma=0.2, gamma=0.1, delta=0.01, mu=0.0)],
        ControlSchedule.constant(grid, 0.0), [], grid,
    )))).hexdigest()
    return {f.name: f.read_text() for f in out.iterdir()}, expected


def raise_oserror(*args, **kwargs):
    raise OSError("failed to map segment from shared object")


class TestKernelBuild:
    """Which loop a call runs: Python while ``cc`` builds the kernel in the
    background, the kernel once it is ready, and Python for good when the
    build fails; a call too large for Python waits for the build."""

    @pytest.fixture
    def starts(self, monkeypatch, tmp_path):
        """A process that has not started the build, its temporary files in
        an empty directory; the list gains one entry per build started."""
        monkeypatch.setattr(integrate, "_KERNEL", None)
        monkeypatch.setattr(integrate, "_build", None)
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        attempts = []
        start = integrate._start_build
        monkeypatch.setattr(
            integrate, "_start_build", lambda: attempts.append(1) or start()
        )
        yield attempts
        integrate._end_build()

    @pytest.fixture
    def python_calls(self, monkeypatch):
        """The list gains one entry per call that runs the Python loop."""
        calls = []
        loop = integrate._python_loop
        monkeypatch.setattr(
            integrate, "_python_loop", lambda *a: calls.append(1) or loop(*a)
        )
        return calls

    @pytest.fixture
    def cc(self):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler cc on PATH to build _rk4.c")

    @pytest.mark.parametrize(
        "name, stretches", [("experiment1", 1), ("experiment3", 2)],
        ids=["experiment1", "experiment3"],
    )
    def test_one_run_of_a_preset_does_not_wait_for_cc(
        self, name, stretches, starts, python_calls, tmp_path
    ):
        # One Python loop call per stretch between seed nodes: experiment3
        # seeds strain 2 mid-run, experiment1 seeds only on day 0.
        argv = ["simulate", name, "--out", str(tmp_path / "out"), "--quiet", "--no-svg"]
        assert main(argv) == 0
        assert starts == [1] and python_calls == [1] * stretches

    def test_calls_switch_to_the_kernel_once_it_is_built(
        self, cc, starts, python_calls, tmp_path
    ):
        inputs = seeded_inputs(SeedEvent(time=0.0, strain=0, exposed=E0, infected=I0))
        first = simulate(*inputs)
        assert starts == [1] and python_calls == [1]
        integrate._build[0].wait()
        second = simulate(*inputs)
        assert python_calls == [1] and integrate._KERNEL and integrate._build is None
        assert history_bytes(first) == history_bytes(second)
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_a_call_above_the_bound_waits_for_the_build(
        self, cc, starts, python_calls, monkeypatch
    ):
        # 300 steps of 2 strains is 600 strain-steps: under the bound, then
        # over it once the bound is lowered.
        inputs = seeded_inputs(SeedEvent(time=0.0, strain=0, exposed=E0, infected=I0))
        simulate(*inputs)
        assert python_calls == [1] and integrate._build is not None
        monkeypatch.setattr(integrate, "_WAIT_ABOVE", 599)
        simulate(*inputs)
        assert starts == [1] and python_calls == [1] and integrate._KERNEL

    def test_a_call_waits_when_it_outlasts_the_rest_of_the_build(
        self, cc, starts, monkeypatch, tmp_path
    ):
        # A cc that idles for half a second before it builds.  A call worth
        # 0.9 of the build runs in Python as the build starts; a call worth
        # half of it waits once three quarters of the build time are spent.
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        slow = bin_dir / "cc"
        slow.write_text(f'#!/bin/sh\nsleep 0.5\nexec "{shutil.which("cc")}" "$@"\n')
        slow.chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir) + os.pathsep + os.environ["PATH"])
        assert integrate._kernel("ms_rk4", 0.9 * integrate._WAIT_ABOVE) is None
        proc, tmp, started = integrate._build
        spent = 0.75 * integrate._BUILD_SECONDS
        monkeypatch.setattr(integrate, "_build", (proc, tmp, started - spent))
        assert integrate._kernel("ms_rk4", 0.5 * integrate._WAIT_ABOVE)
        assert starts == [1] and integrate._build is None

    def test_a_sweep_counts_each_strain_step_twice(
        self, cc, starts, python_calls, monkeypatch
    ):
        # The adjoint's list loop costs about twice the forward one per
        # strain-step, so a sweep of 300 steps of 2 strains is 1 200 work.
        inputs = seeded_inputs(SeedEvent(time=0.0, strain=0, exposed=E0, infected=I0))
        traj = simulate(*inputs)
        assert python_calls == [1] and integrate._build is not None
        monkeypatch.setattr(integrate, "_WAIT_ABOVE", 1199)
        twin = []
        loop = control._adjoint_loop
        monkeypatch.setattr(control, "_adjoint_loop", lambda *a: twin.append(1) or loop(*a))
        backward_sweep(traj, inputs[1], CostParams(c1=1.0, c2=8.0))
        assert starts == [1] and twin == [] and integrate._KERNEL

    @pytest.mark.parametrize("mode", ["no_cc", "cc_fails", "no_tempdir", "no_load"])
    def test_a_failed_build_leaves_every_run_in_python(
        self, mode, starts, python_calls, monkeypatch, tmp_path
    ):
        if mode == "no_cc":
            monkeypatch.setenv("PATH", "")
        elif mode == "cc_fails":
            bin_dir = tmp_path / "bin"
            bin_dir.mkdir()
            cc = bin_dir / "cc"
            cc.write_text("#!/bin/sh\necho 'cc: error: unrecognized option' >&2\nexit 1\n")
            cc.chmod(0o755)
            monkeypatch.setenv("PATH", str(bin_dir))
        elif mode == "no_tempdir":
            monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        else:
            monkeypatch.setattr(ctypes, "CDLL", raise_oserror)
        argv = ["simulate", "experiment1", "--dt", "0.5", "--horizon", "10",
                "--out", str(tmp_path / "out"), "--quiet", "--no-svg"]
        assert main(argv) == 0
        assert integrate._kernel("ms_rk4", math.inf) is None and integrate._KERNEL is False
        inputs = preset_inputs("experiment1")
        assert history_bytes(simulate(*inputs)) == history_bytes(reference_simulate(*inputs))
        assert starts == [1] and len(python_calls) == 3
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_a_build_running_at_exit_is_killed_and_removed(self, tmp_path):
        # A stand-in cc writes a temporary file, says so and keeps running;
        # the process exits then.  Exit handlers run last-registered first,
        # so the one registered before the call reads cc's status after the
        # kill, and cc's file went with the build's directory.
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        cc = bin_dir / "cc"
        cc.write_text('#!/bin/sh\ntouch "$TMPDIR/cc-temp" "$READY"\nexec sleep 20\n')
        cc.chmod(0o755)
        ready = tmp_path / "ready"
        code = (
            "import atexit, os, sys, time; sys.path.insert(0, sys.argv[1]);"
            "from multistrain import integrate, simulate, EpidemicState,"
            " StrainParams, ControlSchedule, TimeGrid;"
            "atexit.register(lambda: print(build.returncode));"
            "g = TimeGrid(0.0, 1.0, 1);"
            "x = EpidemicState(t=0.0, P=1e6, E=[1.0], I=[1.0], R=[0.0]);"
            "p = [StrainParams(beta=1e-7, sigma=0.2, gamma=0.1, delta=0.01, mu=0.0)];"
            "simulate(x, p, ControlSchedule.constant(g, 0.0), [], g);"
            "build = integrate._build[0];"
            "[time.sleep(0.01) for _ in range(1000) if not os.path.exists(os.environ['READY'])];"
            "assert build.poll() is None"
        )
        src = os.path.dirname(os.path.dirname(integrate.__file__))
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        path = str(bin_dir) + os.pathsep + os.environ.get("PATH", "")
        env = {**os.environ, "TMPDIR": str(tmp), "READY": str(ready), "PATH": path}
        done = subprocess.run(
            [sys.executable, "-c", code, src], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert ready.exists()
        assert done.stdout.strip() == str(-signal.SIGKILL)
        assert list(tmp.iterdir()) == []

    def test_forked_processes_each_end_on_their_own_library(self, cc, tmp_path):
        # The parent makes $GO after its first fork.  A child cannot wait for
        # its parent's cc, so each process must build, load and remove its own.
        reports, expected = run_fork_script(FORK_SCRIPT, tmp_path)
        assert reports == dict.fromkeys(
            ["running", "exited-0", "exited-1", "parent"], f"True {expected}"
        )

    def test_a_child_forked_while_a_thread_waits_for_cc_runs_on_its_own(
        self, cc, tmp_path
    ):
        # The child inherits the lock that the waiting thread holds.
        reports, expected = run_fork_script(FORK_WHILE_WAITING_SCRIPT, tmp_path)
        assert reports == {"child": expected}, "the child blocked on the inherited lock"
