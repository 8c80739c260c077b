import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistrain import control, integrate
from multistrain import (
    ConfigError,
    ControlSchedule,
    CostateState,
    CostateTrajectory,
    CostParams,
    DomainError,
    EpidemicState,
    IntegrationError,
    SeedEvent,
    StrainParams,
    TimeGrid,
    Trajectory,
    analytic_eigenvalues,
    backward_sweep,
    fbsm_solve,
    full_system_rhs,
    max_stable_dt,
    objective,
    optimal_u,
    preset_config,
    set_config_value,
    simulate,
)
from multistrain.dynamics import split
from multistrain.runner import read_trajectory_csv, write_trajectory_csv

from conftest import (
    BETA, DELTA, E0, GAMMA, I0, MU, P0, R0_, SIGMA, compiled_sweep, costate_slope,
    many_strain_inputs, preset_inputs, random_params, random_state, reference_sweep,
    reference_simulate, require_kernel, seeded_inputs, wave,
)


def random_costate(rng, n):
    """Costates ``[phi_P, phi_S, phi_E, phi_I, phi_R]`` stacked in one vector."""
    return np.hstack((
        rng.uniform(-10, 10), *(rng.uniform(-10, 10, size=n) for _ in range(4))
    ))


def hamiltonian(x, phi, params, u, costs):
    """Independent assembly: running reward plus costate-weighted flows."""
    n = len(params)
    P, S, E, I, R = x[0], x[1 : n + 1], x[n + 1 : 2 * n + 1], x[2 * n + 1 : 3 * n + 1], x[3 * n + 1 :]
    pP, pS, pE, pI, pR = split(phi, n)
    dP, dS, dE, dI, dR = full_system_rhs(P, S, E, I, R, params, u)
    value = costs.c1 * P - math.exp(costs.c2 * u)
    value += pP * dP
    value += float(pS @ dS + pE @ dE + pI @ dI + pR @ dR)
    return value


def true_residual(report, params, costs):
    """``max_k |optimal_u(state_k, costate_k) - u_k|`` over a solver report."""
    traj, cos, u = report.trajectory, report.costates, report.schedule.u
    return max(
        abs(optimal_u(traj.state_at(k), cos.state_at(k), params, costs) - u[k])
        for k in range(traj.grid.n_points)
    )


def constant_reward(P, u, costs):
    """The running reward ``c1 * P - exp(c2 * u)``, read off :func:`objective`
    on a one-day trajectory that holds ``P`` and ``u``."""
    grid = TimeGrid(t0=0.0, dt=1.0, n_steps=1)
    zero = np.zeros((2, 1))
    traj = Trajectory(grid, np.full(2, P), zero, zero, zero, np.full(2, u))
    return objective(traj, costs)


class TestRunningCost:
    def test_full_lockdown_cancels_population_value(self):
        costs = CostParams(c1=1.0, c2=math.log(1000.0))
        assert constant_reward(1000.0, 1.0, costs) == pytest.approx(0.0, abs=1e-9)

    def test_no_control_costs_one(self):
        costs = CostParams(c1=2.0, c2=5.0)
        assert constant_reward(300.0, 0.0, costs) == 2.0 * 300.0 - 1.0

    def test_half_control_is_square_root(self):
        costs = CostParams(c1=1.0, c2=math.log(P0))
        expected = 216985524.0714821  # P0 - sqrt(P0), computed independently
        assert constant_reward(P0, 0.5, costs) == pytest.approx(expected, rel=1e-12)

    def test_domain_checks(self):
        # The reward's inputs are checked where they are made: u by the
        # schedule a trajectory is simulated under, c1 and c2 by CostParams.
        grid = TimeGrid(t0=0.0, dt=1.0, n_steps=1)
        with pytest.raises(DomainError, match=r"\[0, 1\], got min=1\.5, max=1\.5"):
            ControlSchedule.constant(grid, 1.5)
        with pytest.raises(DomainError, match=r"non-finite values, got nan"):
            ControlSchedule.constant(grid, math.nan)
        with pytest.raises(DomainError):
            CostParams(c1=0.0, c2=1.0)

    @pytest.mark.parametrize("name", ["c1", "c2"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_weights_must_be_finite(self, name, value):
        # An infinite c1 made the sweep report convergence with a NaN
        # objective, an infinite c2 fail mid-solve; neither gets that far.
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            CostParams(**{"c1": 1.0, "c2": 19.0, name: value})

    def test_config_weight_that_overflows_names_the_section(self):
        # c2 = c2_log_scale * ln(population) overflows to inf.
        with pytest.raises(ConfigError, match="cost: c2 must be finite"):
            set_config_value(preset_config("case_a"), "cost.c2_log_scale", 1e307)


class TestObjective:
    def params(self):
        return [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]

    def test_zero_horizon(self):
        grid = TimeGrid(t0=0.0, dt=0.1, n_steps=0)
        initial = EpidemicState(t=0.0, P=100.0, E=[0.0], I=[0.0], R=[0.0])
        traj = simulate(initial, self.params(), ControlSchedule.constant(grid, 0.4), [], grid)
        assert objective(traj, CostParams(c1=1.0, c2=1.0)) == 0.0

    def test_constant_integrand(self):
        # No infection, mu irrelevant: P stays constant, u constant.
        grid = TimeGrid.from_horizon(0.0, 10.0, 0.5)
        initial = EpidemicState(t=0.0, P=1e4, E=[0.0], I=[0.0], R=[0.0])
        costs = CostParams(c1=2.0, c2=1.5)
        traj = simulate(initial, self.params(), ControlSchedule.constant(grid, 0.3), [], grid)
        expected = 10.0 * (2.0 * 1e4 - math.exp(1.5 * 0.3))
        assert objective(traj, costs) == pytest.approx(expected, rel=1e-13)


class TestCostateDerivatives:
    def test_zero_costates_feel_only_the_population_source(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, 2)
        state = random_state(rng, 2)
        d = costate_slope(state, np.zeros(9), 0.2, params, c1=1.0)
        assert d[0] == -1.0
        assert np.all(d[1:] == 0.0)

    def test_equal_s_and_e_costates_drop_the_difference_terms(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, 2)
        state = random_state(rng, 2)
        phi_s = rng.uniform(-5, 5, size=2)
        phi_i, phi_r = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
        phi_p = 2.0
        d = costate_slope(
            state, np.hstack((phi_p, phi_s, phi_s, phi_i, phi_r)), 0.3, params, c1=1.0
        )
        _, dphi_S, _, dphi_I, _ = split(d, 2)
        assert np.all(dphi_S == 0.0)
        for j, p in enumerate(params):
            other = sum(phi_s[i] for i in range(2) if i != j)
            expected = (
                phi_i[j] * (p.mu + p.gamma) - phi_r[j] * p.gamma
                + phi_p * p.mu + p.mu * other
            )
            assert dphi_I[j] == pytest.approx(expected, rel=1e-13)

    def test_matches_negative_hamiltonian_gradient(self):
        rng = np.random.default_rng(42)
        costs = CostParams(c1=1.0, c2=10.0)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            params = random_params(rng, n)
            state = random_state(rng, n)
            phi = random_costate(rng, n)
            u = float(rng.uniform(0, 1))
            analytic = costate_slope(state, phi, u, params, costs.c1)
            x0 = np.concatenate(
                ([state.P], state.susceptible_all(), state.E, state.I, state.R)
            )
            h = 1e-6 * max(state.P, 1.0)
            fd = np.empty_like(x0)
            for i in range(len(x0)):
                plus = x0.copy()
                plus[i] += h
                minus = x0.copy()
                minus[i] -= h
                fd[i] = (
                    hamiltonian(plus, phi, params, u, costs)
                    - hamiltonian(minus, phi, params, u, costs)
                ) / (2 * h)
            scale = np.abs(analytic).max() + np.abs(fd).max()
            assert np.abs(analytic + fd).max() < 1e-6 * max(scale, 1.0)


class TestOptimalU:
    def make_pair(self, phi_gap, s=1.0, i=1.0, beta=1.0):
        params = [StrainParams(beta=beta, sigma=0.1, gamma=0.1, delta=0.1, mu=0.0)]
        state = EpidemicState(t=0.0, P=s + i, E=[0.0], I=[i], R=[0.0])
        cs = CostateState(phi_P=0.0, phi_S=[phi_gap], phi_E=[0.0],
                          phi_I=[0.0], phi_R=[0.0])
        return state, cs, params

    def test_zero_costates_switch_control_off(self):
        state, _, params = self.make_pair(0.0)
        cs = CostateState(phi_P=0.0, phi_S=[0.0], phi_E=[0.0],
                          phi_I=[0.0], phi_R=[0.0])
        assert optimal_u(state, cs, params, CostParams(c1=1.0, c2=3.0)) == 0.0

    def test_log_argument_one_is_the_switch_point(self):
        c2 = 3.7
        state, cs, params = self.make_pair(phi_gap=c2)
        assert optimal_u(state, cs, params, CostParams(c1=1.0, c2=c2)) == 0.0

    def test_saturates_at_full_lockdown(self):
        c2 = 2.5
        state, cs, params = self.make_pair(phi_gap=c2 * math.exp(c2) * 4.0)
        assert optimal_u(state, cs, params, CostParams(c1=1.0, c2=c2)) == 1.0
        state, cs, params = self.make_pair(phi_gap=c2 * math.exp(c2))
        assert optimal_u(state, cs, params, CostParams(c1=1.0, c2=c2)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_interior_value_satisfies_stationarity(self):
        # Interior points built directly: the switching sum is placed between
        # c2 and c2 e^{c2}, so u* must solve c2 e^{c2 u} = sum exactly.
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = float(rng.uniform(1e3, 1e7))
            i = float(rng.uniform(1e2, 1e5))
            gap = float(rng.uniform(0.5, 20.0))
            c2 = float(rng.uniform(3.0, 15.0))
            u_target = float(rng.uniform(0.15, 0.85))
            total = c2 * math.exp(c2 * u_target)
            beta = total / (s * i * gap)
            params = [StrainParams(beta=beta, sigma=0.1, gamma=0.1, delta=0.1, mu=1e-4)]
            state = EpidemicState(t=0.0, P=s + i, E=[0.0], I=[i], R=[0.0])
            cs = CostateState(phi_P=0.0, phi_S=[gap], phi_E=[0.0],
                              phi_I=[0.0], phi_R=[0.0])
            u = optimal_u(state, cs, params, CostParams(c1=1.0, c2=c2))
            assert 0.0 < u < 1.0
            lhs = c2 * math.exp(c2 * u)
            assert abs(lhs - total) < 1e-9 * total

    def test_always_clamped_to_unit_interval(self):
        rng = np.random.default_rng(6)
        costs = CostParams(c1=1.0, c2=12.0)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            params = random_params(rng, n)
            state = random_state(rng, n)
            cs = CostateState(*split(random_costate(rng, n), n))
            assert 0.0 <= optimal_u(state, cs, params, costs) <= 1.0


def seeded_run(n_strains, n_steps, dt=0.5):
    """A run of ``n_strains`` strains seeded one after another over ``n_steps``
    steps, under a control that varies between nodes."""
    params = [
        StrainParams(beta=(0.3 + 0.05 * j) / 1e6, sigma=0.2, gamma=0.1,
                     delta=0.02, mu=1e-3 * (j + 1))
        for j in range(n_strains)
    ]
    grid = TimeGrid(t0=0.0, dt=dt, n_steps=n_steps)
    zero = [0.0] * n_strains
    initial = EpidemicState(t=0.0, P=1e6, E=zero, I=zero, R=zero)
    events = [
        SeedEvent(grid.time_at(j * n_steps // n_strains), j, exposed=1e3, infected=1e2)
        for j in range(n_strains)
    ]
    u = 0.3 + 0.2 * np.sin(grid.times() / 5.0)
    traj = simulate(initial, params, ControlSchedule(grid, u), events, grid)
    return traj, params


def stacked_costates(cos):
    """Costates as one (nodes, 4n+1) array in the Jacobian's coordinates."""
    return np.hstack((cos.phi_P[:, None], cos.phi_S, cos.phi_E, cos.phi_I, cos.phi_R))


def oracle_costates(traj, params, costs):
    """The adjoint stepped backward from zero one classical RK4 step at a
    time through ``jacobian`` (:func:`conftest.costate_slope`), with the
    state and control at the nodes and at the midpoint interpolants of the
    stored values."""
    grid, n = traj.grid, traj.n_strains
    columns = (traj.P, traj.E, traj.I, traj.R, traj.u)

    def slope(t, phi, P, E, I, R, u):
        state = EpidemicState(t=t, P=P, E=E, I=I, R=R)
        return costate_slope(state, phi, u, params, costs.c1)

    h = -grid.dt
    phi = np.zeros((grid.n_points, 4 * n + 1))
    for k in range(grid.n_steps, 0, -1):
        node = [float(c[k]) if c.ndim == 1 else c[k] for c in columns]
        prev = [float(c[k - 1]) if c.ndim == 1 else c[k - 1] for c in columns]
        mid = [0.5 * (a + b) for a, b in zip(prev, node)]
        t1, t0 = grid.time_at(k), grid.time_at(k - 1)
        tm = 0.5 * (t0 + t1)
        x = phi[k]
        k1 = slope(t1, x, *node)
        k2 = slope(tm, x + 0.5 * h * k1, *mid)
        k3 = slope(tm, x + 0.5 * h * k2, *mid)
        k4 = slope(t0, x + h * k3, *prev)
        phi[k - 1] = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


class TestBackwardSweep:
    def setup_run(self, horizon=50.0, dt=0.1, u=0.2):
        params = [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]
        grid = TimeGrid.from_horizon(0.0, horizon, dt)
        initial = EpidemicState(t=0.0, P=P0, E=[0.0], I=[0.0], R=[0.0])
        events = [SeedEvent(0.0, 0, exposed=E0, infected=I0, removed=R0_)]
        traj = simulate(initial, params, ControlSchedule.constant(grid, u), events, grid)
        return traj, params, grid

    def test_transversality_and_population_costate(self):
        traj, params, grid = self.setup_run()
        costs = CostParams(c1=2.0, c2=8.0)
        cos = backward_sweep(traj, params, costs)
        assert cos.phi_P[-1] == 0.0
        assert np.all(cos.phi_S[-1] == 0.0)
        # dphi_P/dt = -c1 integrates exactly to c1 (T - t).
        expected = costs.c1 * (grid.T - grid.times())
        assert np.abs(cos.phi_P - expected).max() < 1e-9

    def test_costates_are_finite_and_nontrivial(self):
        traj, params, _ = self.setup_run()
        cos = backward_sweep(traj, params, CostParams(c1=1.0, c2=8.0))
        assert np.all(np.isfinite(cos.phi_S))
        assert np.abs(cos.phi_S[0]).max() > 0.0

    @pytest.mark.parametrize("sweep", [compiled_sweep, reference_sweep])
    @pytest.mark.parametrize("n_strains", [1, 2, 8])
    @pytest.mark.parametrize("n_steps", [1, 64, 65, 197])
    def test_matches_a_step_by_step_rk4_oracle(self, sweep, n_strains, n_steps):
        traj, params = seeded_run(n_strains, n_steps)
        costs = CostParams(c1=1.0, c2=math.log(1e6))
        phi = stacked_costates(sweep(traj, params, costs))
        expected = oracle_costates(traj, params, costs)
        assert np.abs(phi - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_calls_share_no_state(self):
        # Interleaved 1- and 8-strain sweeps, serially and from two threads,
        # each give what a fresh serial call gives.
        costs = CostParams(c1=2.0, c2=8.0)
        runs = [seeded_run(1, 197), seeded_run(8, 65)]
        fresh = [stacked_costates(reference_sweep(t, p, costs)) for t, p in runs]
        order = [0, 1] * 4
        serial = [stacked_costates(compiled_sweep(*runs[i], costs)) for i in order]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(
                lambda i: stacked_costates(backward_sweep(*runs[i], costs)), order
            ))
        for i, a, b in zip(order, serial, threaded):
            assert np.array_equal(a, fresh[i])
            assert np.array_equal(b, fresh[i])

    def test_costates_are_read_only_views_of_one_matrix(self):
        traj, params = seeded_run(2, 9)
        cos = backward_sweep(traj, params, CostParams(c1=1.0, c2=8.0))
        parts = (cos.phi_P, cos.phi_S, cos.phi_E, cos.phi_I, cos.phi_R)
        assert all(not part.flags.writeable for part in parts)
        assert all(part.base is cos.phi_P.base for part in parts)
        assert cos.phi_P.base.shape == (10, 9)

    def test_callers_arrays_stay_writable(self):
        grid = TimeGrid(t0=0.0, dt=1.0, n_steps=2)
        phi = np.zeros((3, 5))
        cos = CostateTrajectory(grid, *split(phi, 1))
        assert not any(part.flags.writeable for part in (cos.phi_P, cos.phi_S, cos.phi_R))
        phi[2] = 4.0
        assert cos.phi_P[2] == 4.0 and cos.phi_R[2, 0] == 4.0


def one_step_inputs():
    """Two strains, both seeded at node 0, over a grid of a single step."""
    inputs = seeded_inputs(
        SeedEvent(time=0.0, strain=0, exposed=E0, infected=I0, removed=R0_),
        SeedEvent(time=0.0, strain=1, exposed=2 * E0, infected=I0),
    )
    grid = TimeGrid(t0=0.0, dt=0.5, n_steps=1)
    return (*inputs[:2], ControlSchedule(grid, [0.2, 0.6]), inputs[3], grid)


def extreme_u_inputs(values):
    """``seeded_inputs`` seeded at node 0, under the schedule ``values(k)``."""
    initial, params, schedule, events, grid = seeded_inputs(
        SeedEvent(time=0.0, strain=0, exposed=E0, infected=I0, removed=R0_),
        SeedEvent(time=4.0, strain=1, exposed=E0, infected=I0),
    )
    u = [values(k) for k in range(grid.n_points)]
    return initial, params, ControlSchedule(grid, u), events, grid


ADJOINT_INPUTS = {
    "case_a_varying_u": lambda: preset_inputs("case_a", wave),
    "experiment3": lambda: preset_inputs("experiment3"),
    "eight_strains": many_strain_inputs,
    "one_step": one_step_inputs,
    "seeds_at_node_0_and_N": lambda: seeded_inputs(
        SeedEvent(time=0.0, strain=0, exposed=E0, infected=I0, removed=R0_),
        SeedEvent(time=30.0, strain=1, exposed=E0, infected=I0, removed=R0_),
    ),
    "u_zero_and_one": lambda: extreme_u_inputs(lambda k: float(k // 7 % 2)),
    "u_one": lambda: extreme_u_inputs(lambda k: 1.0),
}


def unaligned(values):
    """A float64 copy of ``values`` one byte off the alignment of a double."""
    buf = np.empty(values.size * 8 + 1, dtype=np.uint8)
    out = buf[1:].view(np.float64).reshape(values.shape)
    out[...] = values
    assert not out.flags.aligned
    return out


def csv_round_trip(tmp_path, traj):
    """E, I, R and u of ``traj`` read back from its trajectory file, with a
    column stride of four doubles."""
    path = str(tmp_path / "trajectory.csv")
    write_trajectory_csv(path, traj)
    back = read_trajectory_csv(path)
    assert back.I.strides[1] == 4 * back.I.itemsize
    return back.E, back.I, back.R, back.u


# Layouts and types of the I and u that backward_sweep reads: each maps a
# simulated trajectory to the E, I, R and u of a trajectory to sweep.
SWEPT_LAYOUTS = {
    "I_simulated_column_block": lambda tmp_path, t: (t.E, t.I, t.R, t.u),
    "I_csv_column_stride_4": csv_round_trip,
    "I_negative_row_stride": lambda tmp_path, t: (
        t.E, np.ascontiguousarray(t.I[::-1])[::-1], t.R, t.u,
    ),
    "I_int64": lambda tmp_path, t: (t.E, np.rint(t.I).astype(np.int64), t.R, t.u),
    "I_float32": lambda tmp_path, t: (t.E, t.I.astype(np.float32), t.R, t.u),
    "I_big_endian": lambda tmp_path, t: (t.E, t.I.astype(">f8"), t.R, t.u),
    "I_unaligned": lambda tmp_path, t: (t.E, unaligned(t.I), t.R, t.u),
    "u_every_other": lambda tmp_path, t: (t.E, t.I, t.R, np.repeat(t.u, 2)[::2]),
    "u_unaligned": lambda tmp_path, t: (t.E, t.I, t.R, unaligned(t.u)),
    "u_float32": lambda tmp_path, t: (t.E, t.I, t.R, t.u.astype(np.float32)),
}


class TestCompiledAdjoint:
    """``backward_sweep`` runs in compiled C or in Python; the two agree bit
    for bit."""

    @pytest.mark.parametrize("layout", list(SWEPT_LAYOUTS))
    def test_any_layout_sweeps_like_contiguous_doubles(self, tmp_path, layout):
        traj, params = seeded_run(3, 40)
        E, I, R, u = SWEPT_LAYOUTS[layout](tmp_path, traj)
        given = Trajectory(traj.grid, traj.P, E, I, R, u)
        copy = Trajectory(
            traj.grid, traj.P, E, np.array(I, dtype=np.float64), R,
            np.array(u, dtype=np.float64),
        )
        costs = CostParams(c1=1.0, c2=8.0)
        expected = stacked_costates(reference_sweep(copy, params, costs)).tobytes()
        for sweep in (reference_sweep, compiled_sweep):
            assert stacked_costates(sweep(given, params, costs)).tobytes() == expected
            assert stacked_costates(sweep(copy, params, costs)).tobytes() == expected

    @pytest.mark.parametrize("name", list(ADJOINT_INPUTS))
    def test_costates_are_the_reference_bit_for_bit(self, name):
        inputs = ADJOINT_INPUTS[name]()
        traj = reference_simulate(*inputs)
        costs = CostParams(c1=1.5, c2=math.log(inputs[0].P))
        compiled = stacked_costates(compiled_sweep(traj, inputs[1], costs))
        assert compiled.tobytes() == stacked_costates(
            reference_sweep(traj, inputs[1], costs)
        ).tobytes()
        assert np.all(np.isfinite(compiled)) and np.all(compiled[-1] == 0.0)

    def test_column_major_trajectory_sweeps_like_row_major(self):
        traj, params = seeded_run(2, 20)
        columns = (np.asfortranarray(getattr(traj, name)) for name in "EIR")
        flipped = Trajectory(traj.grid, traj.P.copy(), *columns, traj.u.copy())
        costs = CostParams(c1=1.0, c2=8.0)
        assert stacked_costates(compiled_sweep(flipped, params, costs)).tobytes() == (
            stacked_costates(reference_sweep(traj, params, costs)).tobytes()
        )

    def test_fbsm_solve_is_the_reference_bit_for_bit(self):
        cfg = preset_config("case_a")
        problem = (
            cfg.initial_state(), cfg.strain_params(), cfg.seed_events(), cfg.grid(),
            cfg.cost_params(),
        )
        settings = dict(
            relaxation=cfg.relaxation, tol=cfg.tolerance, max_iter=cfg.max_iterations,
        )
        with patch.object(integrate, "_kernel", lambda name, units: None):
            twin = fbsm_solve(*problem, **settings)
        require_kernel()
        compiled = fbsm_solve(*problem, **settings)
        assert twin.converged and compiled.converged
        assert twin.update_history == compiled.update_history
        assert twin.objective == compiled.objective
        assert twin.schedule.u.tobytes() == compiled.schedule.u.tobytes()
        assert (twin.iterations, twin.coarse_iterations) == (5, 9)


class TestFbsmSolve:
    def setup_problem(self, horizon=120.0, dt=0.2):
        params = [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]
        grid = TimeGrid.from_horizon(0.0, horizon, dt)
        initial = EpidemicState(t=0.0, P=P0, E=[0.0], I=[0.0], R=[0.0])
        events = [SeedEvent(0.0, 0, exposed=E0, infected=I0, removed=R0_)]
        return initial, params, events, grid

    def test_prohibitive_cost_turns_control_off_immediately(self):
        # Pick c2 above the largest switching sum of the uncontrolled run, so
        # the closed form never finds mitigation profitable.
        initial, params, events, grid = self.setup_problem()
        traj = simulate(initial, params, ControlSchedule.constant(grid, 0.0), events, grid)
        cos = backward_sweep(traj, params, CostParams(c1=1.0, c2=1.0))
        switching = (
            params[0].beta * traj.susceptible_matrix()[:, 0] * traj.I[:, 0]
            * (cos.phi_S[:, 0] - cos.phi_E[:, 0])
        )
        c2 = 2.0 * float(switching.max())
        report = fbsm_solve(initial, params, events, grid, CostParams(c1=1.0, c2=c2))
        assert report.converged
        assert report.iterations <= 2
        assert np.all(report.schedule.u == 0.0)

    def test_iteration_cap_reports_nonconvergence(self):
        initial, params, events, grid = self.setup_problem()
        costs = CostParams(c1=1.0, c2=math.log(P0))
        report = fbsm_solve(initial, params, events, grid, costs, max_iter=2)
        assert not report.converged
        assert report.iterations == 2
        assert report.last_update >= 1e-6

    def test_converged_schedule_improves_on_constants(self):
        initial, params, events, grid = self.setup_problem()
        costs = CostParams(c1=1.0, c2=math.log(P0))
        report = fbsm_solve(initial, params, events, grid, costs, tol=1e-6)
        assert report.converged
        for const in (0.0, 0.25, 0.5, 0.75):
            traj = simulate(
                initial, params, ControlSchedule.constant(grid, const), events, grid
            )
            assert report.objective >= objective(traj, costs)

    def test_final_report_is_self_consistent(self):
        initial, params, events, grid = self.setup_problem()
        costs = CostParams(c1=1.0, c2=math.log(P0))
        report = fbsm_solve(initial, params, events, grid, costs, tol=1e-8)
        assert np.array_equal(report.trajectory.u, report.schedule.u)
        assert report.costates.phi_P[-1] == 0.0
        assert report.objective == objective(report.trajectory, costs)
        assert len(report.update_history) == report.iterations

    def test_last_update_is_the_true_fixed_point_residual(self):
        initial, params, events, grid = self.setup_problem()
        costs = CostParams(c1=1.0, c2=math.log(P0))
        report = fbsm_solve(initial, params, events, grid, costs, tol=1e-6)
        assert report.converged
        assert report.last_update == report.update_history[-1]
        assert abs(true_residual(report, params, costs) - report.last_update) < 1e-12
        assert report.last_update < 1e-6

    def solve_late_seeded(self, beta_ratio, seed_day, c2_scale):
        """Case A's strain plus a second one, ``beta_ratio`` times as
        transmissible and seeded on ``seed_day``, solved over 240 days."""
        strain = StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)
        params = [strain, replace(strain, beta=beta_ratio * BETA)]
        grid = TimeGrid.from_horizon(0.0, 240.0, 0.2)
        initial = EpidemicState(t=0.0, P=P0, E=[0.0, 0.0], I=[0.0, 0.0], R=[0.0, 0.0])
        events = [
            SeedEvent(0.0, 0, exposed=E0, infected=I0, removed=R0_),
            SeedEvent(seed_day, 1, exposed=E0, infected=I0, removed=R0_),
        ]
        costs = CostParams(c1=1.0, c2=c2_scale * math.log(P0))
        report = fbsm_solve(initial, params, events, grid, costs, tol=1e-6)
        assert report.converged
        assert report.last_update < 1e-6
        assert true_residual(report, params, costs) < 1e-6
        # No flow depends on P, so phi_P = c1 (T - t) with any number of strains.
        offset = report.costates.phi_P - costs.c1 * (grid.T - grid.times())
        assert np.max(np.abs(offset)) < 1e-9 * costs.c1 * grid.T
        return report

    def test_late_seeded_strain_converges(self):
        report = self.solve_late_seeded(1.5, 60.0, 0.9)
        # Day 60 is a node of the dt 2.0 grid, so the coarse start runs.
        assert report.coarse_dt == 2.0 and report.coarse_iterations > 0
        # Before day 60 I_2 = 0, so d phi_S_2 / dt = (phi_S_2 - phi_E_2)(1-u)
        # beta_2 I_2 vanishes and phi_S_2 is constant.
        before = report.costates.phi_S[report.schedule.grid.times() < 60.0, 1]
        assert np.all(before == before[0])
        assert before[0] != 0.0

    @given(
        beta_ratio=st.floats(min_value=1.0, max_value=2.0),
        seed_day=st.integers(min_value=10, max_value=60).map(lambda k: 2.0 * k),
        c2_scale=st.floats(min_value=0.8, max_value=1.0),
    )
    @settings(max_examples=8, deadline=None)
    def test_any_late_seeded_strain_converges(self, beta_ratio, seed_day, c2_scale):
        self.solve_late_seeded(beta_ratio, seed_day, c2_scale)

    def test_degenerate_anderson_history_falls_back_or_stays_finite(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(0.2, 0.8, size=50)
        g = rng.uniform(-0.1, 0.1, size=50)
        zero = np.zeros(50)
        plain = np.clip(u + 0.5 * g, 0.0, 1.0)
        assert np.array_equal(control._anderson_step(u, g, zero[None], zero[None], 0.5), plain)
        # Two equal differences make the Gram matrix rank one.
        d = np.tile(rng.uniform(-0.1, 0.1, size=50), (2, 1))
        step = control._anderson_step(u, g, d, d, 0.5)
        assert np.all(np.isfinite(step))
        assert step.min() >= 0.0 and step.max() <= 1.0

    def test_relaxation_domain(self):
        initial, params, events, grid = self.setup_problem()
        with pytest.raises(DomainError):
            fbsm_solve(initial, params, events, grid, CostParams(1.0, 5.0),
                       relaxation=0.0)
        with pytest.raises(DomainError):
            fbsm_solve(initial, params, events, grid, CostParams(1.0, 5.0), tol=0.0)
        with pytest.raises(DomainError, match="max_iter"):
            fbsm_solve(initial, params, events, grid, CostParams(1.0, 5.0), max_iter=2.5)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tolerance_must_be_finite(self, tol):
        # An infinite tol would stop the sweep after one fine iteration and
        # report it as converged.
        initial, params, events, grid = self.setup_problem()
        with pytest.raises(DomainError, match="tol must be finite and > 0"):
            fbsm_solve(initial, params, events, grid, CostParams(1.0, 5.0), tol=tol)

    def test_u_init_must_be_a_schedule(self):
        initial, params, events, grid = self.setup_problem()
        with pytest.raises(DomainError, match="expects a ControlSchedule as u_init"):
            fbsm_solve(initial, params, events, grid, CostParams(1.0, 5.0), u_init=0.3)

    @pytest.mark.parametrize("time", [0.3, 1e308])
    def test_off_grid_seed_fails_as_simulate_fails(self, time):
        initial, params, events, grid = self.setup_problem()
        events = [*events, SeedEvent(time, 0, exposed=1.0)]
        with pytest.raises(ConfigError) as from_simulate:
            simulate(initial, params, ControlSchedule.constant(grid, 0.0), events, grid)
        with pytest.raises(ConfigError) as from_solve:
            fbsm_solve(initial, params, events, grid, CostParams(1.0, 5.0))
        assert str(from_solve.value) == str(from_simulate.value)
        assert "does not lie on the grid" in str(from_solve.value)


class TestCoarseStart:
    def problem(self, dt=0.1, horizon=240.0, seed_day=None):
        """Case A's strain, plus an identical second strain seeded at
        ``seed_day`` when one is given."""
        strain = StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)
        params = [strain]
        events = [SeedEvent(0.0, 0, exposed=E0, infected=I0, removed=R0_)]
        if seed_day is not None:
            params.append(strain)
            events.append(SeedEvent(seed_day, 1, exposed=E0, infected=I0))
        n = len(params)
        initial = EpidemicState(t=0.0, P=P0, E=[0.0] * n, I=[0.0] * n, R=[0.0] * n)
        return initial, params, events, TimeGrid.from_horizon(0.0, horizon, dt)

    def test_agrees_with_a_cold_sweep(self):
        cfg = preset_config("case_a")
        grid, params, costs = cfg.grid(), cfg.strain_params(), cfg.cost_params()
        args = (cfg.initial_state(), params, cfg.seed_events(), grid, costs)
        tol = cfg.tolerance
        warm = fbsm_solve(*args, tol=tol)
        cold = control._sweep(*args, np.zeros(grid.n_points), 0.5, tol, 500)
        assert warm.converged and cold.converged
        assert warm.coarse_dt == 1.0 and cold.coarse_iterations == 0
        assert warm.iterations < cold.iterations
        assert abs(warm.objective - cold.objective) <= 1e-12 * abs(cold.objective)
        assert np.max(np.abs(warm.schedule.u - cold.schedule.u)) <= 10 * tol

    @pytest.mark.parametrize("dt, seed_day, coarse_dt", [
        (0.1, None, 1.0),
        (0.1, 100.5, 0.5),
        # case A's largest stable step lies between 2 and 5 days.
        (1.0, None, 2.0),
        (0.1, 180.3, None),
    ])
    def test_choice_of_the_coarse_step(self, dt, seed_day, coarse_dt):
        initial, params, events, grid = self.problem(dt=dt, seed_day=seed_day)
        assert 2.0 <= max_stable_dt(params, P0) < 5.0
        costs = CostParams(c1=1.0, c2=math.log(P0))
        report = fbsm_solve(initial, params, events, grid, costs, max_iter=1)
        assert report.iterations == 1
        assert report.coarse_dt == coarse_dt
        if coarse_dt is None:
            assert report.coarse_iterations == 0
        else:
            assert report.coarse_iterations >= 1

    def test_the_fine_sweep_holds_no_coarse_result(self):
        # Case A at coarse factors 2 and 10, and started cold: only the
        # coarse iteration count outlives the coarse solve, so a warm start
        # peaks within half a column per node of the cold one.  Holding the
        # coarse report cost 5.7 and 1.3 columns.
        require_kernel()
        per_node = {}
        for horizon in (730.2, 730.0, 730.3):
            cfg = replace(preset_config("case_a"), horizon=horizon)
            args = (cfg.initial_state(), cfg.strain_params(), cfg.seed_events(),
                    cfg.grid(), cfg.cost_params())
            tracemalloc.start()
            try:
                report = fbsm_solve(*args, relaxation=cfg.relaxation, tol=cfg.tolerance,
                                    max_iter=cfg.max_iterations)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            per_node[report.coarse_dt] = peak / (cfg.grid().n_points * 8)
        cold = per_node.pop(None)
        assert sorted(per_node) == [0.2, 1.0]
        assert all(warm <= cold + 0.5 for warm in per_node.values())

    def test_no_strains_solve_without_control(self):
        grid = TimeGrid.from_horizon(0.0, 10.0, 0.1)
        initial = EpidemicState(t=0.0, P=P0, E=[], I=[], R=[])
        report = fbsm_solve(initial, [], [], grid, CostParams(c1=1.0, c2=5.0))
        assert report.converged and report.coarse_dt == 1.0
        assert np.all(report.schedule.u == 0.0)

    def test_coarse_overshoot_starts_cold(self, monkeypatch):
        # At beta P = 2/day a 3-day step drives a compartment negative near
        # day 42; 0.3 days does not.  The rate bound rejects the 3-day step,
        # so put back the looser bound of the linearisation at the
        # infection-free state (4.4 days) to reach the cold start.
        initial, params, events, grid = self.problem(dt=0.3, horizon=60.0)
        params = [replace(params[0], beta=2.0 / P0)]
        linear = 2.78 / -min(analytic_eigenvalues(params, P0, 0.0).real)
        assert 3.0 < linear and max_stable_dt(params, P0) < 3.0
        monkeypatch.setattr(control, "max_stable_dt", lambda params, population: linear)
        coarse = TimeGrid(0.0, 3.0, 20)
        with pytest.raises(IntegrationError):
            simulate(initial, params, ControlSchedule.constant(coarse, 0.0), events, coarse)
        costs = CostParams(c1=1.0, c2=math.log(P0))
        report = fbsm_solve(initial, params, events, grid, costs, max_iter=1)
        assert report.coarse_dt is None and report.coarse_iterations == 0


class TestGridConvergence:
    @pytest.mark.parametrize("preset", ["case_a", "case_e"])
    def test_solution_converges_at_second_order_in_dt(self, preset):
        # The forward pass is fourth order, but the adjoint's midpoint
        # interpolants and the trapezoid objective make the solution second
        # order: measured 2.04 (case A) and 2.18 (case E) for u, 2.05 and
        # 2.07 for J.  Taking the adjoint's midpoint values at the nodes
        # drops the order of u to 1.0.
        reports = []
        for dt in (1.0, 0.5, 0.25):
            cfg = set_config_value(preset_config(preset), "grid.dt", dt)
            report = fbsm_solve(
                cfg.initial_state(), cfg.strain_params(), cfg.seed_events(),
                cfg.grid(), cfg.cost_params(), relaxation=cfg.relaxation,
                tol=1e-10, max_iter=cfg.max_iterations,
            )
            assert report.converged
            reports.append(report)
        # The schedules are compared on the nodes of the dt 1 grid.
        u = [r.schedule.u[::m] for r, m in zip(reports, (1, 2, 4))]
        J = [r.objective for r in reports]
        assert math.log2(np.max(np.abs(u[0] - u[1])) / np.max(np.abs(u[1] - u[2]))) >= 1.8
        assert math.log2(abs(J[0] - J[1]) / abs(J[1] - J[2])) >= 1.8


def adjoint_gradient_gaps(preset, dt, seed, eps=1e-3):
    """Gaps between the adjoint gradient and central differences of the objective.

    The schedule is ``u = 0.4 + 0.2 sin(2 pi t / T)``; each of three random
    smooth directions ``v`` is 0.1 times a sum of four sines.  The adjoint
    side is the trapezoid of ``dH/du v`` with
    ``dH/du = -c2 e^(c2 u) + sum_j beta_j S_j I_j (phi_S_j - phi_E_j)``; the
    gap is normalised by the trapezoid of ``|dH/du v|``, because a random
    direction can make the derivative itself nearly vanish.
    """
    cfg = set_config_value(preset_config(preset), "grid.dt", dt)
    grid, params = cfg.grid(), cfg.strain_params()
    costs = CostParams(c1=1.0, c2=math.log(cfg.population))
    t = grid.times()
    period = grid.T - grid.t0
    u = 0.4 + 0.2 * np.sin(2 * np.pi * t / period)

    def run(values):
        schedule = ControlSchedule(grid, values)
        return simulate(cfg.initial_state(), params, schedule, cfg.seed_events(), grid)

    def trapezoid(values):
        return grid.dt * (values.sum() - 0.5 * (values[0] + values[-1]))

    traj = run(u)
    cos = backward_sweep(traj, params, costs)
    beta = np.array([p.beta for p in params])
    infection = beta * traj.susceptible_matrix() * traj.I * (cos.phi_S - cos.phi_E)
    dH_du = -costs.c2 * np.exp(costs.c2 * u) + infection.sum(axis=1)
    rng = np.random.default_rng(seed)
    gaps = []
    for _ in range(3):
        cycles = rng.integers(1, 5, size=4)
        phases = rng.uniform(0.0, 2 * np.pi, size=4)
        weights = rng.uniform(-1.0, 1.0, size=4)
        v = 0.1 * sum(
            a * np.sin(2 * np.pi * k * t / period + p)
            for a, k, p in zip(weights, cycles, phases)
        )
        fd = (objective(run(u + eps * v), costs) - objective(run(u - eps * v), costs)) / (
            2 * eps
        )
        gaps.append(abs(fd - trapezoid(dH_du * v)) / trapezoid(np.abs(dH_du * v)))
    return gaps


class TestAdjointGradient:
    def test_matches_central_differences_of_the_objective(self):
        assert max(adjoint_gradient_gaps("case_a", 0.1, seed=3)) < 1e-5

    @pytest.mark.parametrize("preset", ["experiment2", "experiment3"])
    def test_late_activation_matches_central_differences(self, preset):
        assert max(adjoint_gradient_gaps(preset, 0.1, seed=3)) < 1e-5


class TestControlSchedule:
    def test_values_outside_unit_interval_rejected(self):
        grid = TimeGrid.from_horizon(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            ControlSchedule(grid=grid, u=np.array([0.0, 0.5, 1.2]))
        with pytest.raises(DomainError):
            ControlSchedule(grid=grid, u=np.array([0.0, 0.5]))
