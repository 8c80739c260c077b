import numpy as np
import pytest

from multistrain import (
    ControlSchedule,
    DomainError,
    EpidemicState,
    SeedEvent,
    StrainParams,
    TimeGrid,
    Trajectory,
    analytic_eigenvalues,
    min_stabilizing_control,
    reproduction_number,
    simulate,
    summarize,
)

from conftest import (
    BETA, DELTA, E0, GAMMA, I0, MU, P0, R0_, SIGMA, numeric_jacobian, random_params,
)


def eigenvalue_gaps(numeric: np.ndarray, analytic: np.ndarray) -> np.ndarray:
    """Sorted-multiset comparison, normalised by the spectral scale."""
    key = lambda arr: np.lexsort((arr.imag, arr.real))
    a = analytic[key(analytic)]
    b = numeric[key(numeric)]
    scale = np.abs(a).max()
    return np.abs(a - b) / np.maximum(np.abs(a), scale)


def trivial_state(P, n):
    return EpidemicState(t=0.0, P=P, E=[0.0] * n, I=[0.0] * n, R=[0.0] * n)


class TestNumericJacobian:
    def test_full_lockdown_block_eigenvalues(self, baseline_params):
        state = trivial_state(217e6, 1)
        jac = numeric_jacobian(state, baseline_params, 1.0)
        assert jac.shape == (5, 5)
        # Coordinates: P, S, E, I, R.  With u=1 the E/I block decouples.
        block = jac[2:4, 2:4]
        eig = sorted(np.linalg.eigvals(block).real)
        assert eig == pytest.approx(sorted([-SIGMA, -(MU + GAMMA)]), rel=1e-9)

    def test_matches_analytic_spectrum(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3):
            for _ in range(5):
                params = random_params(rng, n)
                P = float(rng.uniform(1e5, 1e9))
                u = float(rng.uniform(0.0, 1.0))
                state = trivial_state(P, n)
                jac = numeric_jacobian(state, params, u)
                numeric = np.linalg.eigvals(jac)
                analytic = analytic_eigenvalues(params, np.full(n, P), u)
                assert eigenvalue_gaps(numeric, analytic).max() < 1e-7


class TestStabilityThreshold:
    """The infection-free point is locally stable exactly when R0 < 1."""

    def test_full_lockdown_is_stable(self, baseline_params):
        rn = reproduction_number(baseline_params, 217e6, 1.0)
        assert rn.value < 1.0
        assert rn.value == 0.0

    def test_baseline_unstable_without_control(self, baseline_params):
        rn = reproduction_number(baseline_params, 217e6, 0.0)
        assert not rn.value < 1.0
        assert rn.value == pytest.approx(10.979713787640495, rel=1e-12)
        assert rn.argmax_strain == 0

    def test_just_above_threshold_is_stable(self, baseline_params):
        u_min = min_stabilizing_control(baseline_params, 217e6)
        assert reproduction_number(baseline_params, 217e6, u_min + 1e-6).value < 1.0
        below = max(u_min - 1e-6, 0)
        assert not reproduction_number(baseline_params, 217e6, below).value < 1.0


def constant_trajectory(P=1000.0, e=10.0, i=20.0, r=30.0, n_steps=100, dt=1.0):
    m = n_steps + 1
    grid = TimeGrid(t0=0.0, dt=dt, n_steps=n_steps)
    return Trajectory(
        grid=grid,
        P=np.full(m, P),
        E=np.full((m, 1), e),
        I=np.full((m, 1), i),
        R=np.full((m, 1), r),
        u=np.zeros(m),
    )


class TestSummarize:
    def test_constant_trajectory_plateaus(self):
        traj = constant_trajectory()
        summary = summarize(traj, window=50.0)
        s = summary.strains[0]
        assert s.share_E == pytest.approx(0.01)
        assert s.share_I == pytest.approx(0.02)
        assert s.share_R == pytest.approx(0.03)
        assert s.share_S == pytest.approx(0.94)
        assert s.plateau_S and s.plateau_E and s.plateau_I and s.plateau_R
        assert summary.cumulative_deaths == 0.0

    def test_window_validation(self):
        traj = constant_trajectory()
        with pytest.raises(DomainError):
            summarize(traj, window=0.0)
        with pytest.raises(DomainError):
            summarize(traj, window=101.0)

    def test_deaths_equal_population_drop(self):
        params = [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]
        grid = TimeGrid.from_horizon(0.0, 200.0, 0.1)
        initial = EpidemicState(t=0.0, P=P0, E=[0.0], I=[0.0], R=[0.0])
        events = [SeedEvent(0.0, 0, exposed=E0, infected=I0, removed=R0_)]
        traj = simulate(initial, params, ControlSchedule.constant(grid, 0.0), events, grid)
        summary = summarize(traj, window=50.0)
        assert summary.cumulative_deaths == traj.P[0] - traj.P[-1]
        assert summary.strains[0].peak_infected == traj.I[:, 0].max()

    def test_shares_invariant_under_population_rescaling(self):
        t1 = constant_trajectory(P=1000.0, e=10.0, i=20.0, r=30.0)
        t2 = constant_trajectory(P=1e6, e=1e4, i=2e4, r=3e4)
        s1 = summarize(t1, window=50.0).strains[0]
        s2 = summarize(t2, window=50.0).strains[0]
        assert s1.share_S == pytest.approx(s2.share_S, rel=1e-12)
        assert s1.plateau_I == s2.plateau_I

    def test_peak_and_dominance_two_strains(self):
        m = 101
        grid = TimeGrid(t0=0.0, dt=1.0, n_steps=100)
        times = grid.times()
        i1 = np.exp(-0.5 * ((times - 30.0) / 8.0) ** 2) * 100.0
        i2 = np.exp(-0.5 * ((times - 70.0) / 8.0) ** 2) * 150.0
        traj = Trajectory(
            grid=grid, P=np.full(m, 1e4),
            E=np.zeros((m, 2)),
            I=np.stack([i1, i2], axis=1),
            R=np.zeros((m, 2)),
            u=np.zeros(m),
        )
        summary = summarize(traj, window=10.0)
        a, b = summary.strains
        assert a.peak_day == 30.0 and b.peak_day == 70.0
        assert a.dominant_strain_at_peak == 0
        assert b.dominant_strain_at_peak == 1
        assert b.peak_infected > a.peak_infected
