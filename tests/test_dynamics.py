import numpy as np
import pytest

from multistrain import (
    DegenerateControlError,
    DomainError,
    EpidemicState,
    StateConsistencyError,
    StrainParams,
    analytic_eigenvalues,
    full_system_rhs,
    min_stabilizing_control,
    nontrivial_equilibrium,
    reproduction_number,
)
from multistrain.dynamics import (
    RK4_REAL_STABILITY, costate_lists, max_stable_dt, rate_table, split,
)

from conftest import (
    BETA, DELTA, GAMMA, MU, SIGMA, equilibrium_residuals, jacobian_at, numeric_jacobian,
    random_params, random_state, state_slopes, susceptible_derivative,
)


NAN = float("nan")


def rel_gap(a: float, b: float, *scales: float) -> float:
    """|a - b| normalised by the largest participating magnitude."""
    denom = max(abs(a), abs(b), *(abs(s) for s in scales), 1e-300)
    return abs(a - b) / denom


class TestStrainParams:
    def test_rejects_nonpositive_rates(self):
        for field in ("beta", "sigma", "gamma", "delta"):
            kwargs = dict(beta=1e-9, sigma=0.1, gamma=0.1, delta=0.1, mu=0.0)
            kwargs[field] = 0.0
            with pytest.raises(DomainError):
                StrainParams(**kwargs)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), NAN])
    @pytest.mark.parametrize("field", ["beta", "sigma", "gamma", "delta", "mu"])
    def test_rejects_non_finite_rates(self, field, value):
        # An infinite gamma used to build, and nontrivial_equilibrium then
        # returned NaN compartments with a RuntimeWarning.
        kwargs = dict(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)
        kwargs[field] = value
        with pytest.raises(DomainError, match=f"strain parameter {field} must be finite"):
            StrainParams(**kwargs)

    def test_mu_zero_allowed_but_equilibrium_rejects_it(self):
        p = StrainParams(beta=1e-9, sigma=0.1, gamma=0.1, delta=0.1, mu=0.0)
        q = StrainParams(beta=1e-9, sigma=0.1, gamma=0.1, delta=0.1, mu=1e-5)
        with pytest.raises(DomainError, match="mu > 0"):
            nontrivial_equilibrium([q, p], 0.0, 1.0)


class TestDerivatives:
    def test_infection_free_point_is_fixed(self, baseline_params):
        state = EpidemicState(t=0.0, P=1e6, E=[0.0], I=[0.0], R=[0.0])
        for u in (0.0, 0.3, 1.0):
            dP, dE, dI, dR = state_slopes(state, baseline_params, u)
            assert dP == 0.0
            assert np.all(dE == 0.0) and np.all(dI == 0.0) and np.all(dR == 0.0)

    def test_baseline_initial_exposure_rate(self, baseline_params, baseline_initial):
        # Hand-computed: beta*S*I - sigma*E = 2.41e-9 * 217e6 * 2 - 252/7
        _, dE, _, _ = state_slopes(baseline_initial, baseline_params, 0.0)
        assert dE[0] == pytest.approx(-34.95406, rel=1e-9)

    def test_full_lockdown_removes_transmission(self, baseline_params, baseline_initial):
        _, dE, _, _ = state_slopes(baseline_initial, baseline_params, 1.0)
        assert dE[0] == -SIGMA * 252.0

    def test_control_out_of_range(self, baseline_params, baseline_initial):
        s = baseline_initial
        for u in (-0.1, 1.1):
            with pytest.raises(DomainError):
                full_system_rhs(s.P, s.susceptible_all(), s.E, s.I, s.R, baseline_params, u)

    def test_negative_compartment_rejected(self):
        with pytest.raises(StateConsistencyError, match=r"negative compartment in E: min=.*-5\.0"):
            EpidemicState(t=0.0, P=1e6, E=[-5.0], I=[0.0], R=[0.0])

    def test_unseeded_strain_has_no_flows(self):
        # Every flow of a strain is a product with its E, I or R, so a strain
        # with none of them adds nothing to the model.
        params = [
            StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU),
            StrainParams(beta=2.0 * BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU),
        ]
        two = EpidemicState(t=0.0, P=1e6, E=[10.0, 0.0], I=[1.0, 0.0], R=[3.0, 0.0])
        one = EpidemicState(t=0.0, P=1e6, E=[10.0], I=[1.0], R=[3.0])
        for u in (0.0, 0.4, 1.0):
            dP2, dE2, dI2, dR2 = state_slopes(two, params, u)
            dP1, dE1, dI1, dR1 = state_slopes(one, params[:1], u)
            assert dE2[1] == 0.0 and dI2[1] == 0.0 and dR2[1] == 0.0
            assert dP2 == dP1
            assert (dE2[0], dI2[0], dR2[0]) == (dE1[0], dI1[0], dR1[0])


class TestSusceptible:
    def test_arithmetic_identity(self, baseline_params):
        state = EpidemicState(t=0.0, P=100.0, E=[10.0], I=[20.0], R=[30.0])
        assert state.susceptible_all().tolist() == [40.0]

    def test_trivial_state_gives_total_population(self):
        state = EpidemicState(t=0.0, P=5e5, E=[0.0, 0.0], I=[0.0, 0.0], R=[0.0, 0.0])
        assert state.susceptible_all().tolist() == [5e5, 5e5]

    def test_baseline_initial_pool(self, baseline_initial):
        assert baseline_initial.susceptible_all().tolist() == [217e6]

    def test_blown_up_state_reports_inconsistency(self):
        with pytest.raises(StateConsistencyError, match=r"susceptible pool negative: min=.*-60\.0"):
            EpidemicState(t=0.0, P=100.0, E=[80.0], I=[80.0], R=[0.0])


INF = float("inf")


class TestAdmissibleState:
    """A state is checked once, when it is built, and the error names the flaw."""

    @pytest.mark.parametrize("P, E, I, R, message", [
        (NAN, [0.0], [0.0], [0.0], r"total population invalid: P=nan"),
        (INF, [0.0], [0.0], [0.0], r"total population invalid: P=inf"),
        (-1.0, [0.0], [0.0], [0.0], r"total population invalid: P=-1\.0"),
        (100.0, [0.0, NAN], [0.0, 0.0], [0.0, 0.0], "non-finite values in E"),
        (100.0, [0.0], [INF], [0.0], "non-finite values in I"),
        (100.0, [0.0], [0.0], [-INF], "non-finite values in R"),
        (1e6, [0.0, 0.0], [0.0, -2.0], [0.0, 0.0], r"negative compartment in I: min=.*-2\.0"),
        (1e6, [0.0], [0.0], [-1e-2], r"negative compartment in R: min=.*-0\.01"),
        (100.0, [0.0, 80.0], [0.0, 80.0], [0.0, 0.0], r"susceptible pool negative: min=.*-60\.0"),
        # Finite compartments whose sum overflows.
        (1e308, [1e308], [1e308], [0.0], r"susceptible pool negative: min=.*-1e\+308"),
    ], ids=["P nan", "P inf", "P negative", "E nan", "I inf", "R -inf",
            "I negative", "R negative", "pool negative", "sum overflows"])
    def test_inadmissible_state_is_rejected_when_built(self, P, E, I, R, message):
        with pytest.raises(StateConsistencyError, match=message):
            EpidemicState(t=0.0, P=P, E=E, I=I, R=R)

    def test_round_off_below_zero_is_admissible(self):
        # Within NEGATIVE_TOLERANCE * max(P, 1), 1e-3 here, of zero.
        assert EpidemicState(t=0.0, P=1e6, E=[-1e-3], I=[0.0], R=[0.0]).E[0] == -1e-3
        state = EpidemicState(t=0.0, P=1e6, E=[0.0], I=[0.0], R=[1e6 + 5e-4])
        assert -1e-3 <= state.susceptible_all()[0] < 0.0
        assert EpidemicState(t=0.0, P=-1e-9, E=[0.0], I=[0.0], R=[0.0]).P == -1e-9


class TestSusceptibleDerivative:
    def test_zero_at_infection_free_point(self, baseline_params):
        state = EpidemicState(t=0.0, P=1e6, E=[0.0], I=[0.0], R=[0.0])
        assert susceptible_derivative(state, baseline_params, 0.0, 0) == 0.0

    def test_single_strain_transmission_only(self, baseline_params):
        state = EpidemicState(t=0.0, P=1e6, E=[0.0], I=[100.0], R=[0.0])
        s = 1e6 - 100.0
        expected = -BETA * s * 100.0
        got = susceptible_derivative(state, baseline_params, 0.0, 0)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_matches_algebraic_route_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            params = random_params(rng, n)
            state = random_state(rng, n)
            u = float(rng.uniform(0.0, 1.0))
            dP, dE, dI, dR = state_slopes(state, params, u)
            for j in range(n):
                p = params[j]
                algebraic = dP - dE[j] - dI[j] - dR[j]
                differential = susceptible_derivative(state, params, u, j)
                s_j = state.P - state.E[j] - state.I[j] - state.R[j]
                assert rel_gap(
                    algebraic, differential,
                    (1 - u) * p.beta * s_j * state.I[j],
                    p.sigma * state.E[j],
                    (p.mu + p.gamma) * state.I[j],
                    p.delta * state.R[j],
                    sum(q.mu * state.I[i] for i, q in enumerate(params)),
                ) < 1e-12


class TestReproductionNumber:
    def test_full_lockdown_gives_zero(self, baseline_params):
        assert reproduction_number(baseline_params, 217e6, 1.0).value == 0.0

    def test_baseline_value(self, baseline_params):
        rn = reproduction_number(baseline_params, 217e6, 0.0)
        assert rn.value == pytest.approx(10.979713787640495, rel=1e-12)
        assert rn.argmax_strain == 0

    def test_more_transmissible_strain_binds(self):
        p1 = StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)
        p2 = StrainParams(beta=1.7 * BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)
        rn = reproduction_number([p1, p2], 217e6, 0.0)
        assert rn.argmax_strain == 1
        assert rn.value == pytest.approx(1.7 * rn.per_strain[0], rel=1e-12)

    def test_empty_strain_list(self):
        with pytest.raises(DomainError):
            reproduction_number([], 217e6, 0.0)

    @pytest.mark.parametrize("s_bar", [
        -1.0, NAN, [1e8, -1.0], [1e8, NAN], [1e8], [1e8, 1e8, 1e8],
    ])
    def test_negative_or_nan_pool_rejected(self, s_bar):
        p = StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)
        with pytest.raises(DomainError, match="S_bar"):
            reproduction_number([p, p], s_bar, 0.0)


class TestMinStabilizingControl:
    def test_already_stable_needs_nothing(self):
        p = StrainParams(beta=1e-9, sigma=0.1, gamma=0.5, delta=0.01, mu=0.0)
        assert min_stabilizing_control([p], 1e6) == 0.0

    def test_baseline_threshold(self, baseline_params):
        u_min = min_stabilizing_control(baseline_params, 217e6)
        assert u_min == pytest.approx(0.9089229446831604, rel=1e-12)
        assert reproduction_number(baseline_params, 217e6, u_min + 1e-9).value < 1.0

    def test_dominant_strain_decides(self):
        p1 = StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)
        p2 = StrainParams(beta=1.7 * BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)
        u_both = min_stabilizing_control([p1, p2], 217e6)
        u_dominant = min_stabilizing_control([p2], 217e6)
        assert u_both == u_dominant

    @pytest.mark.parametrize("s_bar", [0.0, -1.0, NAN, [1e8, 0.0], [1e8, NAN]])
    def test_empty_or_nan_pool_rejected(self, s_bar):
        # A NaN pool once compared false everywhere and gave 0.0, "no
        # mitigation needed", while the other strain alone needs some.
        p = StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)
        with pytest.raises(DomainError, match="S_bar"):
            min_stabilizing_control([p, p], s_bar)


class TestNontrivialEquilibrium:
    def two_strains(self):
        return [
            StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU),
            StrainParams(beta=1.3 * BETA, sigma=0.2, gamma=0.06, delta=0.02, mu=2e-5),
        ]

    def test_reference_zero_reduces_to_trivial(self):
        point = nontrivial_equilibrium(self.two_strains(), 0.0, 0.0)
        assert point.kind == "trivial"
        assert point.feasible
        assert np.all(point.E == 0) and np.all(point.I == 0) and np.all(point.R == 0)

    def test_baseline_susceptible_level(self):
        point = nontrivial_equilibrium(self.two_strains(), 0.0, 1.0)
        assert point.S[0] == pytest.approx(19763721.0037542, rel=1e-12)

    def test_positive_reference_is_infeasible(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            params = random_params(rng, 2)
            u = float(rng.uniform(0.0, 0.9))
            i2 = float(rng.uniform(1.0, 1e5))
            point = nontrivial_equilibrium(params, u, i2)
            assert point.I[0] < 0.0
            assert not point.feasible
            assert np.max(equilibrium_residuals(point, params, u)) < 1e-9

    def test_full_lockdown_degenerate(self):
        with pytest.raises(DegenerateControlError):
            nontrivial_equilibrium(self.two_strains(), 1.0, 1.0)

    def test_strict_mu_validation(self):
        params = [
            StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=0.0),
            StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU),
        ]
        with pytest.raises(DomainError):
            nontrivial_equilibrium(params, 0.0, 1.0)

    def test_two_strains_required(self, baseline_params):
        with pytest.raises(DomainError):
            nontrivial_equilibrium(baseline_params, 0.0, 1.0)

    def test_nan_reference_rejected(self):
        with pytest.raises(DomainError, match="I_bar_ref"):
            nontrivial_equilibrium(self.two_strains(), 0.0, NAN)

    def test_nan_compartment_is_infeasible(self):
        # Finite rates whose sum mu + gamma overflows make E = inf * 0 = NaN
        # at I_bar = 0 (an infinite rate no longer builds).
        p = StrainParams(beta=BETA, sigma=SIGMA, gamma=1e308, delta=DELTA, mu=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            point = nontrivial_equilibrium([p, p], 0.0, 0.0)
        assert np.all(np.isnan(point.E)) and point.I[1] == 0.0
        assert not point.feasible


class TestAnalyticEigenvalues:
    @pytest.mark.parametrize("s_bar", [
        -1.0, NAN, [NAN, 1e8], [1e8], [1e8, 1e8, 1e8],
    ])
    def test_negative_or_nan_pool_rejected(self, s_bar):
        # The same check as reproduction_number's: a one-value list is not
        # broadcast over two strains, and a three-value one is not a shape error.
        p = StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)
        with pytest.raises(DomainError, match="S_bar"):
            analytic_eigenvalues([p, p], s_bar, 0.0)

    def test_full_lockdown_collapses_roots(self, baseline_params):
        eig = analytic_eigenvalues(baseline_params, 217e6, 1.0)
        values = sorted(e.real for e in eig)
        expected = sorted([0.0, 0.0, -DELTA, -(MU + GAMMA), -SIGMA])
        assert values == pytest.approx(expected, abs=1e-15)
        assert np.all(np.abs(eig.imag) == 0.0)

    def test_structure_zeros_and_deltas(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            params = random_params(rng, n)
            s_bar = rng.uniform(1e5, 1e8, size=n)
            eig = analytic_eigenvalues(params, s_bar, float(rng.uniform(0, 1)))
            assert len(eig) == 4 * n + 1
            assert np.all(eig[: n + 1] == 0.0)
            assert eig[n + 1 : 2 * n + 1] == pytest.approx(
                [-p.delta for p in params]
            )

    def test_sign_criterion_matches_reproduction_number(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            params = random_params(rng, n)
            s_bar = rng.uniform(1e5, 1e9, size=n)
            u = float(rng.uniform(0.0, 1.0))
            eig = analytic_eigenvalues(params, s_bar, u)
            quad = eig[2 * n + 1 :]
            all_negative = bool(np.all(quad.real < 0))
            r0 = reproduction_number(params, s_bar, u).value
            assert all_negative == (r0 < 1.0)


class TestFullSystemRhs:
    def test_consistent_with_reduced_form_when_s_is_algebraic(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            params = random_params(rng, n)
            state = random_state(rng, n)
            u = float(rng.uniform(0, 1))
            lP, lE, lI, lR = state_slopes(state, params, u)
            dP, dS, dE, dI, dR = full_system_rhs(
                state.P, state.susceptible_all(), state.E, state.I, state.R,
                params, u,
            )
            assert dP == pytest.approx(lP, rel=1e-14, abs=1e-300)
            assert dE == pytest.approx(lE, rel=1e-14)
            assert dI == pytest.approx(lI, rel=1e-14)
            assert dR == pytest.approx(lR, rel=1e-14)


class TestJacobian:
    def test_matches_numeric_jacobian(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            params = random_params(rng, n)
            # Some strains are not yet seeded: E = I = R = 0.
            blank = [bool(rng.choice([False, True])) for _ in params]
            state = random_state(rng, n, t=5.0)
            state = EpidemicState(
                t=state.t, P=state.P, E=np.where(blank, 0.0, state.E),
                I=np.where(blank, 0.0, state.I), R=np.where(blank, 0.0, state.R),
            )
            u = float(rng.uniform(0.0, 1.0))
            J_num = numeric_jacobian(state, params, u)
            gap = np.abs(jacobian_at(state, params, u) - J_num).max()
            assert gap < 1e-9 * max(np.abs(J_num).max(), 1.0)

    @pytest.mark.parametrize("h", [0.0, 0.35])
    def test_costate_lists_is_the_row_product(self, h):
        # The adjoint's O(n) slope equals phi J + c1 e_P with the dense
        # Jacobian, at the stage input phi + h*k; einsum keeps the product
        # free of fused multiply-adds.
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            params = random_params(rng, n)
            state = random_state(rng, n)
            u = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
            c1 = float(rng.uniform(0.1, 10.0))
            phi, k = rng.uniform(-10.0, 10.0, size=(2, 4 * n + 1))
            k[0] = c1
            S = state.susceptible_all()
            wb = (1.0 - u) * rate_table(params)[:, 0]
            slopes = [[0.0] * n for _ in range(4)]
            dP = costate_lists(
                float(phi[0]), *(part.tolist() for part in split(phi, n)[1:]), h,
                *(part.tolist() for part in split(k, n)[1:]),
                list(enumerate(rate_table(params).tolist())),
                (wb * S).tolist(), (wb * state.I).tolist(), c1, *slopes,
            )
            got = np.hstack(([dP], *slopes))
            expected = np.einsum("ij,i->j", jacobian_at(state, params, u), phi + h * k)
            expected[0] += c1
            assert dP == c1
            assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


class TestScalarClosedForms:
    """The vectorised stability code equals its closed forms evaluated one
    strain at a time on Python floats, bit for bit: reading ``mu + gamma``
    from the rate table must not re-associate a sum."""

    def test_reproduction_number_terms(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            params = random_params(rng, n)
            s_bar = rng.uniform(0.0, 3e8, size=n)
            u = float(rng.uniform(0.0, 1.0))
            terms = reproduction_number(params, s_bar, u).per_strain
            assert terms.tolist() == [
                (1.0 - u) * p.beta * float(s) / (p.mu + p.gamma)
                for p, s in zip(params, s_bar)
            ]

    def test_equilibrium_compartments(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            params = random_params(rng, 2)
            u = float(rng.uniform(0.0, 0.99))
            i2 = float(rng.uniform(0.0, 1e5))
            point = nontrivial_equilibrium(params, u, i2)
            I = [-(params[1].mu / params[0].mu) * i2, i2]
            assert point.I.tolist() == I
            assert point.S.tolist() == [(p.mu + p.gamma) / ((1.0 - u) * p.beta) for p in params]
            assert point.E.tolist() == [(p.mu + p.gamma) * i / p.sigma for p, i in zip(params, I)]
            assert point.R.tolist() == [p.gamma * i / p.delta for p, i in zip(params, I)]

    def test_max_stable_dt(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            params = random_params(rng, n)
            population = float(rng.uniform(1e6, 3e8))
            rate = max(p.beta * population + p.sigma + p.gamma + p.mu for p in params)
            waning = max(p.delta for p in params)
            assert max_stable_dt(params, population) == min(
                RK4_REAL_STABILITY / rate, 1.0 / waning
            )
