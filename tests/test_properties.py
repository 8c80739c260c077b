"""Property-based checks of the model invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from multistrain import (
    ControlSchedule,
    EpidemicState,
    SeedEvent,
    StrainParams,
    TimeGrid,
    analytic_eigenvalues,
    derivatives,
    min_stabilizing_control,
    reproduction_number,
    simulate,
)

from conftest import susceptible_derivative

rates = st.floats(min_value=0.01, max_value=1.0)
betas = st.floats(min_value=1e-9, max_value=1e-6)
mus = st.floats(min_value=0.0, max_value=1e-3)
controls = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def strain_params(draw, n=None):
    count = n if n is not None else draw(st.integers(min_value=1, max_value=3))
    return [
        StrainParams(
            beta=draw(betas), sigma=draw(rates), gamma=draw(rates),
            delta=draw(rates), mu=draw(mus),
        )
        for _ in range(count)
    ]


@st.composite
def valid_states(draw, n):
    p = draw(st.floats(min_value=1e4, max_value=1e8))
    frac = st.floats(min_value=0.0, max_value=0.3)
    E = [draw(frac) * p for _ in range(n)]
    I = [draw(frac) * p for _ in range(n)]
    R = [draw(frac) * p for _ in range(n)]
    return EpidemicState(t=0.0, P=p, E=E, I=I, R=R)


@st.composite
def params_and_state(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    return draw(strain_params(n=n)), draw(valid_states(n))


def identity_scale(state, params, u, j):
    """Largest intermediate magnitude entering the dS_j identity."""
    p = params[j]
    s_j = state.P - state.E[j] - state.I[j] - state.R[j]
    return max(
        abs((1 - u) * p.beta * s_j * state.I[j]),
        abs(p.sigma * state.E[j]),
        abs((p.mu + p.gamma) * state.I[j]),
        abs(p.delta * state.R[j]),
        abs(sum(q.mu * state.I[i] for i, q in enumerate(params))),
        1e-300,
    )


@given(params_and_state(), controls)
@settings(max_examples=100, deadline=None)
def test_susceptible_routes_agree(ps, u):
    params, state = ps
    d = derivatives(state, params, u)
    for j in range(state.n_strains):
        algebraic = d.dP - d.dE[j] - d.dI[j] - d.dR[j]
        differential = susceptible_derivative(state, params, u, j)
        scale = max(abs(algebraic), abs(differential), identity_scale(state, params, u, j))
        assert abs(algebraic - differential) / scale < 1e-12


@given(params_and_state(), controls)
@settings(max_examples=100, deadline=None)
def test_population_never_grows(ps, u):
    params, state = ps
    assert derivatives(state, params, u).dP <= 0.0


@given(strain_params(), st.floats(min_value=1e3, max_value=1e9),
       controls, controls)
@settings(max_examples=100, deadline=None)
def test_reproduction_number_monotone_in_control(params, s_bar, u1, u2):
    lo, hi = sorted((u1, u2))
    r_lo = reproduction_number(params, s_bar, lo).value
    r_hi = reproduction_number(params, s_bar, hi).value
    assert r_hi <= r_lo + 1e-12 * max(r_lo, 1.0)
    assert reproduction_number(params, s_bar, 1.0).value == 0.0


@given(strain_params(), st.floats(min_value=1e3, max_value=1e9))
@settings(max_examples=100, deadline=None)
def test_min_stabilizing_control_stabilizes(params, s_bar):
    u_min = min_stabilizing_control(params, s_bar)
    assert 0.0 <= u_min < 1.0
    eps = 1e-6 * max(1.0 - u_min, 1e-6)
    assert reproduction_number(params, s_bar, min(u_min + eps, 1.0)).value < 1.0


@given(strain_params(), st.floats(min_value=1e3, max_value=1e9), controls)
@settings(max_examples=100, deadline=None)
def test_eigenvalue_structure(params, s_bar, u):
    n = len(params)
    eig = analytic_eigenvalues(params, s_bar, u)
    assert len(eig) == 4 * n + 1
    assert np.count_nonzero(eig == 0.0) >= n + 1
    for p in params:
        assert np.any(np.isclose(eig.real, -p.delta, rtol=1e-12, atol=0.0))


@given(strain_params(n=1), st.floats(min_value=1e5, max_value=1e7))
@settings(max_examples=25, deadline=None)
def test_short_simulations_preserve_invariants(params, p0):
    grid = TimeGrid.from_horizon(0.0, 20.0, 0.25)
    initial = EpidemicState(t=0.0, P=p0, E=[0.0], I=[0.0], R=[0.0])
    events = [SeedEvent(0.0, 0, exposed=p0 * 1e-4, infected=p0 * 1e-5)]
    traj = simulate(initial, params, ControlSchedule.constant(grid, 0.0), events, grid)
    assert np.all(np.diff(traj.P) <= 0.0)
    assert np.all(traj.susceptible_matrix() >= 0.0)
    assert np.all(traj.E >= 0.0) and np.all(traj.I >= 0.0) and np.all(traj.R >= 0.0)


@given(strain_params(n=2), controls.filter(lambda u: u < 0.999),
       st.floats(min_value=1e-3, max_value=1e6))
@settings(max_examples=100, deadline=None)
def test_positive_reference_equilibria_are_never_feasible(params, u, i2):
    from multistrain import nontrivial_equilibrium

    strict = [
        StrainParams(beta=p.beta, sigma=p.sigma, gamma=p.gamma, delta=p.delta,
                     mu=max(p.mu, 1e-6))
        for p in params
    ]
    point = nontrivial_equilibrium(strict, u, i2)
    assert point.I[0] < 0.0
    assert not point.feasible
