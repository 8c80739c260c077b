"""Property-based checks of the model invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multistrain import (
    ConfigError,
    ControlSchedule,
    CostParams,
    EpidemicState,
    IntegrationError,
    SeedEvent,
    StateConsistencyError,
    StrainParams,
    TimeGrid,
    analytic_eigenvalues,
    min_stabilizing_control,
    parse_config_text,
    reproduction_number,
    simulate,
)
from multistrain.config import _parse

from conftest import (
    E0,
    I0,
    compiled_simulate,
    compiled_sweep,
    reference_simulate,
    reference_sweep,
    seeded_inputs,
    state_slopes,
    susceptible_derivative,
)

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
    dP, dE, dI, dR = state_slopes(state, params, u)
    for j in range(state.n_strains):
        algebraic = dP - dE[j] - dI[j] - dR[j]
        differential = susceptible_derivative(state, params, u, j)
        scale = max(abs(algebraic), abs(differential), identity_scale(state, params, u, j))
        assert abs(algebraic - differential) / scale < 1e-12


@given(params_and_state(), controls)
@settings(max_examples=100, deadline=None)
def test_population_never_grows(ps, u):
    params, state = ps
    assert state_slopes(state, params, u)[0] <= 0.0


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


@st.composite
def stepped_scenarios(draw):
    """Config text for 1-3 strains at beta * population in [0.1, 8]/day, on a
    grid whose step divides a horizon of at most 120 days, with every seed
    day a grid node.  Returns the text and the horizon."""
    horizon = draw(st.integers(min_value=1, max_value=120))
    steps = draw(st.integers(min_value=1, max_value=4 * horizon))
    population = draw(st.floats(min_value=1e3, max_value=1e9))
    lines = [
        "[grid]", "start = 0", f"horizon = {horizon}", f"dt = {horizon / steps!r}",
        "[initial]", f"population = {population!r}",
    ]
    for j in range(draw(st.integers(min_value=1, max_value=3))):
        lines += [
            f"[strain.{j + 1}]",
            f"beta = {draw(st.floats(min_value=0.1, max_value=8.0)) / population!r}",
            f"sigma = {draw(st.floats(min_value=1 / 14, max_value=1.0))!r}",
            f"gamma = {draw(st.floats(min_value=1 / 21, max_value=0.5))!r}",
            f"delta = {draw(st.floats(min_value=1 / 730, max_value=5.0))!r}",
            f"mu = {draw(st.floats(min_value=0.0, max_value=1e-3))!r}",
            f"activation_day = {horizon * draw(st.integers(0, steps)) / steps!r}",
            f"seed_exposed = {population * draw(st.floats(1e-7, 1e-2))!r}",
            f"seed_infected = {population * draw(st.floats(1e-7, 1e-2))!r}",
        ]
    lines += ["[control]", "mode = none"]
    return "\n".join(lines) + "\n", horizon


# R waning at delta = 5/day from 0 under an inflow gamma I: the step
# 24/44 lies within RK4's stability bound 2.78/5 but takes R below zero at
# step 0, so the step bound must reject it at load.
FAST_WANING = "\n".join([
    "[grid]", "start = 0", "horizon = 24", f"dt = {24 / 44!r}",
    "[initial]", "population = 1000.0",
    "[strain.1]", "beta = 0.001", "sigma = 1.0", "gamma = 0.5", "delta = 5.0",
    "mu = 0.0", "activation_day = 0.0", "seed_exposed = 1.953125",
    "seed_infected = 7.8125",
    "[control]", "mode = none",
]) + "\n"


@given(stepped_scenarios())
@example((FAST_WANING, 24))
@settings(max_examples=30, deadline=None)
def test_every_step_that_loads_runs_to_the_horizon(scenario):
    """The step bound of ``max_stable_dt`` rejects at load every step that
    would leave the admissible region mid-run."""
    text, horizon = scenario
    try:
        cfg = parse_config_text(text)
    except ConfigError as err:
        assert "grid.dt" in str(err)
        return
    grid = cfg.grid()
    schedule = ControlSchedule.constant(grid, 0.0)
    traj = simulate(cfg.initial_state(), cfg.strain_params(), schedule, cfg.seed_events(), grid)
    assert traj.grid.T == pytest.approx(horizon)


@st.composite
def twin_inputs(draw):
    """``simulate``'s inputs for a stepped scenario at its drawn step, stable
    or not, under a random control per node, with up to three more seeds
    (on node 0, on node N, on a scenario seed's node or on any node, some
    larger than the susceptible pool); and a random ``c1``."""
    text, _ = draw(stepped_scenarios())
    cfg = _parse(text, "<drawn>", ".")
    grid, params, events = cfg.grid(), cfg.strain_params(), cfg.seed_events()
    N = grid.n_steps
    nodes = st.sampled_from([0, N, grid.index_of(events[0].time)]) | st.integers(0, N)
    share = st.floats(min_value=0.0, max_value=0.5)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        events.append(SeedEvent(
            time=grid.time_at(draw(nodes)),
            strain=draw(st.integers(min_value=0, max_value=len(params) - 1)),
            exposed=cfg.population * draw(share), infected=cfg.population * draw(share),
            removed=cfg.population * draw(share),
        ))
    # Values drawn beyond [0, 1] clip to exact zeros and ones.
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    u = np.clip(rng.uniform(-0.2, 1.2, size=N + 1), 0.0, 1.0)
    c1 = draw(st.floats(min_value=1e-3, max_value=1e3))
    return (cfg.initial_state(), params, ControlSchedule(grid, u), events, grid), c1


def twin_outcome(run, sweep, inputs, c1):
    """The bytes of a run's history and of its costates, or the run's error
    type, message and step."""
    try:
        traj = run(*inputs)
    except (IntegrationError, StateConsistencyError) as exc:
        return type(exc), str(exc), getattr(exc, "step", None)
    costates = sweep(traj, inputs[1], CostParams(c1=c1, c2=1.0))
    return [
        part.tobytes()
        for part in (traj.P, traj.E, traj.I, traj.R, costates.phi_P, costates.phi_S,
                     costates.phi_E, costates.phi_I, costates.phi_R)
    ]


@given(twin_inputs())
@example((seeded_inputs(
    SeedEvent(time=0.0, strain=0, exposed=E0, infected=I0),
    SeedEvent(time=0.0, strain=1, exposed=E0),
    SeedEvent(time=12.0, strain=1, infected=I0),
    SeedEvent(time=12.0, strain=1, exposed=E0),
    SeedEvent(time=30.0, strain=0, removed=E0),
), 2.0))
@settings(max_examples=40, deadline=None)
def test_compiled_and_list_loops_agree(scenario):
    """``simulate`` and ``backward_sweep`` give the same bytes in C and on
    lists, and a run that fails fails alike on both, at the same step."""
    inputs, c1 = scenario
    assert twin_outcome(compiled_simulate, compiled_sweep, inputs, c1) == twin_outcome(
        reference_simulate, reference_sweep, inputs, c1
    )
