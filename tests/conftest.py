import csv
import math
import shutil
from contextlib import contextmanager
from typing import Sequence
from unittest.mock import patch

import numpy as np
import pytest

from multistrain import (
    ControlSchedule,
    EpidemicState,
    SeedEvent,
    StrainParams,
    TimeGrid,
    backward_sweep,
    integrate,
    preset_config,
    simulate,
    svgchart,
)
from multistrain.dynamics import (
    EquilibriumPoint,
    check_control,
    flows,
    full_system_rhs,
    rate_table,
    rhs_lists,
    split,
)
from multistrain.errors import DomainError

# Single-strain baseline parameters shared by many tests.
BETA = 2.41e-9
SIGMA = 1.0 / 7.0
GAMMA = 1.0 / 21.0
DELTA = 1.0 / 90.0
MU = 1.152e-5
S0 = 217e6
E0, I0, R0_ = 252.0, 2.0, 1.0
P0 = S0 + E0 + I0 + R0_


@pytest.fixture
def baseline_params():
    return [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]


@pytest.fixture
def baseline_initial():
    return EpidemicState(t=0.0, P=P0, E=[E0], I=[I0], R=[R0_])


def random_params(rng: np.random.Generator, n: int) -> list[StrainParams]:
    """Positive rates in physically plausible ranges."""
    out = []
    for _ in range(n):
        out.append(
            StrainParams(
                beta=float(rng.uniform(1e-9, 1e-6)),
                sigma=float(rng.uniform(0.05, 0.5)),
                gamma=float(rng.uniform(0.02, 0.3)),
                delta=float(rng.uniform(0.005, 0.1)),
                mu=float(rng.uniform(1e-6, 1e-3)),
            )
        )
    return out


def random_state(rng: np.random.Generator, n: int, t=0.0) -> EpidemicState:
    """Valid state with comfortably positive susceptible pools."""
    P = float(rng.uniform(1e6, 1e8))
    E = rng.uniform(0.0, 0.05 * P, size=n)
    I = rng.uniform(0.0, 0.05 * P, size=n)
    R = rng.uniform(0.0, 0.05 * P, size=n)
    return EpidemicState(t=t, P=P, E=E, I=I, R=R)


def reference_simulate(*inputs):
    """``simulate`` with its node loop in Python, ``integrate._python_loop``:
    the reference that the compiled loop must match bit for bit."""
    with patch.object(integrate, "_kernel", lambda name, units: None):
        return simulate(*inputs)


def require_kernel():
    """Wait for the build of ``_rk4.c`` if this process has not finished one;
    skips where there is no ``cc``."""
    if not integrate._kernel("ms_rk4", math.inf):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler cc on PATH to build _rk4.c")
        pytest.fail("cc is on PATH but could not build and load _rk4.c")


def compiled_simulate(*inputs):
    """``simulate`` with its node loop in the compiled kernel."""
    require_kernel()
    return simulate(*inputs)


@contextmanager
def python_path():
    """Every loop and writer of the block in Python, as without ``cc``."""
    with patch.object(integrate, "_kernel", lambda name, units: None):
        yield


@contextmanager
def compiled_path():
    """Every loop and writer of the block in the compiled library."""
    require_kernel()
    yield


def reference_sweep(*inputs):
    """``backward_sweep`` in Python, ``control._adjoint_loop``: the reference
    that the compiled sweep must match bit for bit."""
    with patch.object(integrate, "_kernel", lambda name, units: None):
        return backward_sweep(*inputs)


def compiled_sweep(*inputs):
    """``backward_sweep`` as one call of the compiled ``ms_adjoint``."""
    require_kernel()
    return backward_sweep(*inputs)


def preset_inputs(name, u=None):
    """``simulate``'s arguments for a preset, under ``u(times)`` if given."""
    cfg = preset_config(name)
    grid = cfg.grid()
    if u is None:
        schedule = ControlSchedule.constant(grid, cfg.control_value or 0.0)
    else:
        schedule = ControlSchedule(grid, u(grid.times()))
    return cfg.initial_state(), cfg.strain_params(), schedule, cfg.seed_events(), grid


def many_strain_inputs():
    """Eight strains shaped like the ``many_strains`` benchmark pool: the
    first seeded on day 0, strain j about 40 j days later with its own beta."""
    rng = np.random.default_rng(8)
    params = [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]
    params += [
        StrainParams(beta=BETA * rng.uniform(0.8, 1.6), sigma=SIGMA, gamma=GAMMA,
                     delta=DELTA, mu=MU)
        for _ in range(7)
    ]
    events = [
        SeedEvent(time=float(0 if j == 0 else 40 * j + rng.integers(0, 21)), strain=j,
                  exposed=E0, infected=I0, removed=R0_)
        for j in range(8)
    ]
    grid = TimeGrid.from_horizon(0.0, 730.0, 0.05)
    initial = EpidemicState(t=0.0, P=P0, E=[0.0] * 8, I=[0.0] * 8, R=[0.0] * 8)
    return initial, params, ControlSchedule.constant(grid, 0.2), events, grid


def seeded_inputs(*events, n=2):
    """``n`` baseline strains over 30 days at dt 0.1 with the given seeds."""
    params = [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)] * n
    grid = TimeGrid.from_horizon(0.0, 30.0, 0.1)
    initial = EpidemicState(t=0.0, P=P0, E=[0.0] * n, I=[0.0] * n, R=[0.0] * n)
    return initial, params, ControlSchedule.constant(grid, 0.1), list(events), grid


def wave(times):
    return 0.3 + 0.2 * np.sin(2.0 * math.pi * times / 60.0)


def state_slopes(state: EpidemicState, params: list[StrainParams], u: float):
    """``(dP, dE, dI, dR)`` at ``state`` from the forward step's own list
    code: ``dynamics.rhs_lists`` at ``h = 0`` with zero slopes."""
    zero = [0.0] * state.n_strains
    dE, dI, dR = list(zero), list(zero), list(zero)
    dP = rhs_lists(
        state.P, state.E.tolist(), state.I.tolist(), state.R.tolist(),
        0.0, zero, zero, zero, list(enumerate(rate_table(params).tolist())), u,
        dE, dI, dR,
    )
    return dP, np.array(dE), np.array(dI), np.array(dR)


def numeric_jacobian(
    state: EpidemicState,
    params: Sequence[StrainParams],
    u: float,
) -> np.ndarray:
    """Central-difference Jacobian of the full (4n+1)-dimensional system.

    Coordinates are ordered ``[P, S_1..S_n, E_1..E_n, I_1..I_n, R_1..R_n]``
    with the susceptible values taken algebraically from the state and then
    treated as independent coordinates.  The perturbation is 1e-6 of the
    population scale; the right-hand side is bilinear, so central differences
    are exact up to round-off.
    """
    if len(params) != state.n_strains:
        raise DomainError("state and parameter list disagree on strain count")
    n = state.n_strains
    x0 = np.hstack((state.P, state.susceptible_all(), state.E, state.I, state.R))
    step = 1e-6 * max(state.P, 1.0)
    dim = 4 * n + 1
    jac = np.empty((dim, dim))
    for i in range(dim):
        plus = x0.copy()
        plus[i] += step
        minus = x0.copy()
        minus[i] -= step
        f_plus = np.hstack(full_system_rhs(*split(plus, n), params, u))
        f_minus = np.hstack(full_system_rhs(*split(minus, n), params, u))
        jac[:, i] = (f_plus - f_minus) / (2.0 * step)
    return jac


def equilibrium_residuals(
    point: EquilibriumPoint, params: Sequence[StrainParams], u: float
) -> np.ndarray:
    """Relative residuals of the balance equations at an equilibrium point.

    Each equation's residual is normalised by the largest magnitude among its
    constituent flow terms (zero-flow equations report zero).  Ordering
    matches the Jacobian coordinates: P, then S_j, E_j, I_j, R_j per strain.
    """
    n = len(params)
    if not (len(point.S) == n):
        raise DomainError("equilibrium point and parameter list disagree on strains")
    check_control(u)
    f = flows(point.S, point.E, point.I, point.R, u, rate_table(params))

    def rel(*terms):
        terms = np.array(terms)
        scale = np.abs(terms).max(axis=0)
        return np.abs(terms.sum(axis=0)) / np.where(scale == 0.0, 1.0, scale)

    other_deaths = f.deaths.sum() - f.deaths
    return np.concatenate((
        [rel(*-f.deaths)],
        rel(-f.transmission, f.waning, -other_deaths),
        rel(f.transmission, -f.latent_exit),
        rel(f.latent_exit, -(f.recovery + f.deaths)),
        rel(f.recovery, -f.waning),
    ))


def jacobian(S, I, u, rates: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of ``dynamics.full_system_rhs`` at K nodes at once:
    the dense oracle of the adjoint's row product ``dynamics.costate_lists``.

    ``S`` and ``I`` have shape (K, n), ``u`` is a scalar or one value per
    node and ``rates`` is ``dynamics.rate_table``.  The result has shape
    (K, 4n+1, 4n+1) in the coordinates
    ``[P, S_1..S_n, E_1..E_n, I_1..I_n, R_1..R_n]``.  Every flow but
    transmission is linear with constant rates; transmission is bilinear in
    S and I, so only those two enter.  The adjoint equations are
    ``d phi / dt = -J^T phi - c1 e_P``.
    """
    S = np.asarray(S, dtype=float)
    I = np.asarray(I, dtype=float)
    K, n = S.shape
    beta, sigma, mu_gamma, gamma, delta, mu = rates.T
    _, s, e, i, r = split(np.arange(4 * n + 1), n)
    J = np.zeros((K, 4 * n + 1, 4 * n + 1))
    J[:, 0, i] = -mu
    # S_j loses the deaths of every other strain, but not its own.
    J[:, s[:, None], i] = -mu
    J[:, s, r] = delta
    J[:, e, e] = -sigma
    J[:, i, e] = sigma
    J[:, i, i] = -mu_gamma
    J[:, r, i] = gamma
    J[:, r, r] = -delta
    w = 1.0 - np.broadcast_to(np.asarray(u, dtype=float), (K,))
    wb = w[:, None] * beta
    J[:, s, i] = -wb * S
    J[:, s, s] = -wb * I
    J[:, e, s] = wb * I
    J[:, e, i] = wb * S
    return J


def jacobian_at(state: EpidemicState, params: list[StrainParams], u: float) -> np.ndarray:
    """The analytic Jacobian at one state, as a single (4n+1)^2 matrix."""
    return jacobian(
        state.susceptible_all()[None], state.I[None], u, rate_table(params)
    )[0]


def costate_slope(state, phi, u, params, c1) -> np.ndarray:
    """The adjoint slope ``-J^T phi - c1 e_P`` at ``state``, with ``phi`` and
    the result in the coordinates ``[P, S_1..S_n, E.., I.., R..]``:

    d phi_P / dt   = -c1
    d phi_S_j / dt = (phi_S_j - phi_E_j) (1-u) beta_j I_j
    d phi_E_j / dt = sigma_j (phi_E_j - phi_I_j)
    d phi_I_j / dt = (phi_S_j - phi_E_j) (1-u) beta_j S_j
                     + phi_I_j (mu_j + gamma_j) - phi_R_j gamma_j
                     + phi_P mu_j + mu_j sum_{i != j} phi_S_i
    d phi_R_j / dt = delta_j (phi_R_j - phi_S_j)

    The product is an ``einsum``: a BLAS product may fuse multiply and add,
    and then equal ``phi_S_j`` and ``phi_E_j`` no longer cancel exactly.
    """
    d = -np.einsum("ij,i->j", jacobian_at(state, params, u), phi)
    d[0] -= c1
    return d


def susceptible_derivative(
    state: EpidemicState, params: list[StrainParams], u: float, j: int
) -> float:
    """Differential form of the susceptible pool of strain ``j``.

    dS_j/dt = -(1-u) beta_j S_j I_j + delta_j R_j - sum_{i != j} mu_i I_i

    A scalar oracle for the algebraic form the package uses: it must equal
    d/dt (P - E_j - I_j - R_j) assembled from :func:`state_slopes`.
    """
    p = params[j]
    s_j = state.P - state.E[j] - state.I[j] - state.R[j]
    transmission = (1.0 - u) * p.beta * s_j * state.I[j]
    other_deaths = 0.0
    for i, q in enumerate(params):
        if i != j:
            other_deaths += q.mu * state.I[i]
    return -transmission + p.delta * state.R[j] - other_deaths


def reference_write_trajectory_csv(path: str, traj) -> None:
    """Per-cell trajectory writer: one ``format(x, ".17g")`` per value.

    The oracle that ``runner.write_trajectory_csv`` must match byte for byte.
    """
    def g17(x):
        return format(float(x), ".17g")

    n = traj.n_strains
    header = ["t", "P"]
    for j in range(1, n + 1):
        header += [f"S_{j}", f"E_{j}", f"I_{j}", f"R_{j}"]
    header.append("u")
    S = traj.susceptible_matrix()
    times = traj.grid.times()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k in range(traj.grid.n_points):
            row = [g17(times[k]), g17(traj.P[k])]
            for j in range(n):
                row += [
                    g17(S[k, j]), g17(traj.E[k, j]),
                    g17(traj.I[k, j]), g17(traj.R[k, j]),
                ]
            row.append(g17(traj.u[k]))
            writer.writerow(row)


def reference_polyline_points(x, series, y_min=None, y_max=None) -> list[str]:
    """Per-point ``points`` attribute of each series of ``svgchart.line_chart``.

    Scalar ranges, decimation per series and one f-string per coordinate:
    the oracle that the array form in ``line_chart`` must match byte for byte.
    """
    x = list(map(float, x))
    all_y = [float(v) for _, ys in series for v in ys]
    lo_x, hi_x = min(x), max(x)
    lo_y = min(all_y) if y_min is None else y_min
    hi_y = max(all_y) if y_max is None else y_max
    if hi_y <= lo_y:
        hi_y = lo_y + 1.0
    if hi_x <= lo_x:
        hi_x = lo_x + 1.0
    plot_w = svgchart.WIDTH - svgchart.MARGIN_LEFT - svgchart.MARGIN_RIGHT
    plot_h = svgchart.HEIGHT - svgchart.MARGIN_TOP - svgchart.MARGIN_BOTTOM

    def px(v):
        return svgchart.MARGIN_LEFT + (v - lo_x) / (hi_x - lo_x) * plot_w

    def py(v):
        return svgchart.MARGIN_TOP + (hi_y - v) / (hi_y - lo_y) * plot_h

    def decimate(xs, ys):
        n = len(xs)
        if n <= svgchart.MAX_POINTS:
            return xs, ys
        stride = -(-n // svgchart.MAX_POINTS)
        keep = list(range(0, n, stride))
        if keep[-1] != n - 1:
            keep.append(n - 1)
        return [xs[i] for i in keep], [ys[i] for i in keep]

    out = []
    for _, ys in series:
        xs_d, ys_d = decimate(x, [float(v) for v in ys])
        out.append(" ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs_d, ys_d)))
    return out


def reference_pointwise_formula(traj, costates, beta_row, costs) -> np.ndarray:
    """The closed-form control in whole-array numpy, one temporary per
    operation, with the log argument masked by the sign of the switching
    sum: the oracle that ``control._pointwise_formula`` must match bit for
    bit."""
    contrib = beta_row * traj.susceptible_matrix() * traj.I
    total = (contrib * (costates.phi_S - costates.phi_E)).sum(axis=1)
    positive = total > 0.0
    safe = np.where(positive, total / costs.c2, 1.0)
    values = np.log(safe) / costs.c2
    return np.clip(np.where(positive, values, 0.0), 0.0, 1.0)


def reference_anderson_step(u, g, dU, dG, a) -> np.ndarray:
    """The Anderson step with its ridge added through ``np.diag_indices_from``
    and out-of-place clipping: the oracle that ``control._anderson_step``
    must match bit for bit."""
    step = u + a * g
    if len(dG):
        gram = np.dot(dG, dG.T)
        gram[np.diag_indices_from(gram)] += 1e-12 * np.trace(gram)
        try:
            gamma = np.linalg.solve(gram, np.dot(dG, g))
        except np.linalg.LinAlgError:
            return np.clip(step, 0.0, 1.0)
        if np.all(np.isfinite(gamma)):
            step -= np.dot(gamma, dU) + a * np.dot(gamma, dG)
    return np.clip(step, 0.0, 1.0)


def reference_schedule_error(u) -> str | None:
    """The message ``ControlSchedule`` rejects the values ``u`` with, checked
    in the order the messages rank, non-finite values first, then the range;
    ``None`` for values it accepts."""
    arr = np.array(u, dtype=float)
    if not np.all(np.isfinite(arr)):
        bad = float(arr[~np.isfinite(arr)][0])
        return f"schedule contains non-finite values, got {bad!r}"
    lo, hi = float(arr.min()), float(arr.max())
    if lo < 0.0 or hi > 1.0:
        return f"schedule values must lie in [0, 1], got min={lo!r}, max={hi!r}"
    return None
