"""The artifact writers against their per-cell and per-point oracles."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from multistrain import (
    ControlSchedule,
    EpidemicState,
    StrainParams,
    TimeGrid,
    Trajectory,
    simulate,
)
from multistrain.runner import write_trajectory_csv
from multistrain.svgchart import MAX_POINTS, line_chart

from conftest import (
    BETA, DELTA, E0, GAMMA, I0, MU, P0, R0_, SIGMA,
    reference_polyline_points, reference_write_trajectory_csv,
)

# Doubles whose text is easy to get wrong: subnormals, the smallest normal,
# values that need all 17 digits, the largest double and signed zeros.
AWKWARD = np.array([
    5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-300,
    0.30000000000000004, 1.0 / 3.0, 123456789.12345679, 2.0 / 3.0 * 1e-7,
    1e308, 1.7976931348623157e308, 0.0, -0.0, 1.0, 217000255.0,
])


def run_strains(n: int, horizon: float) -> Trajectory:
    """``n`` strains seeded on day 0 with betas spread around the baseline."""
    params = [
        StrainParams(beta=BETA * (1.0 + 0.3 * j), sigma=SIGMA, gamma=GAMMA,
                     delta=DELTA, mu=MU)
        for j in range(n)
    ]
    initial = EpidemicState(t=0.0, P=P0, E=[E0] * n, I=[I0] * n, R=[R0_] * n)
    grid = TimeGrid.from_horizon(0.0, horizon, 0.1)
    u = 0.2 + 0.1 * np.sin(grid.times() / 30.0)
    return simulate(initial, params, ControlSchedule(grid, u), [], grid)


def awkward_trajectory(n_points: int, n: int) -> Trajectory:
    rng = np.random.default_rng(n_points + n)

    def draw(*shape):
        return rng.choice(AWKWARD, size=shape)

    grid = TimeGrid(t0=0.0, dt=0.1, n_steps=n_points - 1)
    return Trajectory(grid=grid, P=draw(n_points), E=draw(n_points, n),
                      I=draw(n_points, n), R=draw(n_points, n), u=draw(n_points))


def compartment_series(traj: Trajectory):
    """The compartment chart's series, as the runner builds them."""
    p0 = traj.P[0]
    S = traj.susceptible_matrix()
    series = []
    for j in range(traj.n_strains):
        series += [(f"S {j + 1}", S[:, j] / p0), (f"E {j + 1}", traj.E[:, j] / p0),
                   (f"I {j + 1}", traj.I[:, j] / p0), (f"R {j + 1}", traj.R[:, j] / p0)]
    series.append(("P", traj.P / p0))
    return series


def polyline_points(path) -> list[str]:
    root = ET.parse(path).getroot()
    return [el.get("points") for el in root.iter() if el.tag.endswith("polyline")]


def assert_csv_matches_oracle(tmp_path, traj):
    write_trajectory_csv(str(tmp_path / "new.csv"), traj)
    reference_write_trajectory_csv(str(tmp_path / "ref.csv"), traj)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def assert_chart_matches_oracle(tmp_path, x, series, **limits):
    line_chart(tmp_path / "new.svg", title="t", x=x, series=series, **limits)
    expected = reference_polyline_points(x, series, **limits)
    assert polyline_points(tmp_path / "new.svg") == expected


class TestTrajectoryCsv:
    @pytest.mark.parametrize("horizon", [50.0, 730.0])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_bytes_match_the_per_cell_writer(self, tmp_path, n, horizon):
        assert_csv_matches_oracle(tmp_path, run_strains(n, horizon))

    @pytest.mark.parametrize("n", [1, 3])
    def test_awkward_doubles_match_the_per_cell_writer(self, tmp_path, n):
        # 2 500 rows span three formatting chunks, the last one partial.
        traj = awkward_trajectory(2500, n)
        # S = P - E - I - R overflows for some rows; both writers print inf.
        with np.errstate(over="ignore", invalid="ignore"):
            assert_csv_matches_oracle(tmp_path, traj)
        text = (tmp_path / "new.csv").read_text()
        for cell in ("4.9406564584124654e-324", "2.2250738585072009e-308", "1e+308"):
            assert cell in text


class TestLineChart:
    @pytest.mark.parametrize("horizon", [50.0, 730.0])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_points_match_the_per_point_writer(self, tmp_path, n, horizon):
        traj = run_strains(n, horizon)
        x = traj.grid.times()
        assert (len(x) > MAX_POINTS) == (horizon > 500.0)
        assert_chart_matches_oracle(tmp_path, x, compartment_series(traj), y_min=0.0)
        assert_chart_matches_oracle(
            tmp_path, x, [("u", traj.u)], y_min=0.0, y_max=1.0
        )

    @pytest.mark.parametrize("n_points", [40, MAX_POINTS + 1, 12_345])
    def test_awkward_doubles_match_the_per_point_writer(self, tmp_path, n_points):
        traj = awkward_trajectory(n_points, 2)
        x = traj.grid.times()
        series = [("E", traj.E[:, 0]), ("I", traj.I[:, 1]), ("P", traj.P)]
        assert_chart_matches_oracle(tmp_path, x, series)
        assert_chart_matches_oracle(tmp_path, x, series, y_min=0.0)

    @pytest.mark.parametrize("n_x, ys, fragment", [
        (4, [0.1, 0.2], "series 'bad' has 2 values but x has 4"),
        (6000, np.linspace(0.0, 1.0, 10), "series 'bad' has 10 values but x has 6000"),
        (4, [0.1, float("nan"), 0.2, 0.3], "series 'bad' holds a non-finite value"),
    ])
    def test_bad_series_is_named(self, tmp_path, n_x, ys, fragment):
        x = np.arange(n_x, dtype=float)
        series = [("fine", np.ones(n_x)), ("bad", ys)]
        with pytest.raises(ValueError, match=fragment):
            line_chart(tmp_path / "c.svg", title="t", x=x, series=series)
        assert not (tmp_path / "c.svg").exists()

    def test_non_finite_x_is_rejected(self, tmp_path):
        x = np.array([0.0, 1.0, np.inf])
        with pytest.raises(ValueError, match="x holds a non-finite value"):
            line_chart(tmp_path / "c.svg", title="t", x=x, series=[("a", np.ones(3))])
