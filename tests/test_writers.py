"""The artifact writers against their per-cell and per-point oracles, and
the compiled formatters against Python's ``%`` formats."""

import io
import math
import os
import shutil
import subprocess
import tempfile
import xml.etree.ElementTree as ET
from unittest.mock import patch

import numpy as np
import pytest

from multistrain import (
    ControlSchedule,
    EpidemicState,
    StrainParams,
    TimeGrid,
    Trajectory,
    integrate,
    simulate,
)
from multistrain.runner import write_trajectory_csv
from multistrain.svgchart import MAX_POINTS, line_chart

from conftest import (
    BETA, DELTA, E0, GAMMA, I0, MU, P0, R0_, SIGMA, compiled_path, preset_inputs,
    python_path, reference_polyline_points, reference_write_trajectory_csv,
    require_kernel,
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


def awkward_trajectory(n_points: int, n: int, pool=AWKWARD) -> Trajectory:
    """P, E, I, R and u drawn from ``pool``; S = P - E - I - R as it falls."""
    rng = np.random.default_rng(n_points + n)

    def draw(*shape):
        return rng.choice(pool, size=shape)

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


def finite_bit_patterns(size: int, seed: int) -> np.ndarray:
    """Finite doubles of uniformly random bits, either sign."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=size, dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)]


def both_paths(tmp_path, write, *args, **kwargs) -> list[bytes]:
    """The bytes ``write(path, *args, **kwargs)`` writes with the compiled
    formatters and with Python's."""
    out = []
    for name, path in (("compiled", compiled_path), ("python", python_path)):
        target = tmp_path / name
        with path(), np.errstate(over="ignore", invalid="ignore"):
            write(target, *args, **kwargs)
        out.append(target.read_bytes())
    return out


def compiled_text(entry: str, arrays, python_item):
    """``integrate.write_text`` with the library's ``entry`` over the rows of
    ``arrays``: the text, and the items it handed to ``python_item``."""
    require_kernel()
    lib = integrate._kernel(math.inf)
    arrays = [np.ascontiguousarray(a, dtype=float) for a in arrays]
    if entry == "ms_format_rows":
        args = (arrays[0].ctypes.data, arrays[0].shape[1])
    else:
        args = tuple(a.ctypes.data for a in arrays)
    fh, handed = io.BytesIO(), []
    integrate.write_text(
        fh, getattr(lib, entry), args, len(arrays[0]),
        lambda k: handed.append(k) or python_item(k),
    )
    return fh.getvalue().decode(), handed


def rows_both_ways(values):
    """``values`` as ``%.17g`` rows: the compiled text, the items it handed
    back and Python's text."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    text, handed = compiled_text(
        "ms_format_rows", [values], lambda k: row % tuple(values[k].tolist())
    )
    return text, handed, "".join([row % tuple(r) for r in values.tolist()])


def points_both_ways(xs, ys):
    """``"%.2f,%.2f"`` points joined by spaces: the compiled text, the items
    it handed back and Python's text."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    text, handed = compiled_text(
        "ms_format_points", [xs, ys],
        lambda k: (" " if k else "") + "%.2f,%.2f" % (xs[k], ys[k]),
    )
    return text, handed, " ".join(["%.2f,%.2f" % p for p in zip(xs.tolist(), ys.tolist())])


class TestCompiledWriters:
    """The compiled formatters give Python's bytes on every input: digit for
    digit where they format a value, and by handing the row or point back
    where a value is outside their exact range."""

    @pytest.mark.parametrize("n", [1, 3])
    def test_awkward_doubles_give_the_python_bytes(self, tmp_path, n):
        # inf where S = P - E - I - R overflows, subnormals, signed zeros.
        compiled, python = both_paths(tmp_path, write_trajectory_csv,
                                      awkward_trajectory(2500, n))
        assert compiled == python
        assert b"inf" in python and b"4.9406564584124654e-324" in python

    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_bit_patterns_give_the_python_bytes(self, tmp_path, seed):
        pool = finite_bit_patterns(20_000, seed)
        traj = awkward_trajectory(3000, 2, pool)
        compiled, python = both_paths(tmp_path, write_trajectory_csv, traj)
        assert compiled == python
        text, _, expected = rows_both_ways(pool[:16_000].reshape(-1, 8))
        assert text == expected

    def test_g17_switch_points_and_carries(self):
        values = [
            1e-5, 9.999999999999999e-5, 1e-4, 0.00012345678901234567, 1e16,
            9999999999999998.0, 1e17, 99999999999999999.0, 1e-16, 1.0000000000000001e-16,
            0.1, 1.0, 123456.5, 0.0, -0.0, -1e-5, 2.0**53, 2.0**-54, 2.0**56,
        ]
        values += [math.nextafter(v, math.inf) for v in values[:8]]
        values += [math.nextafter(v, 0.0) for v in values[:8]]
        values += [float(f"{d}e{k}") for k in range(-17, 18) for d in (1, 5, 9.5)]
        text, _, expected = rows_both_ways(np.array(values)[:, None])
        assert text == expected
        for cell in ("1.0000000000000001e-05", "9.9999999999999991e-05", "0.0001",
                     "10000000000000000", "1e+17", "123456.5", "-0", "0"):
            assert f"\n{cell}\n" in "\n" + text

    def test_rounds_ties_to_even_at_two_decimals(self):
        xs = [0.125, 0.375, 2.675, 0.005, 1.005, -0.001, -0.0, 2.5, 64.125, 64.375,
              2.0**53 - 1, -(2.0**53 - 1), 5e-324, 1e-300, 0.995, 999.995]
        ys = [0.0] * len(xs)
        text, handed, expected = points_both_ways(xs, ys)
        assert text == expected and handed == []
        assert text.split(" ")[:6] == [
            "0.12,0.00", "0.38,0.00", "2.67,0.00", "0.01,0.00", "1.00,0.00", "-0.00,0.00"
        ]

    def test_random_points_give_the_python_bytes(self):
        rng = np.random.default_rng(7)
        xs = np.concatenate([finite_bit_patterns(4000, 3)[:3000],
                             rng.uniform(-1e4, 1e4, 3000),
                             rng.integers(-2**20, 2**20, 3000) / 8.0])
        ys = rng.permutation(xs)
        text, _, expected = points_both_ways(xs, ys)
        assert text == expected

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e17, 1e-17, 2.0**53])
    def test_items_outside_the_exact_range_are_handed_back(self, where, bad):
        n = 50
        k = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        rows = np.linspace(0.5, 7.5, n * 3).reshape(n, 3)
        xs = np.linspace(64.0, 944.0, n)
        ys = np.linspace(476.0, 36.0, n)
        rows[k, 1] = xs[k] = bad
        text, handed, expected = rows_both_ways(rows)
        assert text == expected
        assert handed == ([] if bad == 2.0**53 else [k])
        text, handed, expected = points_both_ways(xs, ys)
        assert text == expected
        assert handed == ([] if abs(bad) < 2.0**53 else [k])

    @pytest.mark.parametrize("cap", [300, 1_000, 2_049, 100])
    def test_rows_and_points_across_the_buffer_edge(self, tmp_path, monkeypatch, cap):
        # A row of 2 strains takes up to 11 * 25 + 1 bytes and a point 48;
        # below that the formatter writes nothing, and Python each item.
        monkeypatch.setattr(integrate, "_TEXT_BYTES", cap)
        traj = run_strains(2, 20.0)
        compiled, python = both_paths(tmp_path, write_trajectory_csv, traj)
        assert compiled == python
        x = traj.grid.times()
        compiled, python = both_paths(
            tmp_path, line_chart, title="t", x=x, series=compartment_series(traj)
        )
        assert compiled == python

    @pytest.mark.parametrize("n_points", [40, MAX_POINTS + 1, 12_345])
    def test_charts_give_the_python_bytes(self, tmp_path, n_points):
        traj = awkward_trajectory(n_points, 2)
        x = traj.grid.times()
        series = [("E", traj.E[:, 0]), ("I", traj.I[:, 1]), ("P", traj.P)]
        for limits in ({}, {"y_min": 0.0}, {"y_min": 0.0, "y_max": 1.0}):
            compiled, python = both_paths(
                tmp_path, line_chart, title="t é", x=x, series=series, **limits
            )
            assert compiled == python

    @pytest.mark.parametrize("name", ["experiment1", "experiment3", "case_a"])
    def test_preset_artifacts_give_the_python_bytes(self, tmp_path, name):
        with python_path():
            traj = simulate(*preset_inputs(name))
        csv_bytes = both_paths(tmp_path, write_trajectory_csv, traj)
        assert csv_bytes[0] == csv_bytes[1]
        series = compartment_series(traj)
        svg_bytes = both_paths(
            tmp_path, line_chart, title=name, x=traj.grid.times(), series=series,
            y_min=0.0,
        )
        assert svg_bytes[0] == svg_bytes[1]

    def test_a_cc_without_int128_builds_every_kernel_but_the_row_writer(
        self, tmp_path
    ):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler cc on PATH to build _rk4.c")
        source = os.path.join(os.path.dirname(integrate.__file__), "_rk4.c")
        build = tempfile.TemporaryDirectory()
        proc = subprocess.Popen([
            *integrate._CC, "-U__SIZEOF_INT128__",
            "-o", os.path.join(build.name, "_rk4.so"), source,
        ])
        lib = integrate._load_build(proc, build)
        assert lib, "cc could not build _rk4.c without __int128"
        assert all(hasattr(lib, f) for f in ("ms_rk4", "ms_adjoint", "ms_format_points"))
        assert not hasattr(lib, "ms_format_rows")
        traj = run_strains(2, 50.0)
        series = compartment_series(traj)
        written = []
        for kernel in (lambda work: lib, lambda work: None):
            with patch.object(integrate, "_kernel", kernel):
                write_trajectory_csv(tmp_path / "t.csv", traj)
                line_chart(tmp_path / "c.svg", title="t", x=traj.grid.times(),
                           series=series)
            written.append(((tmp_path / "t.csv").read_bytes(),
                            (tmp_path / "c.svg").read_bytes()))
        assert written[0] == written[1]
