"""The artifact writers against their per-cell and per-point oracles, and
the compiled formatters against Python's ``%`` formats."""

import hashlib
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from fractions import Fraction
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
    preset_config,
    run_scenario,
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
        assert not (tmp_path / "c.svg").exists()

    @pytest.mark.parametrize("x, ys, fragment", [
        # Finite ranges that overflow, or whose tick step rounds to 0 or
        # cannot move a tick value (that one looped forever), name the axis.
        ([-1e308, 0.0, 1e308], [1.0, 1.0, 1.0],
         "x axis from -1e[+]308 to 1e[+]308 spans more than a double"),
        ([0.0, 1.0, 2.0], [-1e308, 0.0, 1e308],
         "y axis from -1e[+]308 to 1e[+]308 spans more than a double"),
        ([0.0, 1.0, 2.0], [0.0, 5e-324, 0.0], "y axis from 0.0 to 5e-324 is too narrow"),
        ([0.0, 1.0, 2.0], [0.0, 5e-323, 0.0], "y axis from 0.0 to 5e-323 is too narrow"),
        ([0.0, 1.0, 2.0], [1.0, 1.0000000000000002, 1.0],
         "y axis from 1.0 to 1.0000000000000002 is too narrow"),
    ])
    def test_unchartable_axis_range_is_named(self, tmp_path, x, ys, fragment):
        with pytest.raises(ValueError, match=fragment):
            line_chart(tmp_path / "c.svg", title="t", x=x, series=[("a", ys)])
        assert not (tmp_path / "c.svg").exists()

    @pytest.mark.parametrize("axis, digest", [
        ("x", "53629121fa56231701cbcf8b8686a081bed350c2ba88bac8a16ef92dc1f98f00"),
        ("y", "5cd661467ddb01440727816e59f4b73c07ed33845bc211789f9780ab41a38718"),
    ])
    def test_flat_axis_of_any_magnitude_charts(self, tmp_path, axis, digest):
        # Below 2^51 in magnitude a flat axis spans v to v + 1, as it always
        # has (the SHA-256 of those charts, one after another, whose tick
        # labels from 1e15 up carry the digits that tell them apart); beyond,
        # where v + 1 is too narrow to tick, eight spacings of doubles from v,
        # down from the largest double.  The flat series sits on the range's
        # end.
        def chart(v):
            x, ys = [v] * 3, [0.0, 1.0, 2.0]
            if axis == "y":
                x, ys = ys, x
            line_chart(tmp_path / "c.svg", title="t", x=x, series=[("a", ys)])
            return (tmp_path / "c.svg").read_bytes()

        charted = [0.0, 1.0, -5.0, 1e15, 2.0**50, 2.0**51 - 2, -(2.0**51 - 2),
                   -(2.0**51 - 1)]
        assert hashlib.sha256(b"".join(map(chart, charted))).hexdigest() == digest
        big = [2.0**51 - 1, 2.0**51, 1e16, 2.0**53, 1e17, -1e17, 1e300, -1e300,
               sys.float_info.max, -sys.float_info.max]
        for v in big:
            chart(v)
            (points,) = polyline_points(tmp_path / "c.svg")
            coords = [p.split(",")["xy".index(axis)] for p in points.split(" ")]
            ends = {"x": ("64.00", "944.00"), "y": ("476.00", "36.00")}[axis]
            assert coords == [ends[v == sys.float_info.max]] * 3

    @pytest.mark.parametrize("values, labels", [
        # Distinct in :g, which the labels keep.
        ([0.0, 1.0, 2.0], ["0", "0.5", "1", "1.5", "2"]),
        ([1e7, 2e7, 3e7], ["1e+07", "1.5e+07", "2e+07", "2.5e+07", "3e+07"]),
        # Five labels of 1e+07, and of 2.2518e+15 for a flat series.
        ([1e7, 1e7 + 1, 1e7 + 2],
         ["10000000", "10000000.5", "10000001", "10000001.5", "10000002"]),
        ([2.0**51 - 1] * 3,
         ["2251799813685247", "2251799813685247.5", "2251799813685248",
          "2251799813685248.5", "2251799813685249"]),
    ])
    @pytest.mark.parametrize("axis, anchor", [("x", "middle"), ("y", "end")])
    def test_tick_labels_tell_the_ticks_apart(self, tmp_path, values, labels, axis, anchor):
        x, ys = [0.0, 1.0, 2.0], values
        if axis == "x":
            x, ys = ys, x
        line_chart(tmp_path / "c.svg", title="t", x=x, series=[("a", ys)])
        text = (tmp_path / "c.svg").read_text()
        pattern = rf'text-anchor="{anchor}" font-family="sans-serif" font-size="11">([^<]*)<'
        assert re.findall(pattern, text) == labels


def finite_bit_patterns(size: int, seed: int) -> np.ndarray:
    """Finite doubles of uniformly random bits, either sign."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=size, dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)]


def decade_switch(e2: int) -> int:
    """The least integer m with m 2^(e2 - 52) >= 10^(K + 1), where 10^K is
    the largest power of ten up to 2^e2, in exact integers."""
    k = math.floor(e2 * math.log10(2.0))
    while Fraction(10) ** (k + 1) <= Fraction(2) ** e2:
        k += 1
    while Fraction(10) ** k > Fraction(2) ** e2:
        k -= 1
    return math.ceil(Fraction(10) ** (k + 1) / Fraction(2) ** (e2 - 52))


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


def rows_text(values):
    """Python's ``%.17g`` text of rows ``lo..hi-1`` of ``values``."""
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    return lambda lo, hi: "".join([row % tuple(r) for r in values[lo:hi].tolist()])


def points_text(xs, ys):
    """Python's ``"%.2f,%.2f"`` text of points ``lo..hi-1``, each after a
    space but the first."""
    return lambda lo, hi: (" " if lo else "") + " ".join(
        ["%.2f,%.2f" % p for p in zip(xs[lo:hi].tolist(), ys[lo:hi].tolist())]
    )


def compiled_text(entry: str, arrays, python_text):
    """``integrate.write_text`` with the library's ``entry`` over the rows of
    ``arrays``: the text, and the items it handed to ``python_text``."""
    require_kernel()
    arrays = [np.ascontiguousarray(a, dtype=float) for a in arrays]
    if entry == "ms_format_rows":
        args = (arrays[0].ctypes.data, arrays[0].shape[1])
    else:
        args = tuple(a.ctypes.data for a in arrays)
    fh, handed = io.BytesIO(), []
    integrate.write_text(
        fh, integrate._kernel(entry, math.inf), args, len(arrays[0]),
        lambda lo, hi: handed.extend(range(lo, hi)) or python_text(lo, hi),
    )
    return fh.getvalue().decode(), handed


def rows_both_ways(values):
    """``values`` as ``%.17g`` rows: the compiled text, the items it handed
    back and Python's text of one join."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    text, handed = compiled_text("ms_format_rows", [values], rows_text(values))
    return text, handed, rows_text(values)(0, len(values))


def points_both_ways(xs, ys):
    """``"%.2f,%.2f"`` points joined by spaces: the compiled text, the items
    it handed back and Python's text of one join."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    text, handed = compiled_text("ms_format_points", [xs, ys], points_text(xs, ys))
    return text, handed, points_text(xs, ys)(0, len(xs))


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3077])
def test_without_an_entry_python_writes_the_text_of_one_join(tmp_path, n):
    # write_text formats every item in chunks of 1 024; the writers on that
    # path give their per-value oracles' bytes.
    traj = awkward_trajectory(n, 2)
    values = np.column_stack([traj.P, traj.E, traj.u])
    x = traj.grid.times()
    for python_text in (rows_text(values), points_text(x, traj.P)):
        fh, calls = io.BytesIO(), []
        integrate.write_text(
            fh, None, (), n, lambda lo, hi: calls.append((lo, hi)) or python_text(lo, hi)
        )
        assert fh.getvalue().decode() == python_text(0, n)
        assert calls == [(lo, min(lo + 1024, n)) for lo in range(0, n, 1024)]
    with python_path(), np.errstate(over="ignore", invalid="ignore"):
        assert_csv_matches_oracle(tmp_path, traj)
        assert_chart_matches_oracle(tmp_path, x, [("E", traj.E[:, 0]), ("P", traj.P)])


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

    def test_every_binade_of_the_exponent_table(self):
        # Per binary exponent of the table and per sign: the binade's first
        # and last mantissa and the three around its decade switch TH; then
        # each power of ten in the exact range and two ulps either side.
        values = []
        for e2 in range(-54, 57):
            th = decade_switch(e2)
            for m in (2**52, 2**53 - 1, th - 1, th, th + 1):
                if 2**52 <= m < 2**53:
                    values += [math.ldexp(m, e2 - 52), -math.ldexp(m, e2 - 52)]
        for k in range(-16, 17):
            below = above = float(f"1e{k}")
            values.append(below)
            for _ in range(2):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
                values += [below, above]
        text, handed, expected = rows_both_ways(np.array(values)[:, None])
        assert text == expected
        outside = [
            i for i, v in enumerate(values)
            if not Fraction(1, 10**16) <= abs(Fraction(v)) < 10**17
        ]
        assert handed == outside
        assert len(outside) < len(values) // 10

    def test_points_across_the_widths_of_the_integer_part(self):
        # 99.995 and 999.995 lie just above the tie and carry into a new
        # digit; 9.995 lies just below it.
        edges = [0.995, 9.99, 9.995, 10.0, 99.99, 99.995, 100.0, 999.99, 999.995,
                 1000.0, 9999.99, 9999.995, 10000.0, 10000.004]
        edges += [math.nextafter(v, 0.0) for v in edges]
        xs = edges + [-v for v in edges]
        text, handed, expected = points_both_ways(xs, xs[::-1])
        # A point goes to Python when x or y reaches 1000.00 in magnitude.
        assert text == expected
        assert handed == [0, 1, 2, 3, 4, *range(8, 20), *range(23, 33), *range(36, 48),
                          *range(51, 56)]
        assert [p.split(",")[0] for p in text.split(" ")[:14]] == [
            "0.99", "9.99", "9.99", "10.00", "99.99", "100.00", "100.00", "999.99",
            "1000.00", "1000.00", "9999.99", "10000.00", "10000.00", "10000.00",
        ]

    def test_rounds_ties_to_even_at_two_decimals(self):
        xs = [0.125, 0.375, 2.675, 0.005, 1.005, -0.001, -0.0, 2.5, 64.125, 64.375,
              2.0**53 - 1, -(2.0**53 - 1), 5e-324, 1e-300, 0.995, 999.995]
        ys = [0.0] * len(xs)
        text, handed, expected = points_both_ways(xs, ys)
        assert text == expected and handed == [10, 11, 15]
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
    @pytest.mark.parametrize("bad", [
        math.inf, -math.inf, math.nan, 1e17, 1e-17, 2.0**53,
        math.nextafter(999.995, 0.0), 999.995, -999.995, 1023.99, 1024.0,
    ])
    def test_items_outside_the_exact_range_are_handed_back(self, where, bad):
        # Rows are exact from 1e-16 to below 1e17 in magnitude, points while
        # the integer part of "%.2f" stays below 1000.
        n = 50
        k = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        rows = np.linspace(0.5, 7.5, n * 3).reshape(n, 3)
        xs = np.linspace(64.0, 944.0, n)
        ys = np.linspace(476.0, 36.0, n)
        rows[k, 1] = xs[k] = bad
        text, handed, expected = rows_both_ways(rows)
        assert text == expected
        assert handed == ([] if 1e-16 <= abs(bad) < 1e17 else [k])
        text, handed, expected = points_both_ways(xs, ys)
        assert text == expected
        assert handed == ([] if abs(float("%.2f" % bad)) < 1000.0 else [k])

    @pytest.mark.parametrize("cap", [300, 1_000, 2_049, 100, 10])
    def test_rows_and_points_across_the_buffer_edge(self, tmp_path, monkeypatch, cap):
        # A row of 2 strains takes up to 11 * 25 + 1 bytes and a point 16;
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

    @pytest.mark.parametrize("name, chart", [
        ("experiment3", "compartments.svg"), ("case_e", "control.svg"),
    ])
    def test_runner_charts_are_written_wholly_in_c(self, tmp_path, name, chart):
        require_kernel()
        write_text, handed = integrate.write_text, {}

        def recording(fh, entry, args, n, python_text):
            items = handed.setdefault(os.path.basename(fh.name), [])
            assert entry is not None
            write_text(fh, entry, args, n,
                       lambda lo, hi: items.extend(range(lo, hi)) or python_text(lo, hi))

        with patch.object(integrate, "write_text", recording):
            run_scenario(preset_config(name), out_dir=str(tmp_path), quiet=True)
        assert handed[chart] == []

    def test_a_cc_without_int128_builds_every_kernel_but_the_row_writer(
        self, tmp_path
    ):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler cc on PATH to build _rk4.c")
        source = os.path.join(os.path.dirname(integrate.__file__), "_rk4.c")
        build = tempfile.mkdtemp()
        proc = subprocess.Popen([
            *integrate._CC, "-U__SIZEOF_INT128__",
            "-o", os.path.join(build, "_rk4.so"), source,
        ])
        lib = integrate._load_build(proc, build)
        assert lib, "cc could not build _rk4.c without __int128"
        assert set(lib) == {"ms_rk4", "ms_adjoint", "ms_format_points"}
        traj = run_strains(2, 50.0)
        series = compartment_series(traj)
        written = []
        for kernel in (lambda name, units: lib.get(name), lambda name, units: None):
            with patch.object(integrate, "_kernel", kernel):
                write_trajectory_csv(tmp_path / "t.csv", traj)
                line_chart(tmp_path / "c.svg", title="t", x=traj.grid.times(),
                           series=series)
            written.append(((tmp_path / "t.csv").read_bytes(),
                            (tmp_path / "c.svg").read_bytes()))
        assert written[0] == written[1]
