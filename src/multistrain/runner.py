"""Scenario execution: run configs, write CSV/SVG artifacts, batch sweeps."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import integrate
from .analysis import TrajectorySummary, summarize
from .config import ScenarioConfig, set_config_value
from .control import FbsmReport, fbsm_solve
from .dynamics import NEGATIVE_TOLERANCE
from .errors import ConfigError
from .integrate import ControlSchedule, TimeGrid, Trajectory, same_time, simulate
from .svgchart import line_chart

DEFAULT_WINDOW = 90.0


@dataclass
class RunResult:
    config: ScenarioConfig
    trajectory: Trajectory
    summary: TrajectorySummary
    report: FbsmReport | None
    out_dir: str
    files: list[str]


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _trajectory_header(n_strains: int) -> list[str]:
    """Columns of a trajectory file: t, P, then S_j, E_j, I_j, R_j per strain, then u."""
    return ["t", "P", *(f"{c}_{j}" for j in range(1, n_strains + 1) for c in "SEIR"), "u"]


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    """Write the full run, one row per grid node, 17 significant digits.

    The rows of the value matrix are formatted by ``ms_format_rows`` of the
    compiled library once it is loaded, and by one ``%`` call per row until
    then or without ``cc``; a row holding a value outside the C formatter's
    exact range, such as ``inf``, takes the ``%`` call too.  Either way each
    cell is the text of ``_g17``: ``"%.17g" % x``, digit for digit.
    """
    header = _trajectory_header(traj.n_strains)
    values = np.empty((traj.grid.n_points, len(header)))
    values[:, 0] = traj.grid.times()
    values[:, 1] = traj.P
    values[:, 2:-1:4] = traj.susceptible_matrix()
    values[:, 3:-1:4] = traj.E
    values[:, 4:-1:4] = traj.I
    values[:, 5:-1:4] = traj.R
    values[:, -1] = traj.u
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    format_rows = integrate._kernel("ms_format_rows", values.size)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        integrate.write_text(
            fh, format_rows, (values.ctypes.data, values.shape[1]), len(values),
            lambda lo, hi: "".join([row_format % tuple(row)
                                    for row in values[lo:hi].tolist()]),
        )


def _read_csv(path: str, kind: str) -> list[list[str]]:
    """All rows of a CSV file; a missing or unreadable file raises ConfigError."""
    if not os.path.exists(path):
        raise ConfigError(f"{kind} file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: not a readable CSV file ({exc})") from exc


def _check_times(path: str, times, grid: TimeGrid) -> None:
    """Raise ConfigError naming the first data row whose time is off ``grid``."""
    nodes = grid.times()
    for k, t in enumerate(times):
        t = float(t)
        if not same_time(t, nodes[k]):
            raise ConfigError(f"{path}: row {k + 1} time {t!r} is off the grid")


def _check_cells(path: str, names: list[str], values: np.ndarray, bad, flaw: str) -> None:
    """Raise ConfigError naming the first row and column where ``bad`` holds."""
    hits = np.argwhere(bad)
    if len(hits):
        k, c = hits[0]
        raise ConfigError(f"{path}: row {k + 1} {names[c]} = {float(values[k, c])!r} {flaw}")


def read_trajectory_csv(path: str) -> Trajectory:
    """Read a trajectory written by :func:`write_trajectory_csv`.

    The header must be the writer's, and the values finite, ``u`` in [0, 1],
    compartments >= 0 and S equal to ``P - E - I - R``, the last two within
    ``NEGATIVE_TOLERANCE * max(P, 1)``.  The grid is taken from the times of
    rows 1 and 2, and every row's time must lie on it.  Every flaw raises
    :class:`ConfigError` naming the file and, for a bad data row, its number
    (data rows count from 1 after the header).
    """
    lines = _read_csv(path, "trajectory")
    header = lines[0] if lines else []
    n = (len(header) - 3) // 4
    if n < 1 or header != _trajectory_header(n):
        raise ConfigError(f"{path}: not a trajectory file")
    rows = []
    for k, line in enumerate(lines[1:], start=1):
        if len(line) != len(header):
            raise ConfigError(
                f"{path}: row {k} has {len(line)} values, the header {len(header)}"
            )
        try:
            rows.append([float(cell) for cell in line])
        except ValueError as exc:
            raise ConfigError(f"{path}: row {k} is not numeric: {line!r}") from exc
    if len(rows) < 2:
        raise ConfigError(f"{path}: trajectory needs at least two rows")
    data = np.array(rows)
    _check_cells(path, header, data, ~np.isfinite(data), "is not finite")
    # Columns t, P, then S_j, E_j, I_j, R_j per strain, then u.
    P, u, compartments = data[:, 1], data[:, -1:], data[:, 1:-1]
    S, E, I, R = (data[:, c:-1:4] for c in (2, 3, 4, 5))
    tol = NEGATIVE_TOLERANCE * np.maximum(P, 1.0)[:, None]
    _check_cells(path, header[-1:], u, (u < 0.0) | (u > 1.0), "lies outside [0, 1]")
    _check_cells(path, header[1:-1], compartments, compartments < -tol, "lies below zero")
    off = np.abs(S - (P[:, None] - E - I - R)) > tol
    _check_cells(path, header[2:-1:4], S, off, "is not P - E - I - R")
    t0, dt = data[0, 0], data[1, 0] - data[0, 0]
    if not dt > 0:
        raise ConfigError(f"{path}: the times of rows 1 and 2 do not increase")
    grid = TimeGrid(t0=float(t0), dt=float(dt), n_steps=len(rows) - 1)
    _check_times(path, data[:, 0], grid)
    return Trajectory(grid=grid, P=P, E=E, I=I, R=R, u=u[:, 0])


def read_schedule_csv(path: str, grid: TimeGrid) -> ControlSchedule:
    """Read a t,u schedule file and check it matches the grid.

    Every flaw raises :class:`ConfigError` naming the file and, for a bad
    data row, its number (data rows count from 1 after the header).
    """
    lines = _read_csv(path, "schedule")
    if not lines or [h.strip() for h in lines[0][:2]] != ["t", "u"]:
        raise ConfigError(f"{path}: schedule files need a t,u header")
    rows = []
    for k, line in enumerate(lines[1:], start=1):
        if len(line) < 2:
            raise ConfigError(f"{path}: row {k} needs a t and a u value, got {line!r}")
        try:
            t, u = float(line[0]), float(line[1])
        except ValueError as exc:
            raise ConfigError(f"{path}: row {k} is not numeric: {line[:2]!r}") from exc
        if not 0.0 <= u <= 1.0:
            raise ConfigError(f"{path}: row {k} control {u!r} lies outside [0, 1]")
        rows.append((t, u))
    if len(rows) != grid.n_points:
        raise ConfigError(
            f"{path}: schedule has {len(rows)} rows but the grid has "
            f"{grid.n_points} nodes"
        )
    _check_times(path, [t for t, _ in rows], grid)
    return ControlSchedule(grid=grid, u=np.array([u for _, u in rows]))


def _summary_rows(name: str, summary: TrajectorySummary, report: FbsmReport | None):
    rows = []
    for s in summary.strains:
        rows.append(
            {
                "scenario": name,
                "strain": s.strain + 1,
                "initial_population": _g17(summary.initial_population),
                "cumulative_deaths": _g17(summary.cumulative_deaths),
                "peak_infected": _g17(s.peak_infected),
                "peak_day": _g17(s.peak_day),
                "dominant_strain_at_peak": s.dominant_strain_at_peak + 1,
                "share_S": _g17(s.share_S),
                "share_E": _g17(s.share_E),
                "share_I": _g17(s.share_I),
                "share_R": _g17(s.share_R),
                "plateau_S": str(s.plateau_S).lower(),
                "plateau_E": str(s.plateau_E).lower(),
                "plateau_I": str(s.plateau_I).lower(),
                "plateau_R": str(s.plateau_R).lower(),
                "objective": "" if report is None else _g17(report.objective),
                "fbsm_converged": "" if report is None else str(report.converged).lower(),
                "fbsm_iterations": "" if report is None else report.iterations,
            }
        )
    return rows


def write_summary_csv(path: str, rows: list[dict]) -> None:
    """Write ``rows`` under a header of their keys, in the first row's order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _write_charts(out_dir: str, config: ScenarioConfig, traj: Trajectory) -> list[str]:
    files = []
    p0 = traj.P[0]
    times = traj.grid.times()
    S = traj.susceptible_matrix()
    series = []
    n = traj.n_strains
    for j in range(n):
        tag = f" {j + 1}" if n > 1 else ""
        series += [
            (f"S{tag}", S[:, j] / p0),
            (f"E{tag}", traj.E[:, j] / p0),
            (f"I{tag}", traj.I[:, j] / p0),
            (f"R{tag}", traj.R[:, j] / p0),
        ]
    series.append(("P", traj.P / p0))
    comp_path = os.path.join(out_dir, "compartments.svg")
    line_chart(
        comp_path,
        title=f"{config.name}: compartment shares of the initial population",
        x=times, series=series, y_label="share of P(0)", y_min=0.0,
    )
    files.append(comp_path)
    if config.control_mode != "none":
        ctrl_path = os.path.join(out_dir, "control.svg")
        line_chart(
            ctrl_path,
            title=f"{config.name}: mitigation schedule",
            x=times, series=[("u", traj.u)],
            y_label="mitigation u", y_min=0.0, y_max=1.0,
        )
        files.append(ctrl_path)
    return files


def format_report(report: FbsmReport) -> str:
    status = "converged" if report.converged else "did NOT converge"
    if report.coarse_dt is None:
        start = "cold start"
    else:
        start = (
            f"started by {report.coarse_iterations} coarse iteration(s) "
            f"at dt {report.coarse_dt:g}"
        )
    u = report.schedule.u
    return (
        f"sweep {status} after {report.iterations} iteration(s) ({start}); "
        f"fixed-point residual {report.last_update:.3e}\n"
        f"objective J = {report.objective:.9e}\n"
        f"schedule: mean u = {u.mean():.4f}, max u = {u.max():.4f}"
    )


def _make_dir(path: str) -> None:
    """Create the output directory ``path``, or raise ConfigError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot create the output directory ({exc})") from exc


def run_scenario(
    config: ScenarioConfig,
    out_dir: str | None = None,
    quiet: bool = False,
) -> RunResult:
    """Execute one scenario and write its artifacts.

    Artifacts are ``trajectory.csv``, ``summary.csv`` and, when ``config.svg``
    is set, SVG charts, all placed in the scenario's output directory, which
    is made before the run.  For optimize mode the sweep report is attached
    to the result; non-convergence is reported, not raised.
    """
    config.validate()
    out = out_dir or config.output_dir or os.path.join("out", config.name)
    _make_dir(out)
    grid = config.grid()
    params = config.strain_params()
    events = config.seed_events()
    initial = config.initial_state()

    report = None
    if config.control_mode == "optimize":
        report = fbsm_solve(
            initial, params, events, grid,
            costs=config.cost_params(),
            u_init=ControlSchedule.constant(grid, config.u_init),
            relaxation=config.relaxation,
            tol=config.tolerance,
            max_iter=config.max_iterations,
        )
        traj = report.trajectory
    else:
        if config.control_mode == "none":
            schedule = ControlSchedule.constant(grid, 0.0)
        elif config.control_mode == "constant":
            schedule = ControlSchedule.constant(grid, config.control_value)
        else:
            schedule = read_schedule_csv(config.resolve_path(config.schedule_file), grid)
        traj = simulate(initial, params, schedule, events, grid)

    summary = summarize(traj, window=min(DEFAULT_WINDOW, grid.T - grid.t0))

    files = []
    traj_path = os.path.join(out, "trajectory.csv")
    write_trajectory_csv(traj_path, traj)
    files.append(traj_path)
    summary_path = os.path.join(out, "summary.csv")
    write_summary_csv(summary_path, _summary_rows(config.name, summary, report))
    files.append(summary_path)
    if config.svg:
        files += _write_charts(out, config, traj)

    if not quiet:
        print(f"scenario {config.name}: wrote {len(files)} file(s) to {out}")
        print(summary.format())
        if report is not None:
            print(format_report(report))

    return RunResult(
        config=config, trajectory=traj, summary=summary,
        report=report, out_dir=out, files=files,
    )


def _value_tag(value: float) -> str:
    return format(float(value), "g").replace("-", "m")


def sweep(
    config: ScenarioConfig,
    param_path: str,
    values,
    out_dir: str | None = None,
    quiet: bool = False,
) -> list[RunResult]:
    """Run the scenario once per parameter value and combine the summaries.

    Each run writes into ``<root>/<name>__<param>_<value>/``; a combined
    ``sweep_summary.csv`` lands in the root.  Every value is checked, and
    must give its own directory, before the first run.  Scenario runs are
    independent, so callers may parallelise them externally if needed.
    """
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    # Run directories and the summary name the path as set_config_value reads it.
    param_path = param_path.strip().lower()
    configs = [set_config_value(config, param_path, value) for value in values]
    tags: dict[str, float] = {}
    for value in values:
        tag = _value_tag(value)
        if tag in tags:
            raise ConfigError(
                f"sweep values {tags[tag]!r} and {value!r} would share the run "
                f"directory tag {tag!r}"
            )
        tags[tag] = value
    root = out_dir or config.output_dir or os.path.join("out", f"{config.name}_sweep")
    _make_dir(root)
    results = []
    combined = []
    for value, cfg in zip(values, configs):
        tag = f"{cfg.name}__{param_path.replace('.', '_')}_{_value_tag(value)}"
        sub = os.path.join(root, tag)
        result = run_scenario(cfg, out_dir=sub, quiet=quiet)
        results.append(result)
        for row in _summary_rows(tag, result.summary, result.report):
            combined.append({"param": param_path, "value": _g17(value), **row})
    path = os.path.join(root, "sweep_summary.csv")
    write_summary_csv(path, combined)
    if not quiet:
        print(f"sweep over {param_path}: combined summary at {path}")
    return results
