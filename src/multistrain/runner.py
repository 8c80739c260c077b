"""Scenario execution: run configs, write CSV/SVG artifacts, batch sweeps.

Each artifact is opened by :func:`integrate.open_new`, which replaces a
regular file at its path by a new one and writes through anything else, a
symlink too.  So a hard link to an old artifact keeps its bytes, and the
output directory must be writable.  Truncating a file and writing it again
makes ext4 flush it on close, a new file is written back on the
filesystem's own schedule, and writing a temporary file and renaming it
was measured slower.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import integrate
from .analysis import TrajectorySummary, summarize
from .config import ScenarioConfig, set_config_value
from .control import ANDERSON_DEPTH, FbsmReport, fbsm_solve
from .dynamics import NEGATIVE_TOLERANCE
from .errors import ConfigError, DomainError
from .integrate import ControlSchedule, TimeGrid, Trajectory, simulate
from .svgchart import line_chart

DEFAULT_WINDOW = 90.0


@dataclass(frozen=True)
class RunResult:
    config: ScenarioConfig
    trajectory: Trajectory
    summary: TrajectorySummary
    report: FbsmReport | None
    out_dir: str
    files: tuple[str, ...]


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
    with integrate.open_new(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        integrate.write_text(
            fh, format_rows, (values.ctypes.data, values.shape[1]), values.shape,
            lambda lo, hi: "".join([row_format % tuple(row)
                                    for row in values[lo:hi].tolist()]),
        )


def _read_csv(path: str, kind: str) -> list[list[str]]:
    """All rows of a CSV file; a missing or unreadable file raises ConfigError."""
    if not os.path.exists(path):
        raise ConfigError(f"{kind} file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            return list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: not a readable CSV file ({exc})") from exc


def _check_times(path: str, times, grid: TimeGrid) -> None:
    """Raise ConfigError naming the first data row ``k`` whose time is not node ``k - 1``."""
    for k, t in enumerate(map(float, times)):
        try:
            if grid.index_of(t) == k:
                continue
            reason = f"the row needs node {k} at {grid.time_at(k)!r}"
        except ConfigError as exc:
            reason = str(exc)
        raise ConfigError(f"{path}: row {k + 1} time {t!r} is off the grid: {reason}")


def _check_cells(path: str, names: list[str], values: np.ndarray, bad, flaw: str) -> None:
    """Raise ConfigError naming the first row and column where ``bad`` holds."""
    hits = np.argwhere(bad)
    if len(hits):
        k, c = hits[0]
        raise ConfigError(f"{path}: row {k + 1} {names[c]} = {float(values[k, c])!r} {flaw}")


def read_trajectory_csv(path: str) -> Trajectory:
    """Read a trajectory written by :func:`write_trajectory_csv`.

    The header must be the writer's, and the values finite, ``u`` in [0, 1],
    compartments and ``P - E - I - R`` >= 0 and S equal to ``P - E - I - R``,
    the last three within ``NEGATIVE_TOLERANCE * max(P, 1)``, as
    :meth:`Trajectory.state_at` needs.  The grid is taken from the times of
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
    # Finite cells whose difference passes the float range give -inf here,
    # without a warning, as in Trajectory.
    with np.errstate(over="ignore", invalid="ignore"):
        pool = P[:, None] - E - I - R
    _check_cells(path, [f"P - E_{j} - I_{j} - R_{j}" for j in range(1, n + 1)], pool,
                 pool < -tol, "lies below zero")
    _check_cells(path, header[2:-1:4], S, np.abs(S - pool) > tol, "is not P - E - I - R")
    # Python floats: a step past the float range becomes inf without a warning.
    t0, t1 = data[:2, 0].tolist()
    if not t1 > t0:
        raise ConfigError(f"{path}: the times of rows 1 and 2 do not increase")
    try:
        grid = TimeGrid(t0=t0, dt=t1 - t0, n_steps=len(rows) - 1)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
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
    with integrate.open_new(path, "x", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@contextmanager
def _output(path: str, action: str = "write the artifact"):
    """Re-raise an OSError while making the output file or directory
    ``path`` as a ConfigError that names it."""
    try:
        yield path
    except OSError as exc:
        raise ConfigError(f"{path}: cannot {action} ({exc})") from exc


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
    with _output(os.path.join(out_dir, "compartments.svg")) as comp_path:
        line_chart(
            comp_path,
            title=f"{config.name}: compartment shares of the initial population",
            x=times, series=series, y_label="share of P(0)", y_min=0.0,
        )
    files.append(comp_path)
    if config.control_mode != "none":
        with _output(os.path.join(out_dir, "control.svg")) as ctrl_path:
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


# The memory limit of this process's cgroup under cgroup v2 and under v1.
_CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"
_CGROUP_V1_LIMIT = "/sys/fs/cgroup/memory/memory.limit_in_bytes"


def _memory_limit() -> tuple[float, str]:
    """The bytes a run's arrays may take, and where the bound comes from:
    physical memory, or below it a finite soft address-space limit
    (``RLIMIT_AS``, as ``ulimit -v`` sets) or a cgroup memory limit, as a
    container sets (v2 ``memory.max`` or v1 ``memory.limit_in_bytes``).
    ``os.sysconf`` and ``resource`` are POSIX only; without either, that
    bound is not applied.  Neither is a cgroup file that is missing,
    unreadable or says ``max``, nor a value from physical memory up, which
    is what v1 reports when there is no limit."""
    memory, source = math.inf, "memory"
    if hasattr(os, "sysconf"):
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        source = "physical memory"
    try:
        import resource
    except ImportError:
        pass
    else:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY and soft < memory:
            memory, source = soft, "the address-space limit (RLIMIT_AS)"
    for path in (_CGROUP_MEMORY_MAX, _CGROUP_V1_LIMIT):
        try:
            with open(path) as fh:
                cgroup = int(fh.read())
        except (OSError, ValueError):
            continue
        if cgroup < memory:
            memory, source = cgroup, f"the cgroup memory limit ({path})"
    return memory, source


def _run_bytes(config: ScenarioConfig) -> tuple[int, int]:
    """The bytes a run of ``config`` holds at its peak, and the bytes a sweep
    keeps of it once it is done, with or without ``cc``.  Per grid node, in
    float64 columns for n strains: the result holds the trajectory's 4n + 2
    (P, E, I, R, S and u), and in optimize mode the 4n + 1 costates too.
    Beside them the CSV writer holds its value matrix, 4n + 3 (t, P, S, E,
    I, R, u), and one of temporaries.  An optimize run peaks in its solve,
    which holds two iterates' results, 2 * ANDERSON_DEPTH rows of Anderson
    differences, four schedule vectors and the 4n transmission coefficients
    of ``control._adjoint_loop``, the backward sweep's Python twin.  The
    writer's text, ``_TEXT_BYTES`` on either path, comes on top, and the
    Python objects of the run and its result, at most 32 KiB and 2 KiB per
    strain.  A sweep keeps each result."""
    n, nodes = len(config.strains), config.grid().n_points
    result = 4 * n + 2
    if config.control_mode == "optimize":
        result += 4 * n + 1
        columns = 2 * result + 2 * ANDERSON_DEPTH + 4 + 4 * n
    else:
        columns = result + 4 * n + 4
    objects = (32 + 2 * n) << 10
    return nodes * columns * 8 + integrate._TEXT_BYTES + objects, nodes * result * 8 + objects


def _schedule(config: ScenarioConfig) -> ControlSchedule:
    """The schedule a run of ``config`` follows, or in optimize mode the one
    its solve starts from: its schedule file, or a constant."""
    if config.control_mode == "schedule":
        return read_schedule_csv(config.resolve_path(config.schedule_file), config.grid())
    u = {"none": 0.0, "constant": config.control_value, "optimize": config.u_init}
    return ControlSchedule.constant(config.grid(), u[config.control_mode])


def _check_memory(config: ScenarioConfig, held: int = 0) -> None:
    """Check that a run's arrays (:func:`_run_bytes`), with the ``held``
    bytes a sweep keeps beside the run, fit in memory.  Raises ConfigError
    before any output exists."""
    need = held + _run_bytes(config)[0]
    memory, source = _memory_limit()
    if need > memory:
        part, fix = "", "use a larger grid.dt"
        if held:
            part = f", {held} of them for the results and schedules the sweep keeps"
            fix = f"{fix} or fewer values"
        raise ConfigError(
            f"grid.dt={config.dt!r} needs run arrays of {need} bytes{part}, more than "
            f"the {memory} bytes of {source}; {fix}"
        )


def run_scenario(
    config: ScenarioConfig,
    out_dir: str | None = None,
    quiet: bool = False,
) -> RunResult:
    """Execute one scenario and write its artifacts.

    Artifacts are ``trajectory.csv``, ``summary.csv`` and, when ``config.svg``
    is set, SVG charts, all placed in the scenario's output directory.  The
    directory is made once the run's inputs are checked: its arrays must fit
    in physical memory, under a finite soft ``RLIMIT_AS`` and under a cgroup
    memory limit, and a schedule file must match the grid.  So a flawed
    input raises ConfigError and leaves no directory behind; a file that
    cannot be written raises ConfigError naming it.  For optimize mode the
    sweep report is attached to the result; non-convergence is reported,
    not raised.
    """
    _check_memory(config)
    return _run(config, _schedule(config), out_dir, quiet)


def _run(config: ScenarioConfig, schedule: ControlSchedule, out_dir: str | None,
         quiet: bool) -> RunResult:
    """:func:`run_scenario` on the ``schedule`` that :func:`_schedule` gave."""
    grid = config.grid()
    out = out_dir or config.output_dir or os.path.join("out", config.name)
    with _output(out, "create the output directory"):
        os.makedirs(out, exist_ok=True)
    initial, params, events = config.initial_state(), config.strain_params(), config.seed_events()

    report = None
    if config.control_mode == "optimize":
        report = fbsm_solve(
            initial, params, events, grid,
            costs=config.cost_params(),
            u_init=schedule,
            relaxation=config.relaxation,
            tol=config.tolerance,
            max_iter=config.max_iterations,
        )
        traj = report.trajectory
    else:
        traj = simulate(initial, params, schedule, events, grid)

    summary = summarize(traj, window=min(DEFAULT_WINDOW, grid.T - grid.t0))

    with _output(os.path.join(out, "trajectory.csv")) as traj_path:
        write_trajectory_csv(traj_path, traj)
    with _output(os.path.join(out, "summary.csv")) as summary_path:
        write_summary_csv(summary_path, _summary_rows(config.name, summary, report))
    files = [traj_path, summary_path]
    if config.svg:
        files += _write_charts(out, config, traj)

    if not quiet:
        print(f"scenario {config.name}: wrote {len(files)} file(s) to {out}")
        print(summary.format())
        if report is not None:
            print(format_report(report))

    return RunResult(
        config=config, trajectory=traj, summary=summary,
        report=report, out_dir=out, files=tuple(files),
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
    ``sweep_summary.csv`` lands in the root.  Every value is checked before
    the first run and before the root is made: its config, its own run
    directory, and the memory and schedule checks of :func:`run_scenario`,
    where the memory check counts the results of the values before it, which
    the sweep keeps and returns, and the schedule files read for the values
    after it.  Each schedule file is read once, for that check, its run
    follows it, and the sweep lets it go once the run is done; a constant
    schedule is built at its run.  So a flawed value, or one more value than
    memory holds, leaves no directory behind.  Scenario runs are
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
    # Beside run i the sweep holds the results before it and the schedule
    # files read for the values after it, each on run i's grid, as a file
    # fits one grid.  A constant schedule is built at its run instead.
    read = config.control_mode == "schedule"
    schedules, held = [], 0
    for i, cfg in enumerate(configs):
        pending = (len(configs) - 1 - i) * cfg.grid().n_points * 8 if read else 0
        _check_memory(cfg, held + pending)
        schedules.append(_schedule(cfg) if read else None)
        held += _run_bytes(cfg)[1]
    root = out_dir or config.output_dir or os.path.join("out", f"{config.name}_sweep")
    with _output(root, "create the output directory"):
        os.makedirs(root, exist_ok=True)
    results = []
    combined = []
    for i, (value, cfg) in enumerate(zip(values, configs)):
        tag = f"{cfg.name}__{param_path.replace('.', '_')}_{_value_tag(value)}"
        run_dir = os.path.join(root, tag)
        result = _run(cfg, schedules[i] if read else _schedule(cfg), run_dir, quiet)
        schedules[i] = None
        results.append(result)
        for row in _summary_rows(tag, result.summary, result.report):
            combined.append({"param": param_path, "value": _g17(value), **row})
    with _output(os.path.join(root, "sweep_summary.csv")) as path:
        write_summary_csv(path, combined)
    if not quiet:
        print(f"sweep over {param_path}: combined summary at {path}")
    return results
