"""Workload inputs, the operation each one times, and the checks on its outputs.

Every input is a config text generated from the workload seed and parsed by
the program's own ``config.parse_config_text``.  A run draws a pool of
``POOL_SIZE`` cases and cycles through it, so one run already spans the
workload's input range and its median moves little from seed to seed.
"""

from __future__ import annotations

import csv
import importlib
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from oracles import terminal_of, true_fixed_point_residual
from tracing import Hook

PROGRAM_MODULES = (
    "config", "dynamics", "integrate", "control", "analysis", "runner", "svgchart",
)
POOL_SIZE = 3

POPULATION = 217000255.0
TABLE_STRAIN = {
    "sigma": 0.14285714285714285,
    "gamma": 0.047619047619047616,
    "delta": 0.011111111111111112,
    "mu": 1.152e-05,
}
TABLE_BETA = 2.41e-09
SEED_MASS = {"seed_exposed": 252, "seed_infected": 2, "seed_removed": 1}

# Terminal states may differ from the DOP853 reference by at most this share
# of P(0).  Grid RK4 at dt 0.05 lands near 1e-12 on these inputs.
REF_TOLERANCE = 1e-9
# The solver stops on the relaxed step a*|F(u) - u| < tol with a >= 0.02, so
# a report it calls converged has |F(u) - u| below tol / 0.02.
RESIDUAL_LIMIT_FACTOR = 50.0


def program_modules() -> dict:
    """The program's entries in ``sys.modules``."""
    return {
        name: mod for name, mod in sys.modules.items()
        if name == "multistrain" or name.startswith("multistrain.")
    }


def import_program() -> dict:
    """Import the program afresh and return its modules by short name."""
    for name in program_modules():
        del sys.modules[name]
    importlib.import_module("multistrain")
    return {name: importlib.import_module(f"multistrain.{name}") for name in PROGRAM_MODULES}


def _strain_block(index: int, beta: float, activation_day: int) -> str:
    lines = [f"[strain.{index}]", f"beta = {beta!r}"]
    lines += [f"{k} = {v!r}" for k, v in TABLE_STRAIN.items()]
    lines.append(f"activation_day = {activation_day}")
    lines += [f"{k} = {v}" for k, v in SEED_MASS.items()]
    return "\n".join(lines) + "\n"


def _config_text(name: str, dt: float, strains: list[str], control: str) -> str:
    return (
        f"[scenario]\nname = {name}\n\n"
        f"[grid]\nstart = 0\nhorizon = 730\ndt = {dt}\n\n"
        f"[initial]\npopulation = {POPULATION:.0f}\n\n"
        + "\n".join(strains)
        + f"\n{control}"
    )


def draw_simulate(rng: random.Random) -> list[str]:
    """Two strains, experiment3 family: late strain's beta, seed day and u drawn."""
    texts = []
    for i in range(POOL_SIZE):
        strains = [
            _strain_block(1, TABLE_BETA, 0),
            _strain_block(2, TABLE_BETA * rng.uniform(1.2, 2.0), rng.randint(120, 240)),
        ]
        u = rng.uniform(0.0, 0.3)
        texts.append(_config_text(
            f"sim{i}", 0.05, strains, f"[control]\nmode = constant\nvalue = {u!r}\n"
        ))
    return texts


# c2_log_scale strata over cases A (1.0) to C (0.8), in pool order: a narrow
# middle stratum first, so the run's median op is nearly the same solve
# (38-39 iterations) for every seed, then the hard and the easy end.
OPTIMIZE_STRATA = ((0.89, 0.91), (0.80, 0.85), (0.95, 1.00))


def draw_optimize(rng: random.Random) -> list[str]:
    """One strain, case_a family; one c2_log_scale drawn from each stratum."""
    texts = []
    for i, (lo, hi) in enumerate(OPTIMIZE_STRATA):
        scale = rng.uniform(lo, hi)
        control = (
            "[control]\nmode = optimize\n\n[cost]\nc1 = 1\n"
            f"c2_log_scale = {scale!r}\nrelaxation = 0.5\ntolerance = 1e-06\n"
            "max_iterations = 500\nu_init = 0\n"
        )
        texts.append(_config_text(f"opt{i}", 0.1, [_strain_block(1, TABLE_BETA, 0)], control))
    return texts


def draw_many_strains(rng: random.Random) -> list[str]:
    """Eight strains with staggered activation days and a constant u."""
    texts = []
    for i in range(POOL_SIZE):
        strains = [_strain_block(1, TABLE_BETA, 0)]
        for j in range(1, 8):
            beta = TABLE_BETA * rng.uniform(0.8, 1.6)
            strains.append(_strain_block(j + 1, beta, 40 * j + rng.randint(0, 20)))
        u = rng.uniform(0.0, 0.3)
        texts.append(_config_text(
            f"many{i}", 0.05, strains, f"[control]\nmode = constant\nvalue = {u!r}\n"
        ))
    return texts


def draw_pool(workload: "Workload", seed: int) -> list[str]:
    """The run's input texts; the same workload and seed give the same texts."""
    return workload.draw(random.Random(f"{workload.name}:{seed}"))


@dataclass
class Case:
    """One generated input: its text, and the parsed config or the parse error."""

    text: str
    config: object = None
    error: Exception | None = None
    objects: dict = field(default_factory=dict)
    parse_s: float = 0.0


def build_case(prog: dict, text: str, workload: "Workload") -> Case:
    """Parse and prepare one case; a ConfigError is kept for the op to raise."""
    case = Case(text)
    try:
        t0 = time.perf_counter()
        case.config = prog["config"].parse_config_text(text, source="<generated>")
        case.parse_s = time.perf_counter() - t0
        if workload.prepare is not None:
            case.objects = workload.prepare(prog, case.config)
    except prog["config"].ConfigError as exc:
        case.error = exc
    return case


def _prepare_library(prog: dict, cfg) -> dict:
    grid = cfg.grid()
    return {
        "initial": cfg.initial_state(),
        "params": cfg.strain_params(),
        "events": cfg.seed_events(),
        "grid": grid,
        "schedule": prog["control"].ControlSchedule.constant(grid, cfg.control_value),
        "costs": prog["control"].CostParams(c1=1.0, c2=math.log(cfg.population)),
    }


def op_run_scenario(prog: dict, case: Case, out_dir: str):
    if case.error is not None:
        raise case.error
    return prog["runner"].run_scenario(case.config, out_dir=out_dir, quiet=True)


def op_library(prog: dict, case: Case, out_dir: str):
    if case.error is not None:
        raise case.error
    o = case.objects
    traj = prog["integrate"].simulate(o["initial"], o["params"], o["schedule"], o["events"], o["grid"])
    costates = prog["control"].backward_sweep(traj, o["params"], o["costs"])
    summary = prog["analysis"].summarize(traj, window=90.0)
    return traj, costates, summary


@dataclass
class Outcome:
    """What the checks found about one op's output."""

    errors: list[str] = field(default_factory=list)
    terminal: np.ndarray | None = None  # [P, E, I, R] at the horizon
    iterations: int = 0
    residual: float | None = None
    csv_bytes: int = 0
    svg_bytes: int = 0


def _check_summary(summary, traj, n_strains: int, out: Outcome) -> None:
    if len(summary.strains) != n_strains:
        out.errors.append(f"summary has {len(summary.strains)} strains, expected {n_strains}")
    if summary.initial_population != traj.P[0]:
        out.errors.append("summary initial population differs from P(0)")
    if summary.cumulative_deaths != float(traj.P[0]) - float(traj.P[-1]):
        out.errors.append("summary deaths differ from P(0) - P(T)")


def _check_artifacts(result, out_dir: str, out: Outcome) -> None:
    traj = result.trajectory
    n = traj.n_strains
    path = os.path.join(out_dir, "trajectory.csv")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    out.csv_bytes = os.path.getsize(path)
    if len(lines) != traj.grid.n_points + 1:
        out.errors.append(f"trajectory.csv has {len(lines)} lines")
    else:
        last = np.array([float(v) for v in lines[-1].split(",")])
        S = traj.susceptible_matrix()[-1]
        row = [traj.grid.times()[-1], traj.P[-1]]
        for j in range(n):
            row += [S[j], traj.E[-1, j], traj.I[-1, j], traj.R[-1, j]]
        row.append(traj.u[-1])
        if last.shape != (len(row),) or not np.array_equal(last, np.array(row)):
            out.errors.append("last trajectory.csv row differs from the returned trajectory")
    with open(os.path.join(out_dir, "summary.csv"), "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n:
        out.errors.append(f"summary.csv has {len(rows)} rows, expected {n}")
    elif float(rows[0]["cumulative_deaths"]) != result.summary.cumulative_deaths:
        out.errors.append("summary.csv deaths differ from the returned summary")
    elif result.report is not None and rows[0]["fbsm_iterations"] != str(result.report.iterations):
        out.errors.append("summary.csv iteration count differs from the report")
    for name in ("compartments.svg", "control.svg"):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            out.errors.append(f"{name} missing")
            continue
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        out.svg_bytes += len(text.encode("utf-8"))
        if "<svg" not in text[:200] or not text.rstrip().endswith("</svg>"):
            out.errors.append(f"{name} is not a complete SVG document")


def check_simulate(prog: dict, case: Case, result, out_dir: str) -> Outcome:
    out = Outcome(terminal=terminal_of(result.trajectory))
    traj = result.trajectory
    if not np.all(traj.u == case.config.control_value):
        out.errors.append("recorded control differs from the constant u")
    _check_summary(result.summary, traj, len(case.config.strains), out)
    _check_artifacts(result, out_dir, out)
    return out


def check_optimize(prog: dict, case: Case, result, out_dir: str) -> Outcome:
    report = result.report
    out = Outcome(iterations=report.iterations)
    cfg = case.config
    costs = cfg.cost_params()
    if not report.converged or not report.last_update < cfg.tolerance:
        out.errors.append(
            f"solver did not converge: {report.iterations} iterations, "
            f"last update {report.last_update!r}"
        )
    recomputed = prog["control"].objective(report.trajectory, costs)
    if not math.isclose(recomputed, report.objective, rel_tol=1e-12):
        out.errors.append(f"objective {report.objective!r} != recomputed {recomputed!r}")
    out.residual = true_fixed_point_residual(prog["control"], report, cfg.strain_params(), costs)
    if not out.residual <= RESIDUAL_LIMIT_FACTOR * cfg.tolerance:
        out.errors.append(f"true fixed-point residual {out.residual!r} is out of reach of tol")
    _check_summary(result.summary, report.trajectory, 1, out)
    _check_artifacts(result, out_dir, out)
    return out


def check_library(prog: dict, case: Case, result, out_dir: str) -> Outcome:
    traj, costates, summary = result
    out = Outcome(terminal=terminal_of(traj))
    horizon = traj.grid.T - traj.grid.t0
    terminal = [costates.phi_P[-1], costates.phi_S[-1], costates.phi_E[-1],
                costates.phi_I[-1], costates.phi_R[-1]]
    if any(np.any(np.asarray(v) != 0.0) for v in terminal):
        out.errors.append("costates are not zero at the horizon")
    for name in ("phi_P", "phi_S", "phi_E", "phi_I", "phi_R"):
        if not np.all(np.isfinite(getattr(costates, name))):
            out.errors.append(f"{name} has non-finite values")
    c1 = case.objects["costs"].c1
    if not math.isclose(costates.phi_P[0], c1 * horizon, rel_tol=1e-9):
        out.errors.append(f"phi_P(t0) = {costates.phi_P[0]!r}, expected c1*T")
    _check_summary(summary, traj, len(case.config.strains), out)
    return out


def _sim_work(initial, params, schedule, events, grid) -> float:
    return len(params) * grid.n_steps


def _adjoint_work(traj, params, costs) -> float:
    return traj.n_strains * traj.grid.n_steps


HOOKS = [
    Hook("runner", "fbsm_solve", "control.fbsm_solve"),
    Hook("runner", "simulate", "integrate.simulate", _sim_work),
    Hook("control", "simulate", "integrate.simulate", _sim_work),
    Hook("integrate", "simulate", "integrate.simulate", _sim_work),
    Hook("control", "backward_sweep", "control.backward_sweep", _adjoint_work),
    Hook("runner", "summarize", "analysis.summarize"),
    Hook("analysis", "summarize", "analysis.summarize"),
    Hook("runner", "write_trajectory_csv", "runner.write_trajectory_csv"),
    Hook("runner", "write_summary_csv", "runner.write_summary_csv"),
    Hook("runner", "line_chart", "svgchart.line_chart"),
]

_WRITERS = ["runner.write_trajectory_csv", "runner.write_summary_csv", "svgchart.line_chart"]


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable[[random.Random], list[str]]
    op: Callable
    check: Callable
    expect: tuple[str, ...]  # spans a traced run must record
    prepare: Callable | None = None
    oracle: bool = False  # compare terminal states with the DOP853 reference


WORKLOADS = {
    "simulate": Workload(
        "simulate", draw_simulate, op_run_scenario, check_simulate,
        ("integrate.simulate", "analysis.summarize", *_WRITERS), oracle=True,
    ),
    "optimize": Workload(
        "optimize", draw_optimize, op_run_scenario, check_optimize,
        ("control.fbsm_solve", "integrate.simulate", "control.backward_sweep",
         "analysis.summarize", *_WRITERS),
    ),
    "many_strains": Workload(
        "many_strains", draw_many_strains, op_library, check_library,
        ("integrate.simulate", "control.backward_sweep", "analysis.summarize"),
        prepare=_prepare_library, oracle=True,
    ),
}
