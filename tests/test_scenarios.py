import csv
import hashlib
import math
import os
import re
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistrain import (
    ConfigError,
    ControlSchedule,
    IntegrationError,
    ScenarioConfig,
    SolverError,
    StrainSpec,
    full_system_rhs,
    load_config,
    parse_config_text,
    preset_config,
    preset_names,
    preset_text,
    read_schedule_csv,
    read_trajectory_csv,
    run_scenario,
    set_config_value,
    TimeGrid,
    simulate,
    sweep,
    write_preset,
)
from multistrain.cli import main
from multistrain import cli, config, integrate, runner
from multistrain.config import _SCHEMA, _STRAIN_KEYS
from multistrain.control import ANDERSON_DEPTH
from multistrain.runner import format_report

from conftest import compiled_path, python_path

SHORT_SIM = """\
[scenario]
name = shortrun

[grid]
start = 0
horizon = 30
dt = 0.1

[initial]
population = 1000255

[strain.1]
beta = 5.2e-7
sigma = 0.14285714285714285
gamma = 0.047619047619047616
delta = 0.011111111111111112
mu = 1.152e-05
seed_exposed = 252
seed_infected = 2
seed_removed = 1

[control]
mode = none
"""

SHORT_OPT = """\
[scenario]
name = shortopt

[grid]
start = 0
horizon = 150
dt = 0.2

[initial]
population = 1000255

[strain.1]
beta = 5.2e-7
sigma = 0.14285714285714285
gamma = 0.047619047619047616
delta = 0.011111111111111112
mu = 1.152e-05
seed_exposed = 252
seed_infected = 2
seed_removed = 1

[control]
mode = optimize

[cost]
c1 = 1
c2_log_scale = 1.0
"""


def _set_key(text: str, section: str, key: str, raw: str) -> str:
    """``text`` with ``key = raw`` in ``[section]``, in place of any earlier value."""
    lines = text.splitlines()
    head = lines.index(f"[{section}]")
    end = next((i for i in range(head + 1, len(lines)) if lines[i].startswith("[")), len(lines))
    body = [line for line in lines[head + 1:end] if not line.startswith(f"{key} =")]
    return "\n".join(lines[:head + 1] + [f"{key} = {raw}"] + body + lines[end:]) + "\n"


# Every numeric key of the schema with a value that differs from SCHEMA_BASE's
# and that the scenario accepts with only that key changed.
NUMERIC_PATHS = [
    f"{section}.{key}" for (section, key), (_, kind) in _SCHEMA.items() if kind in (float, int)
] + [f"strain.1.{key}" for key in _STRAIN_KEYS]
NUMERIC_VALUES = {
    "grid.start": 5.0, "grid.horizon": 40.0, "grid.dt": 0.05,
    "initial.population": 2000255.0, "control.value": 0.25,
    "cost.c1": 2.5, "cost.c2": 12.0, "cost.c2_log_scale": 0.7,
    "cost.c2_population": 1e6, "cost.relaxation": 0.3, "cost.tolerance": 1e-5,
    "cost.max_iterations": 7, "cost.u_init": 0.2,
    "strain.1.beta": 6e-7, "strain.1.sigma": 0.2, "strain.1.gamma": 0.05,
    "strain.1.delta": 0.02, "strain.1.mu": 2e-5, "strain.1.activation_day": 20.0,
    "strain.1.seed_exposed": 100.0, "strain.1.seed_infected": 3.0,
    "strain.1.seed_removed": 0.5,
}
SCHEMA_BASE = _set_key(SHORT_OPT, "strain.1", "activation_day", "10")

# A one-strain run's memory budget, restated from runner._run_bytes: float64
# columns per grid node, and the CSV writer's text buffer and 34 KiB of
# Python objects on top.  Simulate mode keeps the trajectory's 6 columns and the
# writer holds 8 beside them.  An optimize sweep holds two iterates of 11 (the
# trajectory and 5 costates), the Anderson rows, 4 schedule vectors and the 4
# columns of the Python backward sweep's transmission coefficients.
SIMULATE_COLUMNS = 6 + 8
OPTIMIZE_COLUMNS = 2 * 11 + 2 * ANDERSON_DEPTH + 4 + 4


def run_bytes(nodes: int, columns: int) -> int:
    return nodes * columns * 8 + integrate._TEXT_BYTES + (34 << 10)


def _base_for(path: str) -> str:
    """SCHEMA_BASE, in the control mode or c2 form that ``path`` applies to."""
    if path == "control.value":
        return SCHEMA_BASE.split("[cost]")[0].replace(
            "mode = optimize", "mode = constant\nvalue = 0"
        )
    if path == "cost.c2":
        return SCHEMA_BASE.replace("c2_log_scale = 1.0", "c2 = 3")
    return SCHEMA_BASE


class TestLoadConfig:
    def test_preset_experiment1_values(self):
        cfg = preset_config("experiment1")
        assert cfg.dt == 0.05
        assert cfg.horizon == 730.0
        assert cfg.population == 217000255.0
        s = cfg.strains[0]
        assert s.beta == 2.41e-9
        assert s.sigma == pytest.approx(1 / 7)
        assert s.gamma == pytest.approx(1 / 21)
        assert s.delta == pytest.approx(1 / 90)
        assert s.mu == 1.152e-5
        assert (s.seed_exposed, s.seed_infected, s.seed_removed) == (252.0, 2.0, 1.0)
        assert cfg.control_mode == "none"
        assert cfg.initial_state().P == 217000255.0

    def test_every_preset_parses_and_round_trips(self, tmp_path):
        for name in preset_names():
            built_in = preset_config(name)
            path = tmp_path / f"{name}.ini"
            write_preset(name, path)
            loaded = load_config(str(path))
            assert loaded.name == built_in.name
            assert loaded.dt == built_in.dt
            assert len(loaded.strains) == len(built_in.strains)

    # The SHA-256 of each preset's text, in `presets list` order: the bytes
    # that `presets write` puts on disk, which users keep.
    PRESET_DIGESTS = {
        "experiment1": "968d30695ff654b880197aba0f3488206494c7f3eba889fb115464f3adeb38d2",
        "experiment2": "4b8353de207b1d95ac0a20119e63ea7f37ceea4febe30a6418e0efa99fdf724a",
        "experiment3": "06559a3541e424516c5786d79dd34fd1ed00d2d959c76578a5c8ca5eee268758",
        "case_a": "4b8fd61e8f9c91c5cf179980980ad974d677614eb7165f53c0bf22069d81db81",
        "case_b": "e99b29044d476e9a580f8a9183b63ab6eede4ebf2469cd5132cb3eb5e7571bcf",
        "case_c": "7bc96778c64e874f3347410175d89135d1e1a83a289eaca23cfe6329d46e104c",
        "case_d": "0233c05b45e9a180ff861f06ec0b6d6c886a4664d4b08701c9baa624704d8d85",
        "case_e": "0c11a2199fcdd2e7f902bfd6981f19f3289cb35f5c090f0041143082fd6d99c5",
        "case_f": "821c316167715ba65f104154456035a9d828ff86f9169503ba5e4456bb570b60",
    }
    PRESET_LIST = """\
experiment1    single strain, no mitigation, 730 d
experiment2    two identical strains, second seeded at day 180
experiment3    second strain 70% more transmissible, seeded at day 180
case_a         optimal mitigation, c2 = 1.0 ln(P0)
case_b         optimal mitigation, c2 = 0.9 ln(P0)
case_c         optimal mitigation, c2 = 0.8 ln(P0)
case_d         optimal mitigation, c2 = 0.7 ln(P0)
case_e         optimal mitigation, c2 = 0.6 ln(P0)
case_f         optimal mitigation, c2 = 0.5 ln(P0)
"""

    def test_every_preset_text_and_summary_is_pinned(self, capsys):
        digests = {
            name: hashlib.sha256(preset_text(name).encode()).hexdigest()
            for name in preset_names()
        }
        assert list(digests.items()) == list(self.PRESET_DIGESTS.items())
        assert main(["presets", "list"]) == 0
        assert capsys.readouterr().out == self.PRESET_LIST

    def test_files_with_a_byte_order_mark_load(self, tmp_path):
        # Editors that save "CSV UTF-8" put U+FEFF before the first byte.
        bom = "\ufeff".encode()
        path = tmp_path / "experiment1.ini"
        path.write_bytes(bom + preset_text("experiment1").encode())
        assert replace(load_config(str(path)), base_dir=".") == preset_config("experiment1")
        schedule = "t,u\n" + "\n".join(",".join(r) for r in SCHEDULE_ROWS) + "\n"
        assert list(read_schedule_text(bom + schedule.encode()).u) == [0.1, 0.2, 0.3]
        cfg = replace(parse_config_text(SHORT_SIM), svg=False)
        traj = run_scenario(cfg, out_dir=str(tmp_path), quiet=True).trajectory
        csv_path = tmp_path / "trajectory.csv"
        csv_path.write_bytes(bom + csv_path.read_bytes())
        back = read_trajectory_csv(str(csv_path))
        assert np.array_equal(back.P, traj.P) and np.array_equal(back.E, traj.E)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(SHORT_SIM.replace("dt = 0.1", "dt = 0.1\nstep = 2"))

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text(SHORT_SIM + "\n[extras]\nfoo = 1\n")

    def test_activation_day_must_sit_on_grid(self):
        text = SHORT_SIM.replace(
            "seed_removed = 1", "seed_removed = 1\nactivation_day = 0.15"
        ).replace("dt = 0.1", "dt = 0.2")
        with pytest.raises(ConfigError, match="activation_day"):
            parse_config_text(text)
        # Past the horizon, where no node holds the seed.
        text = preset_text("experiment2").replace("horizon = 730", "horizon = 10")
        with pytest.raises(ConfigError, match=r"strain\.2\.activation_day.*horizon"):
            parse_config_text(text)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="population"):
            parse_config_text(SHORT_SIM.replace("population = 1000255", "x = 1")
                              .replace("x = 1", ""))

    # One value per [cost] key, each off the key's default.
    COST_VALUES = {
        "c1": 1, "c2": 5, "c2_log_scale": 1, "c2_population": 1000,
        "relaxation": 0.3, "tolerance": -1, "max_iterations": 0, "u_init": 0.5,
    }

    @pytest.mark.parametrize("key", [key for section, key in _SCHEMA if section == "cost"])
    def test_cost_section_requires_optimize_mode(self, key):
        message = rf"^cost\.{key} only applies to optimize mode$"
        value = self.COST_VALUES[key]
        with pytest.raises(ConfigError, match=message):
            parse_config_text(SHORT_SIM + f"\n[cost]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=message):
            set_config_value(parse_config_text(SHORT_SIM), f"cost.{key}", value)
        with pytest.raises(ConfigError, match=message):
            replace(parse_config_text(SHORT_SIM), **{_SCHEMA["cost", key][0]: value})

    def test_optimize_needs_exactly_one_c2_form(self):
        with pytest.raises(ConfigError, match="c2"):
            parse_config_text(SHORT_OPT + "c2 = 12\n")

    def test_c2_population_needs_c2_log_scale(self):
        message = r"^cost\.c2_population applies only with cost\.c2_log_scale"
        direct = preset_text("case_a").replace("c2_log_scale = 1.0", "c2 = 12")
        assert parse_config_text(direct).cost_params().c2 == 12.0
        with pytest.raises(ConfigError, match=message):
            parse_config_text(_set_key(direct, "cost", "c2_population", "1000"))
        with pytest.raises(ConfigError, match=message):
            set_config_value(parse_config_text(direct), "cost.c2_population", 1000.0)
        with pytest.raises(ConfigError, match=message):
            replace(parse_config_text(direct), c2_population=1000.0)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_svg_must_be_a_bool(self, value):
        with pytest.raises(ConfigError, match=r"^output\.svg must be true or false"):
            replace(preset_config("experiment1"), svg=value)

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[grid\nhorizon = 10\n")
        with pytest.raises(ConfigError, match="parse error"):
            load_config(str(path))

    def test_unstable_step_is_rejected_with_a_safe_step(self):
        # case_a's rate bound beta P + sigma + gamma + mu is about 0.713/day,
        # so dt = 10 puts dt times it near 7.1, past the RK4 real-axis bound
        # of 2.78.
        text = preset_text("case_a").replace("dt = 0.1", "dt = 10")
        with pytest.raises(ConfigError, match=r"grid\.dt must be at most 3\.897"):
            parse_config_text(text)
        with pytest.raises(ConfigError, match="unstable"):
            set_config_value(preset_config("case_a"), "grid.dt", 10.0)
        assert set_config_value(preset_config("case_a"), "grid.dt", 2.0).dt == 2.0

    def test_fast_waning_step_is_rejected_at_load(self):
        # With delta = 5/day, an RK4 step keeps R's decay non-negative only
        # for dt * 5 <= 1, RK4's radius of absolute monotonicity, though
        # beta P + sigma + gamma + mu stays small.  dt = 0.5 lies within the
        # stability bound 2.78 / 5 and is rejected all the same.
        text = preset_text("case_a").replace("dt = 0.1", "dt = 1")
        text = text.replace("delta = 0.011111111111111112", "delta = 5")
        for dt in ("1", "0.5"):
            with pytest.raises(ConfigError, match=r"grid\.dt must be at most 0\.2$"):
                parse_config_text(text.replace("dt = 1", f"dt = {dt}"))
        assert parse_config_text(text.replace("dt = 1", "dt = 0.2")).dt == 0.2

    def test_activation_day_defaults_to_grid_start(self):
        cfg = parse_config_text(SHORT_SIM.replace("start = 0", "start = 5"))
        assert cfg.strains[0].activation_day == 5.0

    def test_negative_start_is_rejected_at_load(self):
        text = SHORT_SIM.replace("start = 0", "start = -10").replace(
            "seed_removed = 1", "seed_removed = 1\nactivation_day = -10"
        )
        with pytest.raises(ConfigError, match=r"grid\.start must be >= 0"):
            parse_config_text(text)

    def test_sweep_value_setter(self):
        cfg = parse_config_text(SHORT_OPT)
        out = set_config_value(cfg, "cost.c2_log_scale", 0.5)
        assert out.c2_log_scale == 0.5
        assert cfg.c2_log_scale == 1.0
        out = set_config_value(cfg, "strain.1.beta", 1e-8)
        assert out.strains[0].beta == 1e-8
        with pytest.raises(ConfigError):
            set_config_value(cfg, "strain.2.beta", 1e-8)
        with pytest.raises(ConfigError):
            set_config_value(cfg, "nope.nope", 1.0)


def _drop(text: str, start: str, stop: str) -> str:
    """``text`` without the stretch from the line ``start`` up to, not including, ``stop``."""
    head = text.index(start)
    return text[:head] + text[text.index(stop, head):]


# One input per rejection of the config module, each with a single flaw, and
# the exact message it raises.
CONFIG_REJECTIONS = {
    "no strain section": (
        lambda: parse_config_text(_drop(SHORT_SIM, "[strain.1]", "[control]")),
        "at least one [strain.N] section is required",
    ),
    "population zero": (
        lambda: parse_config_text(_set_key(SHORT_SIM, "initial", "population", "0")),
        "initial.population must be > 0",
    ),
    "unknown mode": (
        lambda: parse_config_text(_set_key(SHORT_SIM, "control", "mode", "bogus")),
        "control.mode must be one of none, constant, schedule, optimize; got 'bogus'",
    ),
    "constant without value": (
        lambda: parse_config_text(_set_key(SHORT_SIM, "control", "mode", "constant")),
        "control.value is required for constant mode",
    ),
    "value outside constant mode": (
        lambda: parse_config_text(_set_key(SHORT_SIM, "control", "value", "0.5")),
        "control.value only applies to constant mode",
    ),
    "schedule without file": (
        lambda: parse_config_text(_set_key(SHORT_SIM, "control", "mode", "schedule")),
        "control.file is required for schedule mode",
    ),
    "schedule with an empty file": (
        lambda: parse_config_text(_set_key(
            _set_key(SHORT_SIM, "control", "mode", "schedule"), "control", "file", "")),
        "control.file is required for schedule mode",
    ),
    "file outside schedule mode": (
        lambda: parse_config_text(_set_key(SHORT_SIM, "control", "file", "u.csv")),
        "control.file only applies to schedule mode",
    ),
    "optimize without c1": (
        lambda: parse_config_text(SHORT_OPT.replace("c1 = 1\n", "")),
        "cost.c1 is required for optimize mode",
    ),
    "c2_log_scale zero": (
        lambda: parse_config_text(_set_key(SHORT_OPT, "cost", "c2_log_scale", "0")),
        "cost.c2_log_scale must be > 0",
    ),
    "c2_population one": (
        lambda: parse_config_text(_set_key(SHORT_OPT, "cost", "c2_population", "1")),
        "cost.c2_population must be > 1",
    ),
    "strain numbered 0": (
        lambda: parse_config_text(SHORT_SIM.replace("[strain.1]", "[strain.0]")),
        "strain sections are numbered from 1; got [strain.0]",
    ),
    "missing section": (
        lambda: parse_config_text(_drop(SHORT_SIM, "[grid]", "[initial]")),
        "missing required section [grid]",
    ),
    "strain gap": (
        lambda: parse_config_text(SHORT_SIM.replace("[strain.1]", "[strain.2]")),
        "strain sections must be numbered 1..n without gaps",
    ),
    "unknown strain key": (
        lambda: parse_config_text(_set_key(SHORT_SIM, "strain.1", "kappa", "1")),
        "unknown key 'kappa' in section [strain.1]",
    ),
    "missing strain key": (
        lambda: parse_config_text(_drop(SHORT_SIM, "beta =", "sigma =")),
        "strain.1.beta is required",
    ),
    "unknown preset": (
        lambda: preset_text("nope"),
        "unknown preset 'nope'; available: experiment1, experiment2, experiment3, "
        "case_a, case_b, case_c, case_d, case_e, case_f",
    ),
    "unknown strain field": (
        lambda: set_config_value(parse_config_text(SHORT_SIM), "strain.1.kappa", 1.0),
        "unknown strain field in parameter path 'strain.1.kappa'",
    ),
}


class TestRejections:
    """Each rejection of the config and runner modules, pinned to its text."""

    @pytest.mark.parametrize("case", CONFIG_REJECTIONS)
    def test_config_rejection(self, case):
        build, message = CONFIG_REJECTIONS[case]
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("case", ["no sweep value", "times that do not increase"])
    def test_runner_rejection(self, case, tmp_path):
        path = tmp_path / "trajectory.csv"
        path.write_text("t,P,S_1,E_1,I_1,R_1,u\n0,10,10,0,0,0,0\n0,10,10,0,0,0,0\n")
        build, message = {
            "no sweep value": (
                lambda: sweep(parse_config_text(SHORT_SIM), "grid.dt", [],
                              out_dir=str(tmp_path / "sw"), quiet=True),
                "sweep needs at least one value",
            ),
            "times that do not increase": (
                lambda: read_trajectory_csv(str(path)),
                f"{path}: the times of rows 1 and 2 do not increase",
            ),
        }[case]
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build()
        assert not (tmp_path / "sw").exists()

    def test_a_strain_without_seed_mass_has_no_seed_event(self):
        text = preset_text("experiment2")
        for key in ("seed_exposed", "seed_infected", "seed_removed"):
            text = _set_key(text, "strain.2", key, "0")
        cfg = parse_config_text(text)
        assert cfg.strains[1].seed_event(1) is None
        assert [ev.strain for ev in cfg.seed_events()] == [0]


class TestSchema:
    """The file parser and the sweep setter read one table, so a value means
    the same, and fails the same checks, whichever way it comes in."""

    @pytest.mark.parametrize("path", NUMERIC_PATHS)
    def test_setter_matches_the_parser(self, path):
        section, key = path.rsplit(".", 1)
        value = NUMERIC_VALUES[path]
        base = parse_config_text(_base_for(path))
        from_text = parse_config_text(_set_key(_base_for(path), section, key, repr(value)))
        assert from_text != base
        assert set_config_value(base, path, value) == from_text

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    @pytest.mark.parametrize("path", NUMERIC_PATHS)
    def test_non_finite_values_are_rejected_naming_the_key(self, path, raw):
        section, key = path.rsplit(".", 1)
        with pytest.raises(ConfigError, match=re.escape(path)):
            parse_config_text(_set_key(_base_for(path), section, key, raw))
        with pytest.raises(ConfigError, match=re.escape(path)):
            set_config_value(parse_config_text(_base_for(path)), path, float(raw))

    def test_fractional_max_iterations_is_rejected(self):
        with pytest.raises(ConfigError, match=r"cost\.max_iterations"):
            parse_config_text(_set_key(SCHEMA_BASE, "cost", "max_iterations", "2.7"))
        with pytest.raises(ConfigError, match=r"cost\.max_iterations"):
            set_config_value(parse_config_text(SCHEMA_BASE), "cost.max_iterations", 2.7)
        assert set_config_value(
            parse_config_text(SCHEMA_BASE), "cost.max_iterations", 7.0
        ).max_iterations == 7


    # Rules the config leaves to the model object that takes the value: a
    # value that breaks one, and the section or key the ConfigError names.
    @pytest.mark.parametrize("path, value, prefix", [
        ("strain.1.beta", -1.0, "strain.1"),
        ("strain.1.seed_infected", -2.0, "strain.1"),
        ("grid.dt", 0.0, "grid"),
        ("grid.horizon", -5.0, "grid"),
        ("grid.horizon", 150.00001, "grid"),
        ("control.value", 1.5, "control.value"),
        ("cost.c1", 0.0, "cost"),
        ("cost.c2", -1.0, "cost"),
        ("cost.relaxation", 1.5, "cost"),
        ("cost.tolerance", 0.0, "cost"),
        ("cost.u_init", -0.1, "cost.u_init"),
        ("cost.max_iterations", 0, "cost"),
    ])
    def test_model_checks_name_the_config_section(self, path, value, prefix):
        section, key = path.rsplit(".", 1)
        message = rf"^{re.escape(prefix)}: "
        with pytest.raises(ConfigError, match=message):
            parse_config_text(_set_key(_base_for(path), section, key, repr(value)))
        with pytest.raises(ConfigError, match=message):
            set_config_value(parse_config_text(_base_for(path)), path, value)

    @pytest.mark.parametrize("day, reason", [
        (-0.2, r"before the start 0\.0"),
        (150.2, r"after the horizon 150\.0"),
        (10.1, r"dt=0\.2 does not divide its offset"),
    ])
    def test_activation_day_gets_the_grid_verdict(self, day, reason):
        # The config states no rule of its own: the key names TimeGrid.index_of's
        # verdict, the same a SeedEvent at that time gets from simulate.
        with pytest.raises(ConfigError) as direct:
            parse_config_text(SCHEMA_BASE).grid().index_of(day)
        message = rf"^strain\.1\.activation_day: .*{reason}"
        with pytest.raises(ConfigError, match=message) as err:
            set_config_value(parse_config_text(SCHEMA_BASE), "strain.1.activation_day", day)
        assert str(err.value) == f"strain.1.activation_day: {direct.value}"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(_set_key(SCHEMA_BASE, "strain.1", "activation_day", repr(day)))

    def test_fractional_max_iterations_from_library_code_is_rejected(self):
        with pytest.raises(ConfigError, match=r"^cost: max_iter"):
            replace(preset_config("case_a"), max_iterations=2.5)


class TestFrozenConfig:
    @pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig)])
    def test_a_config_field_cannot_be_assigned(self, name):
        cfg = preset_config("experiment1")
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))

    @pytest.mark.parametrize("name", [f.name for f in fields(StrainSpec)])
    def test_a_strain_field_cannot_be_assigned(self, name):
        strain = preset_config("experiment1").strains[0]
        with pytest.raises(FrozenInstanceError):
            setattr(strain, name, getattr(strain, name))

    def test_the_config_is_checked_where_it_is_built(self):
        assert not hasattr(ScenarioConfig, "validate")
        cfg = preset_config("experiment1")
        with pytest.raises(ConfigError, match=r"^grid\.dt=5\.0 .*at most 3\.897$"):
            replace(cfg, dt=5.0)
        # dt 5 at an eightfold beta: simulate would fail at step 6 with an
        # IntegrationError.
        fast = (replace(cfg.strains[0], beta=2e-8),)
        with pytest.raises(ConfigError, match=r"^grid\.dt=5\.0 .*at most 0\.6136$"):
            replace(cfg, dt=5.0, strains=fast)
        kwargs = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
        with pytest.raises(ConfigError, match=r"^grid\.dt=5\.0 "):
            ScenarioConfig(**{**kwargs, "dt": 5.0})

    def test_strains_are_held_as_a_tuple(self):
        cfg = preset_config("experiment2")
        again = replace(cfg, strains=list(cfg.strains))
        assert again.strains == cfg.strains and isinstance(again.strains, tuple)
        assert again == cfg and hash(again) == hash(cfg)

    def test_set_config_value_leaves_the_original_unchanged(self):
        cfg = preset_config("experiment2")
        moved = set_config_value(cfg, "strain.2.activation_day", 200.0)
        assert cfg == preset_config("experiment2")
        assert moved.strains == (cfg.strains[0], replace(cfg.strains[1], activation_day=200.0))

    def test_a_seed_larger_than_the_population_is_rejected_at_load(self, tmp_path, capsys):
        path = tmp_path / "seed.ini"
        path.write_text(_set_key(preset_text("experiment1"), "strain.1", "seed_exposed", "3e8"))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: strain.1: ") and "initial.population" in err
        assert not out.exists()
        # The whole population may be seeded.
        seeded = set_config_value(preset_config("experiment1"), "strain.1.seed_exposed",
                                  217000252.0)
        assert seeded.strains[0].seed_exposed == 217000252.0


class TestKeptInputs:
    """A config hands out the run inputs its check built, and a CLI run builds
    one config."""

    def test_accessors_return_the_objects_the_check_built(self):
        cfg = preset_config("case_a")
        assert cfg.grid() is cfg.grid()
        assert cfg.initial_state() is cfg.initial_state()
        assert cfg.cost_params() is cfg.cost_params()
        two = preset_config("experiment2")
        for accessor in (two.strain_params, two.seed_events):
            a, b = accessor(), accessor()
            assert a is not b and len(a) == 2
            assert all(x is y for x, y in zip(a, b))

    def test_a_replaced_config_holds_its_own_inputs(self):
        cfg = preset_config("case_a")
        moved = replace(cfg, dt=0.2)
        assert moved.grid().dt == 0.2 and cfg.grid().dt == 0.1
        assert moved.cost_params() == cfg.cost_params()
        with pytest.raises(ConfigError, match="only defined for optimize mode"):
            preset_config("experiment1").cost_params()

    def test_the_kept_inputs_are_not_fields(self):
        assert [f.name for f in fields(ScenarioConfig)] == [
            "name", "start", "horizon", "dt", "population", "strains", "control_mode",
            "control_value", "schedule_file", "c1", "c2", "c2_log_scale", "c2_population",
            "relaxation", "tolerance", "max_iterations", "u_init", "output_dir", "svg",
            "base_dir",
        ]
        assert repr(preset_config("case_a")) == (
            "ScenarioConfig(name='case_a', start=0.0, horizon=730.0, dt=0.1, "
            "population=217000255.0, strains=(StrainSpec(beta=2.41e-09, "
            "sigma=0.14285714285714285, gamma=0.047619047619047616, "
            "delta=0.011111111111111112, mu=1.152e-05, activation_day=0.0, "
            "seed_exposed=252.0, seed_infected=2.0, seed_removed=1.0),), "
            "control_mode='optimize', control_value=None, schedule_file=None, c1=1.0, "
            "c2=None, c2_log_scale=1.0, c2_population=None, relaxation=0.5, "
            "tolerance=1e-06, max_iterations=500, u_init=0.0, output_dir=None, "
            "svg=True, base_dir='.')"
        )

    @pytest.mark.parametrize("argv, builds, runs", [
        (["simulate", "experiment1", "--no-svg"], 1, 1),
        (["sweep", "case_a", "--param", "cost.c2_log_scale", "--values", "1.0,0.9",
          "--horizon", "60", "--no-svg"], 3, 2),
    ], ids=["simulate", "sweep"])
    def test_a_cli_run_checks_one_config_per_run(self, argv, builds, runs, tmp_path,
                                                 monkeypatch):
        # The loaded config and one per sweep value; --no-svg joins the build.
        # The memory check belongs to the run: one per run, none per build.
        checks, calls = [], []
        post_init = ScenarioConfig.__post_init__
        monkeypatch.setattr(ScenarioConfig, "__post_init__",
                            lambda cfg: checks.append(1) or post_init(cfg))
        memory_limit = runner._memory_limit
        monkeypatch.setattr(runner, "_memory_limit", lambda: calls.append(1) or memory_limit())
        from_horizon = TimeGrid.from_horizon.__func__
        grids = []
        monkeypatch.setattr(TimeGrid, "from_horizon", classmethod(
            lambda cls, *args: grids.append(args) or from_horizon(cls, *args)
        ))
        out = tmp_path / "out"
        assert main([*argv, "--quiet", "--out", str(out)]) == 0
        assert (len(checks), len(calls)) == (builds, runs)
        if argv[0] == "simulate":
            assert len(grids) == 1
        assert not list(out.rglob("*.svg")) and list(out.rglob("trajectory.csv"))

    def test_output_svg_is_set_like_a_file_value(self):
        cfg = preset_config("experiment1")
        assert set_config_value(cfg, "output.svg", False).svg is False
        assert set_config_value(cfg, "output.svg", "on").svg is True
        with pytest.raises(ConfigError, match=r"^output\.svg: not a boolean: 1\.0$"):
            set_config_value(cfg, "output.svg", 1.0)
        with pytest.raises(ConfigError, match="unknown or non-numeric parameter path"):
            set_config_value(cfg, "control.mode", 1.0)


class TestRunScenario:
    def test_artifacts_and_determinism(self, tmp_path):
        cfg = parse_config_text(SHORT_SIM)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        r1 = run_scenario(cfg, out_dir=str(out1), quiet=True)
        r2 = run_scenario(cfg, out_dir=str(out2), quiet=True)
        for name in ("trajectory.csv", "summary.csv"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2
        assert (out1 / "compartments.svg").exists()
        assert not (out1 / "control.svg").exists()

    @pytest.mark.parametrize("name, digests", [
        ("experiment1", {
            "trajectory.csv": "113d4565163d21c39df0ba223b76fc35a45f4ef444b7a684cc8936170d9e43da",
            "summary.csv": "3bc3ab25917c52f4369ff337df1818bc8da650091d01cd191a24969e4e641b28",
            "compartments.svg": "148cf7bd9dc59c05e2e965204f6e4672325067982fea4fdeec66b48484686ca4",
        }),
        ("experiment2", {
            "trajectory.csv": "fe643ec5be80a3dedcf669b9718cb645317653e0ee4522255a72059f68ed4a12",
            "summary.csv": "79fefb807e3660faddb9875e3d971a61b86d19d37c520733b3f990d1234cedd7",
            "compartments.svg": "ef32d045509bc5a276d7fa2a56c79501192150b15abd9d9cb4bf0e8a647f28a5",
        }),
        ("experiment3", {
            "trajectory.csv": "645c483cc5f038bfabdf25067e8b5e3d1ad13717ef9074b000e64aee87e4cbea",
            "summary.csv": "59680db302fa658a61993532018b8a2c54e3ee1f3c658fb634a12945488ed976",
            "compartments.svg": "57c3aea624c891ac930c550a1cde5e3ee982f6009011178fb8ba77b3b865ad5a",
        }),
    ], ids=["experiment1", "experiment2", "experiment3"])
    @pytest.mark.parametrize("path", [compiled_path, python_path],
                             ids=["compiled", "python"])
    def test_preset_trajectory_is_pinned_bit_for_bit(self, name, digests, path, tmp_path):
        # The forward pass rounds each operation in the order of its list
        # form, in C or in Python, and the rows are written as %.17g, in C or
        # in Python; a change to the operations, their order or a digit of
        # the text shows in the digest.  The summary and the chart follow
        # from the trajectory.  Optimize artifacts are not pinned: they pass
        # through np.log and np.exp, whose last bit may vary with the CPU.
        with path():
            run_scenario(preset_config(name), out_dir=str(tmp_path), quiet=True)
        assert {
            file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
            for file in digests
        } == digests

    def test_csv_round_trip_is_exact(self, tmp_path):
        cfg = replace(parse_config_text(SHORT_SIM), svg=False)
        result = run_scenario(cfg, out_dir=str(tmp_path), quiet=True)
        back = read_trajectory_csv(os.path.join(str(tmp_path), "trajectory.csv"))
        assert np.array_equal(back.P, result.trajectory.P)
        assert np.array_equal(back.E, result.trajectory.E)
        assert np.array_equal(back.I, result.trajectory.I)
        assert np.array_equal(back.R, result.trajectory.R)
        assert np.array_equal(back.u, result.trajectory.u)
        for k in range(back.grid.n_points):
            assert back.state_at(k).P == back.P[k]

    def test_every_node_of_a_file_at_the_bounds_builds_a_state(self, tmp_path):
        # E_1 just below zero in row 2 and P - E - I - R just below zero in
        # row 3, both within NEGATIVE_TOLERANCE * max(P, 1) = 1e-9.
        tiny = 2.0 ** -30
        path = tmp_path / "trajectory.csv"
        path.write_text(
            "t,P,S_1,E_1,I_1,R_1,u\n0,1,1,0,0,0,0\n"
            f"0.5,1,{1 + tiny!r},{-tiny!r},0,0,0\n1,1,{-tiny!r},0.5,{0.5 + tiny!r},0,0\n"
        )
        back = read_trajectory_csv(str(path))
        states = [back.state_at(k) for k in range(back.grid.n_points)]
        assert states[1].E[0] == -tiny
        assert states[2].susceptible_all()[0] == -tiny

    @pytest.mark.parametrize("text, fragment", [
        ("", "not a trajectory file"),
        ("t,P,S_1,E_1,I_1,R_1,u\n", "at least two rows"),
        ("t,P,S_1,E_1,I_1,R_1,u\n0,1,1,0,0,0,0\n0.1,1,1,zero,0,0,0\n", "row 2"),
        ("t,P,S_1,E_1,I_1,R_1,u\n0,1,1,0,0,0,0\n0.1,1,1,0,0\n", "row 2"),
        (
            "t,P,S_1,E_1,I_1,R_1,u\n0,1,1,0,0,0,0\n0.1,1,1,0,0,0,0\n"
            "0.5,1,1,0,0,0,0\n",
            "row 3 time 0.5 is off the grid: .*after the horizon",
        ),
        (
            "t,P,S_1,E_1,I_1,R_1,u\n0,1,1,0,0,0,0\n0.1,1,1,0,0,0,0\n"
            "0.15,1,1,0,0,0,0\n",
            "row 3 time 0.15 is off the grid: .*does not divide",
        ),
        (
            "t,P,S_1,E_1,I_1,R_1,u\n0,1,1,0,0,0,0\n0.1,1,1,0,0,0,0\n"
            "0.1,1,1,0,0,0,0\n",
            r"row 3 time 0.1 is off the grid: the row needs node 2 at 0\.2",
        ),
        ("t,P,X,Y,Z,W,u\n0,1,1,0,0,0,0\n0.1,1,1,0,0,0,0\n", "not a trajectory file"),
        ("t,P,S_1,E_1,u\n0,1,1,0,0\n0.1,1,1,0,0\n", "not a trajectory file"),
        (
            "t,P,S_1,E_1,I_1,R_1,u\n0,1,1,0,0,0,0\n0.1,nan,1,0,0,0,0\n",
            r"row 2 P = nan is not finite",
        ),
        (
            "t,P,S_1,E_1,I_1,R_1,u\n0,1,1,0,0,0,0\n0.1,1,1,inf,0,0,0\n",
            r"row 2 E_1 = inf is not finite",
        ),
        (
            "t,P,S_1,E_1,I_1,R_1,u\n0,1,3,0,0,0,0\n0.1,1,3,-2,0,0,0\n",
            r"row 2 E_1 = -2\.0 lies below zero",
        ),
        (
            "t,P,S_1,E_1,I_1,R_1,u\n0,1,1,0,0,0,0\n0.1,1,1,0,0,0,7\n",
            r"row 2 u = 7\.0 lies outside \[0, 1\]",
        ),
        (
            "t,P,S_1,E_1,I_1,R_1,u\n0,1,1,0,0,0,0\n0.1,1,0.5,0,0,0,0\n",
            r"row 2 S_1 = 0\.5 is not P - E - I - R",
        ),
        # S_1 is within 1e-9 of P - E - I - R and of zero, but P - E - I - R
        # lies 1.5e-9 below zero, where no state of the trajectory is built.
        (
            "t,P,S_1,E_1,I_1,R_1,u\n0,1,1,0,0,0,0\n0.1,1,-6e-10,1.0000000015,0,0,0\n",
            r"row 2 P - E_1 - I_1 - R_1 = -1\.\d+e-09 lies below zero",
        ),
        # Finite cells whose P - E - I - R passes the float range.
        (
            "t,P,S_1,E_1,I_1,R_1,u\n0,1.7e308,0,1e308,1.7e308,1.7e308,0\n"
            "0.1,1.7e308,0,1e308,1.7e308,1.7e308,0\n",
            r"row 1 P - E_1 - I_1 - R_1 = -inf lies below zero",
        ),
        # The step, and then the third node, t0 + 2 dt, are past the float range.
        (
            "t,P,S_1,E_1,I_1,R_1,u\n-1.7e308,1,1,0,0,0,0\n1.7e308,1,1,0,0,0,0\n",
            r"dt must be finite and > 0, got inf",
        ),
        (
            "t,P,S_1,E_1,I_1,R_1,u\n1e308,1,1,0,0,0,0\n1.7e308,1,1,0,0,0,0\n"
            "1.79e308,1,1,0,0,0,0\n",
            r"last node t0 \+ n_steps\*dt must be finite",
        ),
    ])
    def test_malformed_trajectory_names_the_file_and_the_row(
        self, tmp_path, text, fragment
    ):
        path = tmp_path / "trajectory.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=fragment) as err:
            read_trajectory_csv(str(path))
        assert str(path) in str(err.value)

    def test_svg_outputs_are_wellformed_with_one_polyline_per_series(self, tmp_path):
        cfg = replace(parse_config_text(SHORT_OPT), max_iterations=40)
        result = run_scenario(cfg, out_dir=str(tmp_path), quiet=True)
        comp = ET.parse(tmp_path / "compartments.svg").getroot()
        polylines = [el for el in comp.iter() if el.tag.endswith("polyline")]
        # One strain: S, E, I, R shares plus the population trace.
        assert len(polylines) == 5
        ctrl = ET.parse(tmp_path / "control.svg").getroot()
        polylines = [el for el in ctrl.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1

    def test_markup_in_the_scenario_name_is_escaped(self, tmp_path):
        text = SHORT_SIM.replace("name = shortrun", "name = A&B <1>").replace(
            "mode = none", "mode = constant\nvalue = 0.3"
        )
        run_scenario(parse_config_text(text), out_dir=str(tmp_path), quiet=True)
        for name, title in [
            ("compartments.svg", "A&B <1>: compartment shares of the initial population"),
            ("control.svg", "A&B <1>: mitigation schedule"),
        ]:
            root = ET.parse(tmp_path / name).getroot()
            assert title in [el.text for el in root.iter() if el.tag.endswith("text")]

    def test_constant_mode_records_control(self, tmp_path):
        text = SHORT_SIM.replace("mode = none", "mode = constant\nvalue = 0.4")
        cfg = replace(parse_config_text(text), svg=False)
        result = run_scenario(cfg, out_dir=str(tmp_path), quiet=True)
        assert np.all(result.trajectory.u == 0.4)

    def test_schedule_mode_reads_file(self, tmp_path):
        sched = tmp_path / "sched.csv"
        cfg = replace(
            parse_config_text(SHORT_SIM.replace("mode = none", "mode = schedule\nfile = sched.csv")),
            base_dir=str(tmp_path), svg=False,
        )
        grid = cfg.grid()
        times = grid.times()
        lines = ["t,u"] + [f"{float(t)!r},0.25" for t in times]
        sched.write_text("\n".join(lines) + "\n")
        result = run_scenario(cfg, out_dir=str(tmp_path / "out"), quiet=True)
        assert np.all(result.trajectory.u == 0.25)

    def test_optimize_attaches_report(self, tmp_path):
        cfg = replace(parse_config_text(SHORT_OPT), svg=False)
        result = run_scenario(cfg, out_dir=str(tmp_path), quiet=True)
        assert result.report is not None
        assert result.report.converged
        assert np.array_equal(result.trajectory.u, result.report.schedule.u)
        line = format_report(result.report).splitlines()[0]
        assert re.search(r"\(started by \d+ coarse iteration\(s\) at dt 2\)", line)

    def test_a_run_that_is_not_quiet_prints_its_summary(self, tmp_path, capsys):
        cfg = replace(parse_config_text(SHORT_SIM), svg=False)
        result = run_scenario(cfg, out_dir=str(tmp_path), quiet=False)
        assert capsys.readouterr().out == (
            f"scenario shortrun: wrote 2 file(s) to {tmp_path}\n"
            f"{result.summary.format()}\n"
        )

    def test_a_cold_started_solve_reports_it(self, tmp_path, capsys):
        # 73 steps of 0.1 day: no coarse step multiple divides the grid.
        cfg = replace(preset_config("case_a"), horizon=7.3, svg=False)
        result = run_scenario(cfg, out_dir=str(tmp_path), quiet=False)
        assert result.report.coarse_dt is None
        out = capsys.readouterr().out
        assert format_report(result.report) in out
        assert "(cold start)" in out.splitlines()[-3]

    def test_a_run_result_is_frozen(self, tmp_path):
        result = run_scenario(parse_config_text(SHORT_SIM), out_dir=str(tmp_path), quiet=True)
        assert result.files == (
            str(tmp_path / "trajectory.csv"), str(tmp_path / "summary.csv"),
            str(tmp_path / "compartments.svg"),
        )
        with pytest.raises(FrozenInstanceError):
            result.files = ()


SCHEDULE_GRID = TimeGrid(t0=0.0, dt=0.5, n_steps=2)
SCHEDULE_ROWS = [["0.0", "0.1"], ["0.5", "0.2"], ["1.0", "0.3"]]


def read_schedule_text(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sched.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        return read_schedule_csv(path, SCHEDULE_GRID)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


@st.composite
def malformed_schedules(draw):
    """A valid t,u file on SCHEDULE_GRID with one flaw put in."""
    rows = [list(r) for r in SCHEDULE_ROWS]
    k = draw(st.integers(0, len(rows) - 1))
    flaw = draw(st.sampled_from(
        ["empty", "header", "short", "text", "range", "time", "extra", "missing"]
    ))
    header = "t,u"
    if flaw == "empty":
        return b""
    if flaw == "header":
        header = draw(st.text(max_size=8).filter(
            lambda h: [c.strip() for c in h.split(",")[:2]] != ["t", "u"] and "\n" not in h
            and "\r" not in h and '"' not in h
        ))
    elif flaw == "short":
        rows[k] = rows[k][: draw(st.integers(0, 1))]
    elif flaw == "text":
        rows[k][draw(st.integers(0, 1))] = draw(
            st.text(alphabet=st.characters(blacklist_characters=',\n\r"'), max_size=12)
            .filter(lambda c: not _is_float(c))
        )
    elif flaw == "range":
        rows[k][1] = repr(draw(st.one_of(
            st.floats(max_value=-1e-12), st.floats(min_value=1.0 + 1e-12),
            st.just(float("nan")),
        )))
    elif flaw == "time":
        rows[k][0] = repr(draw(st.floats().filter(
            lambda t: not math.isfinite(t) or abs(t - 0.5 * k) > 1e-9 * max(1.0, abs(t))
        )))
    elif flaw == "extra":
        rows.append(["1.5", "0.4"])
    else:
        del rows[k]
    lines = [header] + [",".join(r) for r in rows]
    # A drawn lone surrogate becomes undecodable bytes, which the reader rejects.
    return ("\n".join(lines) + "\n").encode("utf-8", errors="surrogatepass")


class TestScheduleCsv:
    def test_valid_file_reads(self):
        data = ("t,u\n" + "\n".join(",".join(r) for r in SCHEDULE_ROWS) + "\n").encode()
        assert list(read_schedule_text(data).u) == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize("data, fragment", [
        (b"", "t,u header"),
        (b"t,u\n0.0,0.1\n0.5\n1.0,0.3\n", "row 2"),
        (b"t,u\n0.0,0.1\n0.5,half\n1.0,0.3\n", "row 2"),
        (b"t,u\n0.0,0.1\n0.5,0.2\n1.0,1.3\n", "row 3"),
        (b"t,u\n\xff\xfe,0.1\n", "sched.csv"),
    ])
    def test_flaws_name_the_file_and_the_row(self, data, fragment):
        with pytest.raises(ConfigError, match=fragment) as err:
            read_schedule_text(data)
        assert "sched.csv" in str(err.value)

    @settings(max_examples=200, deadline=None)
    @given(malformed_schedules())
    def test_malformed_files_raise_config_error(self, data):
        with pytest.raises(ConfigError):
            read_schedule_text(data)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.text(max_size=60), st.binary(max_size=60)))
    def test_arbitrary_text_reads_or_raises_config_error(self, text):
        if isinstance(text, str):
            text = text.encode("utf-8", errors="surrogatepass")
        try:
            schedule = read_schedule_text(text)
        except ConfigError:
            return
        assert schedule.grid == SCHEDULE_GRID

    def test_cli_exits_two_on_a_malformed_schedule(self, tmp_path):
        (tmp_path / "sched.csv").write_text("t,u\n0.0,0.25\n0.1\n")
        path = tmp_path / "cfg.ini"
        path.write_text(SHORT_SIM.replace("mode = none", "mode = schedule\nfile = sched.csv"))
        assert main(["simulate", str(path), "--quiet", "--no-svg",
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("rows, fragment", [
        (None, "schedule file not found: {}"),
        ("t,u\n0,0.25\n0.05,0.25\n", "{}: schedule has 2 rows but the grid has 14601 nodes"),
    ], ids=["missing", "row_count"])
    def test_a_flawed_schedule_leaves_no_output_directory(
        self, rows, fragment, tmp_path, capsys
    ):
        # The schedule is read before the output directory is made.
        sched = tmp_path / "sched.csv"
        if rows is not None:
            sched.write_text(rows)
        path = tmp_path / "cfg.ini"
        path.write_text(preset_text("experiment1").replace(
            "mode = none", "mode = schedule\nfile = sched.csv"
        ))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--quiet", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {fragment.format(sched)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("rows, param, values, fragment", [
        (False, "strain.1.beta", "2e-9,3e-9", "schedule file not found: {}"),
        (True, "grid.dt", "0.05,0.1", "{}: schedule has 14601 rows but the grid has 7301 nodes"),
    ], ids=["missing", "second_value"])
    def test_a_flawed_schedule_leaves_no_sweep_root(
        self, rows, param, values, fragment, tmp_path, capsys
    ):
        # Every value's schedule is read before the root is made; the dt 0.05
        # run used to be written before the dt 0.1 value failed.
        sched = tmp_path / "sched.csv"
        if rows:
            sched.write_text("t,u\n" + "".join(f"{k * 0.05!r},0.25\n" for k in range(14601)))
        path = tmp_path / "cfg.ini"
        path.write_text(preset_text("experiment1").replace(
            "mode = none", "mode = schedule\nfile = sched.csv"
        ))
        root = tmp_path / "root"
        argv = ["sweep", str(path), "--param", param, "--values", values,
                "--quiet", "--no-svg", "--out", str(root)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {fragment.format(sched)}\n"
        assert not root.exists()

    def test_a_sweep_reads_each_schedule_once_and_follows_it(self, tmp_path, monkeypatch):
        sched = tmp_path / "sched.csv"
        sched.write_text("t,u\n" + "".join(f"{k * 0.1!r},0.25\n" for k in range(301)))
        cfg = replace(parse_config_text(SHORT_SIM, base_dir=str(tmp_path)), svg=False,
                      control_mode="schedule", schedule_file="sched.csv")
        reads = []
        read = runner.read_schedule_csv
        monkeypatch.setattr(runner, "read_schedule_csv",
                            lambda *args: reads.append(args[0]) or read(*args))
        results = sweep(cfg, "strain.1.beta", [5.2e-7, 8.84e-7],
                        out_dir=str(tmp_path / "sw"), quiet=True)
        assert reads == [str(sched)] * 2
        assert all(np.all(r.trajectory.u == 0.25) for r in results)


class TestSweep:
    def test_single_value_sweep_matches_run_scenario(self, tmp_path):
        cfg = replace(parse_config_text(SHORT_SIM), svg=False)
        single = run_scenario(cfg, out_dir=str(tmp_path / "direct"), quiet=True)
        results = sweep(cfg, "strain.1.beta", [5.2e-7],
                        out_dir=str(tmp_path / "swept"), quiet=True)
        assert len(results) == 1
        assert np.array_equal(results[0].trajectory.P, single.trajectory.P)
        assert (tmp_path / "swept" / "sweep_summary.csv").exists()

    def test_two_value_sweep_writes_combined_summary(self, tmp_path):
        cfg = replace(parse_config_text(SHORT_SIM), svg=False)
        results = sweep(cfg, "strain.1.beta", [5.2e-7, 8.84e-7],
                        out_dir=str(tmp_path), quiet=True)
        assert len(results) == 2
        text = (tmp_path / "sweep_summary.csv").read_text()
        assert text.count("\n") == 3  # header + one row per run
        assert "strain.1.beta" in text
        deaths = [r.summary.cumulative_deaths for r in results]
        assert deaths[1] > deaths[0]
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [
            "shortrun__strain_1_beta_5.2em07", "shortrun__strain_1_beta_8.84em07",
        ]

    def test_mixed_case_path_names_runs_by_the_canonical_path(self, tmp_path):
        cfg = replace(parse_config_text(SHORT_SIM), svg=False)
        sweep(cfg, " Strain.1.BETA ", [5.2e-7], out_dir=str(tmp_path), quiet=True)
        assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == [
            "shortrun__strain_1_beta_5.2em07",
        ]
        with open(tmp_path / "sweep_summary.csv", newline="") as fh:
            assert {row["param"] for row in csv.DictReader(fh)} == {"strain.1.beta"}

    def test_values_sharing_a_run_directory_are_rejected_before_any_run(self, tmp_path):
        cfg = replace(parse_config_text(SHORT_SIM), svg=False)
        with pytest.raises(ConfigError, match=r"5\.2e-07 and 5\.200000001e-07"):
            sweep(cfg, "strain.1.beta", [5.2e-7, 5.200000001e-7],
                  out_dir=str(tmp_path / "sw"), quiet=True)
        assert not (tmp_path / "sw").exists()


class TestCli:
    def test_presets_list_and_write(self, tmp_path, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        assert "experiment1" in out and "case_f" in out
        path = tmp_path / "exp1.ini"
        assert main(["presets", "write", "experiment1", str(path)]) == 0
        assert load_config(str(path)).name == "experiment1"

    def test_simulate_short_config(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SHORT_SIM)
        code = main(["simulate", str(path), "--out", str(tmp_path / "out"),
                     "--quiet", "--no-svg"])
        assert code == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()
        assert not (tmp_path / "out" / "compartments.svg").exists()

    def test_simulate_rejects_optimize_config(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SHORT_OPT)
        assert main(["simulate", str(path), "--quiet"]) == 2

    def test_optimize_requires_optimize_mode(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SHORT_SIM)
        assert main(["optimize", str(path), "--quiet"]) == 2

    def test_optimize_runs_and_exit_three_on_nonconvergence(self, tmp_path):
        text = SHORT_OPT + "max_iterations = 2\n"
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        code = main(["optimize", str(path), "--out", str(tmp_path / "out"),
                     "--quiet", "--no-svg"])
        assert code == 3

    def test_bad_config_exits_two(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[grid]\nhorizon = ten\ndt = 0.1\n")
        assert main(["simulate", str(path)]) == 2

    @pytest.mark.parametrize("verb, artifact", [
        ("simulate", "trajectory.csv"),
        ("simulate", "summary.csv"),
        ("simulate", "compartments.svg"),
        ("simulate", "control.svg"),
        ("sweep", "sweep_summary.csv"),
    ])
    def test_an_artifact_that_cannot_be_written_exits_two_naming_it(
        self, verb, artifact, tmp_path, capsys
    ):
        path = tmp_path / "cfg.ini"
        path.write_text(SHORT_SIM.replace("mode = none", "mode = constant\nvalue = 0.2"))
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        extra = ["--param", "grid.dt", "--values", "0.1"] if verb == "sweep" else []
        assert main([verb, str(path), "--out", str(out), "--quiet", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and artifact in err

    def test_missing_file_exits_two(self):
        assert main(["simulate", "/nonexistent/nowhere.ini"]) == 2

    def test_flag_overrides(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SHORT_SIM)
        out = tmp_path / "out"
        code = main(["simulate", str(path), "--out", str(out), "--quiet",
                     "--no-svg", "--dt", "0.2", "--horizon", "10"])
        assert code == 0
        import csv
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 52  # header + 10 d / 0.2 d + 1

    def test_sweep_cli(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SHORT_SIM)
        code = main(["sweep", str(path), "--param", "strain.1.beta",
                     "--values", "5.2e-7,6e-7", "--out", str(tmp_path / "sw"),
                     "--quiet", "--no-svg"])
        assert code == 0
        assert (tmp_path / "sw" / "sweep_summary.csv").exists()
        assert not list((tmp_path / "sw").glob("*/*.svg"))

    def test_preset_name_as_config_argument(self, tmp_path):
        code = main(["simulate", "experiment1", "--out", str(tmp_path),
                     "--quiet", "--no-svg", "--dt", "0.5", "--horizon", "5"])
        assert code == 0

    def test_seed_day_override_moves_later_strains(self, tmp_path):
        two = SHORT_SIM.replace(
            "[control]",
            "[strain.2]\nbeta = 5.2e-7\nsigma = 0.14285714285714285\n"
            "gamma = 0.047619047619047616\ndelta = 0.011111111111111112\n"
            "mu = 1.152e-05\nactivation_day = 20\nseed_exposed = 10\n\n[control]",
        )
        path = tmp_path / "cfg.ini"
        path.write_text(two)
        out = tmp_path / "out"
        code = main(["simulate", str(path), "--out", str(out), "--quiet",
                     "--no-svg", "--seed-day", "10"])
        assert code == 0
        traj = read_trajectory_csv(str(out / "trajectory.csv"))
        k = traj.grid.index_of(10.0)
        assert traj.E[k, 1] == 10.0
        assert np.all(traj.E[:k, 1] == 0.0)

    def test_seed_day_needs_second_strain(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SHORT_SIM)
        assert main(["simulate", str(path), "--quiet", "--seed-day", "10"]) == 2

    @pytest.mark.parametrize("argv, key", [
        (["simulate", "experiment1", "--horizon", "inf"], "grid.horizon"),
        (["simulate", "experiment2", "--seed-day", "nan"], "strain.2.activation_day"),
        (["simulate", "experiment2", "--horizon", "10"], "strain.2.activation_day"),
        (["simulate", "experiment2", "--seed-day", "180.03"], "strain.2.activation_day"),
        (["sweep", "experiment1", "--param", "strain.1.activation_day", "--values", "nan"],
         "strain.1.activation_day"),
        (["sweep", "experiment1", "--param", "strain.1.seed_exposed", "--values", "nan"],
         "strain.1.seed_exposed"),
        (["sweep", "case_a", "--param", "cost.max_iterations", "--values", "2.7"],
         "cost.max_iterations"),
        (["sweep", "case_a", "--param", "cost.max_iterations", "--values", "inf"],
         "cost.max_iterations"),
        (["simulate", "experiment1", "--dt", "1e-320"], "grid"),
    ])
    def test_bad_override_exits_two_naming_the_key(self, argv, key, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path), "--quiet", "--no-svg"]) == 2
        assert key in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("dt", ["1e-300", "1e-7"])
    def test_grid_beyond_physical_memory_exits_two(
        self, dt, tmp_path, capsys, monkeypatch
    ):
        # Both used to fail mid-run with exit 1, after --out was made: 1e-300
        # on numpy's array dimension limit, 1e-7 allocating 54 GiB.
        resource = pytest.importorskip("resource")
        monkeypatch.setattr(
            resource, "getrlimit", lambda which: (resource.RLIM_INFINITY,) * 2
        )
        monkeypatch.setattr(runner, "_CGROUP_MEMORY_MAX", str(tmp_path / "missing"))
        monkeypatch.setattr(runner, "_CGROUP_V1_LIMIT", str(tmp_path / "missing"))
        cfg = preset_config("experiment1")
        nodes = round((cfg.horizon - cfg.start) / float(dt)) + 1
        need = run_bytes(nodes, SIMULATE_COLUMNS)
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need <= memory:
            pytest.skip(f"this host's {memory} bytes of memory hold a {need}-byte history")
        out = tmp_path / "out"
        argv = ["simulate", "experiment1", "--dt", dt, "--out", str(out), "--quiet"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "grid.dt" in err and f"{need} bytes" in err and f"{memory} bytes" in err
        assert not out.exists()

    def test_optimize_grid_beyond_the_address_space_limit_exits_two(
        self, tmp_path, capsys, monkeypatch
    ):
        # Under ulimit -v 16 MiB, a dt 0.01 case_a solve holds 73 001 nodes of
        # the trajectory, the costates and the Anderson rows.
        resource = pytest.importorskip("resource")
        limit = 16 << 20
        monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, limit))
        need = run_bytes(73_001, OPTIMIZE_COLUMNS)
        out = tmp_path / "out"
        argv = ["optimize", "case_a", "--dt", "0.01", "--out", str(out), "--quiet"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "grid.dt" in err and f"{need} bytes" in err and f"{limit} bytes" in err
        assert "RLIMIT_AS" in err
        assert not out.exists()
        # A simulate run, 8.4 MB, fits: simulate mode passes the run's check.
        cfg = set_config_value(preset_config("experiment1"), "grid.dt", 0.01)
        assert run_bytes(73_001, SIMULATE_COLUMNS) < limit
        runner._check_memory(cfg)

    def test_optimize_grid_beyond_the_cgroup_memory_limit_exits_two(
        self, tmp_path, capsys, monkeypatch
    ):
        # A container's cgroup v2 limit of 8 MiB, below physical memory and
        # with no address-space limit: the dt 0.01 case_a solve of the test
        # above exits 2 naming memory.max.
        resource = pytest.importorskip("resource")
        monkeypatch.setattr(
            resource, "getrlimit", lambda which: (resource.RLIM_INFINITY,) * 2
        )
        limit = 8 << 20
        memory_max = tmp_path / "memory.max"
        memory_max.write_text(f"{limit}\n")
        monkeypatch.setattr(runner, "_CGROUP_MEMORY_MAX", str(memory_max))
        need = run_bytes(73_001, OPTIMIZE_COLUMNS)
        out = tmp_path / "out"
        argv = ["optimize", "case_a", "--dt", "0.01", "--out", str(out), "--quiet"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "grid.dt" in err and f"{need} bytes" in err and f"{limit} bytes" in err
        assert "memory.max" in err
        assert not out.exists()
        # A file that says "max", one that cannot be read and none at all set
        # no limit.
        memory_max.write_text("max\n")
        for path in (memory_max, tmp_path, tmp_path / "missing"):
            monkeypatch.setattr(runner, "_CGROUP_MEMORY_MAX", str(path))
            runner._check_memory(set_config_value(preset_config("case_a"), "grid.dt", 0.01))

    def test_optimize_grid_beyond_the_cgroup_v1_memory_limit_exits_two(
        self, tmp_path, capsys, monkeypatch
    ):
        # The same 8 MiB limit under cgroup v1.  v1 reports no limit as a
        # value near 2^63, which sets no bound, like any value from physical
        # memory up.
        resource = pytest.importorskip("resource")
        monkeypatch.setattr(
            resource, "getrlimit", lambda which: (resource.RLIM_INFINITY,) * 2
        )
        limit = 8 << 20
        limit_file = tmp_path / "memory.limit_in_bytes"
        limit_file.write_text(f"{limit}\n")
        monkeypatch.setattr(runner, "_CGROUP_MEMORY_MAX", str(tmp_path / "missing"))
        monkeypatch.setattr(runner, "_CGROUP_V1_LIMIT", str(limit_file))
        out = tmp_path / "out"
        argv = ["optimize", "case_a", "--dt", "0.01", "--out", str(out), "--quiet"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "grid.dt" in err and f"{limit} bytes" in err
        assert "memory.limit_in_bytes" in err
        assert not out.exists()
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        for unlimited in (9223372036854771712, memory):
            limit_file.write_text(f"{unlimited}\n")
            assert runner._memory_limit() == (memory, "physical memory")

    def test_a_config_reads_no_host_memory_and_the_run_checks_it(
        self, tmp_path, monkeypatch
    ):
        # A config's verdict depends only on its fields: a dt 1e-7 grid builds
        # anywhere, and the run refuses it before making its directory.
        resource = pytest.importorskip("resource")
        limit = 8 << 20
        monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, limit))
        monkeypatch.setattr(runner, "_CGROUP_MEMORY_MAX", str(tmp_path / "missing"))
        monkeypatch.setattr(runner, "_CGROUP_V1_LIMIT", str(tmp_path / "missing"))
        calls = []
        memory_limit = runner._memory_limit
        monkeypatch.setattr(runner, "_memory_limit", lambda: calls.append(1) or memory_limit())
        parse_config_text(preset_text("experiment1"))
        fine = replace(preset_config("experiment1"), dt=1e-7)
        set_config_value(preset_config("case_a"), "grid.dt", 1e-7)
        assert calls == []
        need = run_bytes(fine.grid().n_points, SIMULATE_COLUMNS)
        out = tmp_path / "out"
        message = (
            f"grid.dt=1e-07 needs run arrays of {need} bytes, more than the {limit} "
            f"bytes of the address-space limit (RLIMIT_AS); use a larger grid.dt"
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_scenario(fine, out_dir=str(out), quiet=True)
        assert calls == [1]
        assert not out.exists()

    def test_a_sweep_value_beyond_the_memory_limit_leaves_no_root(
        self, tmp_path, capsys, monkeypatch
    ):
        resource = pytest.importorskip("resource")
        limit = 8 << 20
        monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, limit))
        monkeypatch.setattr(runner, "_CGROUP_MEMORY_MAX", str(tmp_path / "missing"))
        monkeypatch.setattr(runner, "_CGROUP_V1_LIMIT", str(tmp_path / "missing"))
        root = tmp_path / "root"
        argv = ["sweep", "experiment1", "--param", "grid.dt", "--values", "0.05,1e-7",
                "--quiet", "--no-svg", "--out", str(root)]
        assert main(argv) == 2
        assert "grid.dt=1e-07 needs run arrays of" in capsys.readouterr().err
        assert not root.exists()

    @pytest.mark.parametrize("name, n_strains, path", [
        pytest.param(name, n, path, id=f"{name}-{n}{suffix}")
        for path, suffix, runs in [
            (compiled_path, "", [("experiment1", 1), ("experiment3", 2), ("experiment1", 8),
                                 ("case_a", 1), ("case_a", 2)]),
            (python_path, "-python_path", [("experiment1", 1), ("experiment3", 2),
                                           ("experiment1", 8), ("case_a", 3)]),
        ]
        for name, n in runs
    ])
    def test_a_run_peaks_within_its_memory_budget(self, name, n_strains, path, tmp_path):
        # The tracemalloc peak of a run at its preset grid, with the compiled
        # library loaded or, as without cc, with every loop and writer in
        # Python, stays within the bytes its check budgets, and the budget
        # counts less than half again as much.
        text = preset_text(name)
        block = text[text.index("[strain.1]"):text.index("[control]")]
        extra = "".join(block.replace("[strain.1]", f"[strain.{j}]")
                        for j in range(len(parse_config_text(text).strains) + 1, n_strains + 1))
        cfg = parse_config_text(text.replace("[control]", extra + "[control]"))
        assert len(cfg.strains) == n_strains
        if path is python_path and cfg.control_mode == "optimize":
            # Two iterations reach the solve's Anderson step, and its peak
            # with the Python backward sweep's coefficients beside it; at two
            # strains a Python solve to the tolerance takes three times as long.
            cfg = set_config_value(cfg, "cost.max_iterations", 2)
        with path():
            tracemalloc.start()
            try:
                run_scenario(cfg, out_dir=str(tmp_path), quiet=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        need = runner._run_bytes(cfg)[0]
        assert peak <= need < 1.5 * peak

    def test_a_sweep_budgets_every_result_it_keeps(self, tmp_path, capsys, monkeypatch):
        # Three experiment1 runs: the third runs beside the two results the
        # sweep keeps, and its check counts them.
        values = "2.41e-9,2.5e-9,2.6e-9"
        cfg = replace(preset_config("experiment1"), svg=False)
        need, kept = runner._run_bytes(cfg)
        total = need + 2 * kept
        with compiled_path():
            tracemalloc.start()
            try:
                sweep(cfg, "strain.1.beta", [float(v) for v in values.split(",")],
                      out_dir=str(tmp_path / "fits"), quiet=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert need < peak <= total
        monkeypatch.setattr(runner, "_memory_limit", lambda: (total - 1, "a test limit"))
        root = tmp_path / "root"
        argv = ["sweep", "experiment1", "--param", "strain.1.beta", "--values", values,
                "--quiet", "--no-svg", "--out", str(root)]
        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == (
            f"config error: grid.dt=0.05 needs run arrays of {total} bytes, {2 * kept} of them "
            f"for the results and schedules the sweep keeps, more than the {total - 1} bytes "
            f"of a test limit; use a larger grid.dt or fewer values"
        )
        assert not root.exists()
        assert main(argv[:5] + ["2.41e-9,2.5e-9"] + argv[6:]) == 0

    def test_an_optimize_sweep_lets_each_schedule_go(self, tmp_path, monkeypatch):
        # Three case_a solves on 6 001 nodes: each run starts beside the
        # results before it and its own schedule, no earlier one, and the
        # check counts those results, no schedule column with them.
        cfg = replace(preset_config("case_a"), horizon=60.0, dt=0.01, svg=False)
        need, kept = runner._run_bytes(cfg)
        column, objects = cfg.grid().n_points * 8, 34 << 10
        helds, starts = [], []
        check_memory, run = runner._check_memory, runner._run
        monkeypatch.setattr(runner, "_check_memory",
                            lambda c, held=0: helds.append(held) or check_memory(c, held))
        monkeypatch.setattr(runner, "_run", lambda *args: starts.append(
            tracemalloc.get_traced_memory()[0]) or run(*args))
        with compiled_path():
            tracemalloc.start()
            try:
                sweep(cfg, "cost.c2_log_scale", [1.0, 0.9, 0.8],
                      out_dir=str(tmp_path), quiet=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # A result keeps the trajectory's 6 columns and the 5 costates.
        assert kept == 11 * column + objects and helds == [0, kept, 2 * kept]
        for i, start in enumerate(starts):
            assert start <= i * kept + column + objects
        assert peak <= need + 2 * kept

    def test_a_schedule_mode_sweep_counts_the_files_it_has_read(self, tmp_path, monkeypatch):
        # Beside run i the sweep holds the files read for the values after it.
        sched = tmp_path / "sched.csv"
        sched.write_text("t,u\n" + "".join(f"{k * 0.1!r},0.25\n" for k in range(301)))
        cfg = replace(parse_config_text(SHORT_SIM, base_dir=str(tmp_path)), svg=False,
                      control_mode="schedule", schedule_file="sched.csv")
        kept, column = runner._run_bytes(cfg)[1], 301 * 8
        helds = []
        check_memory = runner._check_memory
        monkeypatch.setattr(runner, "_check_memory",
                            lambda c, held=0: helds.append(held) or check_memory(c, held))
        sweep(cfg, "strain.1.beta", [5.2e-7, 6e-7, 8.84e-7],
              out_dir=str(tmp_path / "sw"), quiet=True)
        assert helds == [2 * column, kept + column, 2 * kept]

    def test_a_host_without_sysconf_still_loads_configs(self, monkeypatch):
        monkeypatch.delattr(os, "sysconf")
        cfg = preset_config("experiment1")
        assert cfg.grid().n_steps == 14600
        runner._check_memory(cfg)
        assert runner._schedule(cfg).u.shape == (14601,)

    @pytest.mark.parametrize("argv", [
        ["simulate", "experiment1", "--dt", "0.3", "--horizon", "9"],
        ["simulate", "experiment2", "--dt", "0.7", "--horizon", "14", "--seed-day", "7"],
    ])
    def test_overrides_are_validated_together(self, argv, tmp_path):
        # The new dt divides only the new horizon and seed day, so checking
        # the config after each flag would reject these.
        assert main(argv + ["--out", str(tmp_path), "--quiet", "--no-svg"]) == 0

    def test_flag_mends_a_step_the_file_gets_wrong(self, tmp_path, capsys):
        # beta P0 = 2/day allows steps up to 1.27 days; a 3-day step passed
        # the bound of the linearisation at the infection-free state (4.4
        # days) and then left the admissible region at step 14 (exit 4).
        text = (
            preset_text("experiment1").replace("beta = 2.41e-09", "beta = 9.2166e-09")
            .replace("horizon = 730", "horizon = 60").replace("dt = 0.05", "dt = 3")
        )
        path = tmp_path / "fast.ini"
        path.write_text(text)
        argv = ["simulate", str(path), "--out", str(tmp_path / "out"), "--quiet", "--no-svg"]
        assert main(argv) == 2
        assert "grid.dt must be at most 1.269" in capsys.readouterr().err
        assert main(argv + ["--dt", "1.2"]) == 0

    def test_directory_as_config_exits_two(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path), "--quiet"]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_undecodable_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xff\xfe" + SHORT_SIM.encode("utf-8"))
        assert main(["simulate", str(path), "--quiet"]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("argv, out", [
        (["simulate", "experiment1", "--dt", "0.5", "--horizon", "10"], "file"),
        (["sweep", "experiment1", "--dt", "0.5", "--horizon", "10",
          "--param", "strain.1.beta", "--values", "3e-9"], "file/sub"),
    ])
    def test_unusable_output_directory_exits_two(self, argv, out, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        path = str(tmp_path / out)
        assert main(argv + ["--out", path, "--quiet", "--no-svg"]) == 2
        assert path in capsys.readouterr().err

    def test_presets_write_to_a_directory_exits_two(self, tmp_path, capsys):
        assert main(["presets", "write", "experiment1", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_a_sweep_run_that_does_not_converge_exits_three(self, tmp_path, capsys):
        argv = ["sweep", "case_a", "--param", "cost.max_iterations", "--values", "1",
                "--horizon", "60", "--out", str(tmp_path), "--quiet", "--no-svg"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "at least one sweep run did not converge\n"

    def test_sweep_values_that_are_not_numbers_exit_two(self, tmp_path, capsys):
        argv = ["sweep", "experiment1", "--param", "strain.1.beta", "--values", "a,b",
                "--out", str(tmp_path), "--quiet"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: --values ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("error, code, prefix", [
        (SolverError, 3, "solver error: "),
        (IntegrationError, 4, "integration error: "),
    ])
    def test_a_run_error_exits_with_its_code(self, error, code, prefix, monkeypatch, capsys):
        def run(config, out_dir=None, quiet=False):
            raise error("raised by the run")

        monkeypatch.setattr(cli, "run_scenario", run)
        assert main(["simulate", "experiment1", "--quiet"]) == code
        assert capsys.readouterr().err == f"{prefix}raised by the run\n"

    @pytest.mark.parametrize("raw, svg", [("false", False), ("true", True)])
    def test_svg_key_reads_as_a_bool(self, raw, svg):
        assert parse_config_text(SHORT_SIM + f"\n[output]\nsvg = {raw}\n").svg is svg

    def test_svg_key_that_is_not_a_bool_is_rejected(self):
        with pytest.raises(ConfigError, match=r"^output\.svg: not a boolean: 'maybe'$"):
            parse_config_text(SHORT_SIM + "\n[output]\nsvg = maybe\n")


class TestCostSweep:
    def test_cheaper_mitigation_raises_the_schedule(self, tmp_path):
        cfg = replace(parse_config_text(SHORT_OPT), svg=False)
        results = sweep(cfg, "cost.c2_log_scale", [1.0, 0.8],
                        out_dir=str(tmp_path), quiet=True)
        assert all(r.report is not None and r.report.converged for r in results)
        mean_costly = results[0].trajectory.u.mean()
        mean_cheap = results[1].trajectory.u.mean()
        assert mean_cheap > mean_costly


class TestReferenceIntegrator:
    def test_experiment1_terminal_state_matches_dop853(self):
        """RK4 on the preset grid agrees with an independent adaptive solver.

        The terminal R share of about 0.692 is then a property of the model,
        not of the fixed-step integrator.
        """
        integrate = pytest.importorskip("scipy.integrate")
        cfg = preset_config("experiment1")
        params = cfg.strain_params()
        p0 = cfg.population
        seed = cfg.strains[0]
        seeded = seed.seed_exposed + seed.seed_infected + seed.seed_removed
        x0 = [p0, p0 - seeded, seed.seed_exposed, seed.seed_infected, seed.seed_removed]

        def rhs(_t, y):
            dP, dS, dE, dI, dR = full_system_rhs(
                y[0], y[1:2], y[2:3], y[3:4], y[4:5], params, 0.0
            )
            return np.concatenate(([dP], dS, dE, dI, dR))

        grid = cfg.grid()
        ref = integrate.solve_ivp(
            rhs, (grid.t0, grid.T), x0, method="DOP853", rtol=1e-12, atol=1e-12 * p0
        )
        assert ref.success, ref.message

        traj = simulate(
            cfg.initial_state(), params, ControlSchedule.constant(grid, 0.0),
            cfg.seed_events(), grid,
        )
        rk4 = np.array([
            traj.P[-1], traj.susceptible_matrix()[-1, 0],
            traj.E[-1, 0], traj.I[-1, 0], traj.R[-1, 0],
        ])
        assert np.abs(ref.y[:, -1] - rk4).max() / p0 < 1e-10
        assert ref.y[4, -1] / p0 > 0.65

    def test_experiment3_terminal_state_matches_dop853(self):
        """RK4 agrees with an adaptive solver across the day-180 seeding.

        The reference is piecewise, split at the seed days.  It carries every
        susceptible pool as a coordinate of its own, so an unseeded strain's
        pool tracks ``P``; on its seed day the seed is moved out of it.
        """
        integrate = pytest.importorskip("scipy.integrate")
        cfg = preset_config("experiment3")
        params = cfg.strain_params()
        n = len(params)
        p0 = cfg.population
        grid = cfg.grid()
        # Layout [P, S_1..n, E_1..n, I_1..n, R_1..n]; x[1 + n + j :: n] is
        # strain j's E, I and R.
        x = np.concatenate(([p0], np.full(n, p0), np.zeros(3 * n)))

        def rhs(_t, y):
            dP, dS, dE, dI, dR = full_system_rhs(y[0], *np.split(y[1:], 4), params, 0.0)
            return np.concatenate(([dP], dS, dE, dI, dR))

        t = grid.t0
        for stop in sorted({s.activation_day for s in cfg.strains} | {grid.T}):
            if stop > t:
                ref = integrate.solve_ivp(
                    rhs, (t, stop), x, method="DOP853", rtol=1e-12, atol=1e-12 * p0
                )
                assert ref.success, ref.message
                x, t = ref.y[:, -1].copy(), stop
            for j, s in enumerate(cfg.strains):
                if s.activation_day == t:
                    seed = np.array([s.seed_exposed, s.seed_infected, s.seed_removed])
                    x[1 + j] -= seed.sum()
                    x[1 + n + j :: n] += seed

        traj = simulate(
            cfg.initial_state(), params, ControlSchedule.constant(grid, 0.0),
            cfg.seed_events(), grid,
        )
        rk4 = np.concatenate((
            [traj.P[-1]], traj.susceptible_matrix()[-1], traj.E[-1], traj.I[-1], traj.R[-1],
        ))
        assert np.abs(x - rk4).max() / p0 < 1e-10
