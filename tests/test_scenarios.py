import csv
import hashlib
import math
import os
import re
import tempfile
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistrain import (
    ConfigError,
    ControlSchedule,
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
from multistrain import config
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
        with pytest.raises(ConfigError, match=r"strain\.2\.activation_day.*grid\.horizon"):
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
        cfg = parse_config_text(SHORT_SIM)
        setattr(cfg, _SCHEMA["cost", key][0], value)
        with pytest.raises(ConfigError, match=message):
            cfg.validate()

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
        cfg = parse_config_text(direct)
        cfg.c2_population = 1000.0
        with pytest.raises(ConfigError, match=message):
            cfg.validate()

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_svg_must_be_a_bool(self, value, tmp_path):
        cfg = preset_config("experiment1")
        cfg.svg = value
        with pytest.raises(ConfigError, match=r"^output\.svg must be true or false"):
            cfg.validate()
        with pytest.raises(ConfigError, match=r"^output\.svg"):
            run_scenario(cfg, out_dir=str(tmp_path / "run"), quiet=True)
        assert not (tmp_path / "run").exists()

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

    def test_fractional_max_iterations_from_library_code_is_rejected(self):
        cfg = preset_config("case_a")
        cfg.max_iterations = 2.5
        with pytest.raises(ConfigError, match=r"^cost: max_iter"):
            cfg.validate()


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
        cfg = parse_config_text(SHORT_SIM)
        cfg.svg = False
        result = run_scenario(cfg, out_dir=str(tmp_path), quiet=True)
        back = read_trajectory_csv(os.path.join(str(tmp_path), "trajectory.csv"))
        assert np.array_equal(back.P, result.trajectory.P)
        assert np.array_equal(back.E, result.trajectory.E)
        assert np.array_equal(back.I, result.trajectory.I)
        assert np.array_equal(back.R, result.trajectory.R)
        assert np.array_equal(back.u, result.trajectory.u)

    @pytest.mark.parametrize("text, fragment", [
        ("", "not a trajectory file"),
        ("t,P,S_1,E_1,I_1,R_1,u\n", "at least two rows"),
        ("t,P,S_1,E_1,I_1,R_1,u\n0,1,1,0,0,0,0\n0.1,1,1,zero,0,0,0\n", "row 2"),
        ("t,P,S_1,E_1,I_1,R_1,u\n0,1,1,0,0,0,0\n0.1,1,1,0,0\n", "row 2"),
        (
            "t,P,S_1,E_1,I_1,R_1,u\n0,1,1,0,0,0,0\n0.1,1,1,0,0,0,0\n"
            "0.5,1,1,0,0,0,0\n",
            "row 3 time 0.5 is off the grid",
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
        cfg = parse_config_text(SHORT_OPT)
        cfg.max_iterations = 40
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
        cfg = parse_config_text(text)
        cfg.svg = False
        result = run_scenario(cfg, out_dir=str(tmp_path), quiet=True)
        assert np.all(result.trajectory.u == 0.4)

    def test_schedule_mode_reads_file(self, tmp_path):
        sched = tmp_path / "sched.csv"
        cfg = parse_config_text(
            SHORT_SIM.replace("mode = none", "mode = schedule\nfile = sched.csv"),
        )
        cfg.base_dir = str(tmp_path)
        cfg.svg = False
        grid = cfg.grid()
        times = grid.times()
        lines = ["t,u"] + [f"{float(t)!r},0.25" for t in times]
        sched.write_text("\n".join(lines) + "\n")
        result = run_scenario(cfg, out_dir=str(tmp_path / "out"), quiet=True)
        assert np.all(result.trajectory.u == 0.25)

    def test_optimize_attaches_report(self, tmp_path):
        cfg = parse_config_text(SHORT_OPT)
        cfg.svg = False
        result = run_scenario(cfg, out_dir=str(tmp_path), quiet=True)
        assert result.report is not None
        assert result.report.converged
        assert np.array_equal(result.trajectory.u, result.report.schedule.u)
        line = format_report(result.report).splitlines()[0]
        assert re.search(r"\(started by \d+ coarse iteration\(s\) at dt 2\)", line)


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


class TestSweep:
    def test_single_value_sweep_matches_run_scenario(self, tmp_path):
        cfg = parse_config_text(SHORT_SIM)
        cfg.svg = False
        single = run_scenario(cfg, out_dir=str(tmp_path / "direct"), quiet=True)
        results = sweep(cfg, "strain.1.beta", [5.2e-7],
                        out_dir=str(tmp_path / "swept"), quiet=True)
        assert len(results) == 1
        assert np.array_equal(results[0].trajectory.P, single.trajectory.P)
        assert (tmp_path / "swept" / "sweep_summary.csv").exists()

    def test_two_value_sweep_writes_combined_summary(self, tmp_path):
        cfg = parse_config_text(SHORT_SIM)
        cfg.svg = False
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
        cfg = parse_config_text(SHORT_SIM)
        cfg.svg = False
        sweep(cfg, " Strain.1.BETA ", [5.2e-7], out_dir=str(tmp_path), quiet=True)
        assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == [
            "shortrun__strain_1_beta_5.2em07",
        ]
        with open(tmp_path / "sweep_summary.csv", newline="") as fh:
            assert {row["param"] for row in csv.DictReader(fh)} == {"strain.1.beta"}

    def test_values_sharing_a_run_directory_are_rejected_before_any_run(self, tmp_path):
        cfg = parse_config_text(SHORT_SIM)
        cfg.svg = False
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
        monkeypatch.setattr(config, "_CGROUP_MEMORY_MAX", str(tmp_path / "missing"))
        monkeypatch.setattr(config, "_CGROUP_V1_LIMIT", str(tmp_path / "missing"))
        cfg = preset_config("experiment1")
        nodes = round((cfg.horizon - cfg.start) / float(dt)) + 1
        need = nodes * (4 * len(cfg.strains) + 3) * 8
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
        # Under ulimit -v 8 MiB, a dt 0.01 case_a solve holds 73 001 nodes of
        # the trajectory, the costates and the Anderson rows.
        resource = pytest.importorskip("resource")
        limit = 8 << 20
        monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, limit))
        nodes = 73_001
        need = nodes * ((4 + 3) + (4 + 1) + 2 * ANDERSON_DEPTH) * 8
        out = tmp_path / "out"
        argv = ["optimize", "case_a", "--dt", "0.01", "--out", str(out), "--quiet"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "grid.dt" in err and f"{need} bytes" in err and f"{limit} bytes" in err
        assert "RLIMIT_AS" in err
        assert not out.exists()
        # The trajectory alone, 4.1 MB, fits: simulate mode loads the grid.
        cfg = set_config_value(preset_config("experiment1"), "grid.dt", 0.01)
        assert cfg.grid().n_points * (4 + 3) * 8 < limit
        cfg.validate()

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
        monkeypatch.setattr(config, "_CGROUP_MEMORY_MAX", str(memory_max))
        need = 73_001 * ((4 + 3) + (4 + 1) + 2 * ANDERSON_DEPTH) * 8
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
            monkeypatch.setattr(config, "_CGROUP_MEMORY_MAX", str(path))
            set_config_value(preset_config("case_a"), "grid.dt", 0.01).validate()

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
        monkeypatch.setattr(config, "_CGROUP_MEMORY_MAX", str(tmp_path / "missing"))
        monkeypatch.setattr(config, "_CGROUP_V1_LIMIT", str(limit_file))
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
            assert config._memory_limit() == (memory, "physical memory")

    def test_a_host_without_sysconf_still_loads_configs(self, monkeypatch):
        monkeypatch.delattr(os, "sysconf")
        assert preset_config("experiment1").grid().n_steps == 14600

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


class TestCostSweep:
    def test_cheaper_mitigation_raises_the_schedule(self, tmp_path):
        cfg = parse_config_text(SHORT_OPT)
        cfg.svg = False
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
