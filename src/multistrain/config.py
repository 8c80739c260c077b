"""Scenario configuration: file schema, validation and built-in presets.

Configs are INI-style key/value files with nested sections.  The schema is
strict: unknown sections or keys are errors, as are missing required fields.

    [scenario]            optional
    name                  run label, used for default output paths

    [grid]                required
    start                 first day, >= 0 (default 0)
    horizon               last day, must exceed start
    dt                    step in days; must divide horizon-start and every
                          strain activation day offset, and keep RK4 stable:
                          dt * |lambda_min| <= 2.78 at the infection-free
                          state with S = population and u = 0

    [initial]             required
    population            total population P at the start

    [strain.1] .. [strain.n]   one section per strain, numbered from 1
    beta, sigma, gamma, delta, mu     per-strain rates
    activation_day        day the strain is seeded (default: start)
    seed_exposed, seed_infected, seed_removed
                          mass moved from susceptibles into the strain's
                          compartments on its activation day (default 0)

    [control]             required
    mode                  none | constant | schedule | optimize
    value                 constant mode only, in [0, 1]
    file                  schedule mode only: CSV with columns t,u matching
                          the grid (path relative to the config file)

    [cost]                optimize mode only
    c1                    population weight (> 0)
    c2 | c2_log_scale     exponential control-cost weight; give c2 directly
                          or as scale * ln(reference population)
    c2_population         reference population for c2_log_scale
                          (default: initial population)
    relaxation            Anderson mixing weight in (0, 1] (default 0.5)
    tolerance             fixed-point residual stopping tolerance (default 1e-6)
    max_iterations        sweep iteration cap (default 500)
    u_init                initial schedule value in [0, 1] (default 0)

    [output]              optional
    directory             artifact directory (default out/<name>)
    svg                   write charts, true/false (default true)
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, replace

from .control import CostParams
from .dynamics import EpidemicState, StrainParams, max_stable_dt
from .errors import ConfigError
from .integrate import SeedEvent, TimeGrid

CONTROL_MODES = ("none", "constant", "schedule", "optimize")

_KNOWN_KEYS = {
    "scenario": {"name"},
    "grid": {"start", "horizon", "dt"},
    "initial": {"population"},
    "strain": {
        "beta", "sigma", "gamma", "delta", "mu", "activation_day",
        "seed_exposed", "seed_infected", "seed_removed",
    },
    "control": {"mode", "value", "file"},
    "cost": {
        "c1", "c2", "c2_log_scale", "c2_population",
        "relaxation", "tolerance", "max_iterations", "u_init",
    },
    "output": {"directory", "svg"},
}


@dataclass
class StrainSpec:
    """Strain parameters plus the seed applied on its activation day."""

    beta: float
    sigma: float
    gamma: float
    delta: float
    mu: float
    activation_day: float = 0.0
    seed_exposed: float = 0.0
    seed_infected: float = 0.0
    seed_removed: float = 0.0

    def params(self) -> StrainParams:
        return StrainParams(
            beta=self.beta, sigma=self.sigma, gamma=self.gamma,
            delta=self.delta, mu=self.mu, activation_time=self.activation_day,
        )

    def seed_event(self, strain_index: int) -> SeedEvent | None:
        if self.seed_exposed == 0 and self.seed_infected == 0 and self.seed_removed == 0:
            return None
        return SeedEvent(
            time=self.activation_day, strain=strain_index,
            exposed=self.seed_exposed, infected=self.seed_infected,
            removed=self.seed_removed,
        )


@dataclass
class ScenarioConfig:
    """Fully parsed scenario; see the module docstring for field meanings."""

    name: str
    start: float
    horizon: float
    dt: float
    population: float
    strains: list[StrainSpec] = field(default_factory=list)
    control_mode: str = "none"
    control_value: float | None = None
    schedule_file: str | None = None
    c1: float | None = None
    c2: float | None = None
    c2_log_scale: float | None = None
    c2_population: float | None = None
    relaxation: float = 0.5
    tolerance: float = 1e-6
    max_iterations: int = 500
    u_init: float = 0.0
    output_dir: str | None = None
    svg: bool = True
    base_dir: str = "."

    def validate(self) -> None:
        if not self.strains:
            raise ConfigError("at least one [strain.N] section is required")
        if not self.dt > 0:
            raise ConfigError(f"grid.dt must be > 0, got {self.dt!r}")
        if not self.start >= 0:
            raise ConfigError(f"grid.start must be >= 0, got {self.start!r}")
        if not self.horizon > self.start:
            raise ConfigError("grid.horizon must lie after grid.start")
        if not self.population > 0:
            raise ConfigError("initial.population must be > 0")
        span = self.horizon - self.start
        if _off_grid(span, self.dt):
            raise ConfigError(
                f"grid.dt={self.dt!r} does not divide the horizon span {span!r}"
            )
        for idx, s in enumerate(self.strains, start=1):
            for fname in ("beta", "sigma", "gamma", "delta"):
                if not getattr(s, fname) > 0:
                    raise ConfigError(f"strain.{idx}.{fname} must be > 0")
            if s.mu < 0:
                raise ConfigError(f"strain.{idx}.mu must be >= 0")
            for fname in ("seed_exposed", "seed_infected", "seed_removed"):
                if getattr(s, fname) < 0:
                    raise ConfigError(f"strain.{idx}.{fname} must be >= 0")
            if s.activation_day < self.start:
                raise ConfigError(
                    f"strain.{idx}.activation_day lies before grid.start"
                )
            if _off_grid(s.activation_day - self.start, self.dt):
                raise ConfigError(
                    f"grid.dt={self.dt!r} does not divide "
                    f"strain.{idx}.activation_day offset"
                )
        self._check_step_stability()
        if self.control_mode not in CONTROL_MODES:
            raise ConfigError(
                f"control.mode must be one of {', '.join(CONTROL_MODES)}; "
                f"got {self.control_mode!r}"
            )
        if self.control_mode == "constant":
            if self.control_value is None:
                raise ConfigError("control.value is required for constant mode")
            if not 0.0 <= self.control_value <= 1.0:
                raise ConfigError("control.value must lie in [0, 1]")
        elif self.control_value is not None:
            raise ConfigError("control.value only applies to constant mode")
        if self.control_mode == "schedule":
            if not self.schedule_file:
                raise ConfigError("control.file is required for schedule mode")
        elif self.schedule_file is not None:
            raise ConfigError("control.file only applies to schedule mode")
        if self.control_mode == "optimize":
            if self.c1 is None:
                raise ConfigError("cost.c1 is required for optimize mode")
            if (self.c2 is None) == (self.c2_log_scale is None):
                raise ConfigError(
                    "optimize mode needs exactly one of cost.c2 and cost.c2_log_scale"
                )
            if not self.c1 > 0:
                raise ConfigError("cost.c1 must be > 0")
            if self.c2 is not None and not self.c2 > 0:
                raise ConfigError("cost.c2 must be > 0")
            if self.c2_log_scale is not None and not self.c2_log_scale > 0:
                raise ConfigError("cost.c2_log_scale must be > 0")
            if self.c2_population is not None and not self.c2_population > 1:
                raise ConfigError("cost.c2_population must be > 1")
            if not 0.0 < self.relaxation <= 1.0:
                raise ConfigError("cost.relaxation must lie in (0, 1]")
            if not self.tolerance > 0:
                raise ConfigError("cost.tolerance must be > 0")
            if self.max_iterations < 1:
                raise ConfigError("cost.max_iterations must be >= 1")
            if not 0.0 <= self.u_init <= 1.0:
                raise ConfigError("cost.u_init must lie in [0, 1]")
        elif any(
            v is not None for v in (self.c1, self.c2, self.c2_log_scale, self.c2_population)
        ):
            raise ConfigError("the [cost] section only applies to optimize mode")

    def _check_step_stability(self) -> None:
        """Reject a ``dt`` that RK4 cannot integrate stably (see
        :func:`~multistrain.dynamics.max_stable_dt`)."""
        safe = max_stable_dt(self.strain_params(), self.population)
        if self.dt > safe:
            raise ConfigError(
                f"grid.dt={self.dt!r} makes RK4 unstable on the fastest decaying "
                f"mode: grid.dt must be at most {safe:.4g}"
            )

    # Derived build helpers

    def grid(self) -> TimeGrid:
        return TimeGrid.from_horizon(self.start, self.horizon, self.dt)

    def strain_params(self) -> list[StrainParams]:
        return [s.params() for s in self.strains]

    def seed_events(self) -> list[SeedEvent]:
        events = []
        for j, s in enumerate(self.strains):
            ev = s.seed_event(j)
            if ev is not None:
                events.append(ev)
        return events

    def initial_state(self) -> EpidemicState:
        n = len(self.strains)
        return EpidemicState(
            t=self.start, P=self.population,
            E=[0.0] * n, I=[0.0] * n, R=[0.0] * n,
        )

    def cost_params(self) -> CostParams:
        if self.control_mode != "optimize":
            raise ConfigError("cost parameters are only defined for optimize mode")
        if self.c2 is not None:
            c2 = self.c2
        else:
            ref = self.c2_population if self.c2_population is not None else self.population
            c2 = self.c2_log_scale * math.log(ref)
        return CostParams(c1=self.c1, c2=c2)

    def resolve_path(self, name: str) -> str:
        return os.path.normpath(os.path.join(self.base_dir, name))


def _off_grid(offset: float, dt: float) -> bool:
    steps = round(offset / dt)
    return abs(steps * dt - offset) > 1e-9 * max(1.0, abs(offset))


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: value must be finite, got {raw!r}")
    return value


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: not an integer: {raw!r}") from exc


def _parse_bool(section: str, key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{section}.{key}: not a boolean: {raw!r}")


def _strain_index(section: str) -> int | None:
    if not section.startswith("strain."):
        return None
    suffix = section[len("strain.") :]
    if not suffix.isdigit() or int(suffix) < 1:
        raise ConfigError(f"strain sections are numbered from 1; got [{section}]")
    return int(suffix)


def parse_config_text(text: str, source: str = "<string>", base_dir: str = ".") -> ScenarioConfig:
    """Parse and validate configuration text; raises ConfigError on any flaw."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"), delimiters=("=",)
    )
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {source}: {exc}") from exc
    if not parser.sections():
        raise ConfigError(f"{source}: configuration is empty")

    strains: dict[int, StrainSpec] = {}
    known_plain = {k for k in _KNOWN_KEYS if k != "strain"}
    for section in parser.sections():
        idx = _strain_index(section)
        if idx is None and section not in known_plain:
            raise ConfigError(f"unknown section [{section}]")
        allowed = _KNOWN_KEYS["strain"] if idx is not None else _KNOWN_KEYS[section]
        for key in parser.options(section):
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    for required in ("grid", "initial", "control"):
        if required not in parser:
            raise ConfigError(f"missing required section [{required}]")

    def get(section, key, default=None):
        if section in parser and key in parser[section]:
            return parser[section][key]
        return default

    for key in ("horizon", "dt"):
        if get("grid", key) is None:
            raise ConfigError(f"grid.{key} is required")
    if get("initial", "population") is None:
        raise ConfigError("initial.population is required")
    if get("control", "mode") is None:
        raise ConfigError("control.mode is required")

    indices = sorted(
        _strain_index(s) for s in parser.sections() if s.startswith("strain.")
    )
    if indices != list(range(1, len(indices) + 1)):
        raise ConfigError("strain sections must be numbered 1..n without gaps")

    start = _parse_float("grid", "start", get("grid", "start", "0"))
    for idx in indices:
        section = f"strain.{idx}"
        sec = parser[section]
        for key in ("beta", "sigma", "gamma", "delta", "mu"):
            if key not in sec:
                raise ConfigError(f"{section}.{key} is required")
        strains[idx] = StrainSpec(
            beta=_parse_float(section, "beta", sec["beta"]),
            sigma=_parse_float(section, "sigma", sec["sigma"]),
            gamma=_parse_float(section, "gamma", sec["gamma"]),
            delta=_parse_float(section, "delta", sec["delta"]),
            mu=_parse_float(section, "mu", sec["mu"]),
            activation_day=_parse_float(
                section, "activation_day", sec.get("activation_day", repr(start))
            ),
            seed_exposed=_parse_float(
                section, "seed_exposed", sec.get("seed_exposed", "0")
            ),
            seed_infected=_parse_float(
                section, "seed_infected", sec.get("seed_infected", "0")
            ),
            seed_removed=_parse_float(
                section, "seed_removed", sec.get("seed_removed", "0")
            ),
        )

    raw_value = get("control", "value")
    raw_c1 = get("cost", "c1")
    raw_c2 = get("cost", "c2")
    raw_scale = get("cost", "c2_log_scale")
    raw_ref = get("cost", "c2_population")
    config = ScenarioConfig(
        name=get("scenario", "name", "scenario"),
        start=start,
        horizon=_parse_float("grid", "horizon", get("grid", "horizon")),
        dt=_parse_float("grid", "dt", get("grid", "dt")),
        population=_parse_float("initial", "population", get("initial", "population")),
        strains=[strains[i] for i in indices],
        control_mode=get("control", "mode").strip().lower(),
        control_value=(
            None if raw_value is None else _parse_float("control", "value", raw_value)
        ),
        schedule_file=get("control", "file"),
        c1=None if raw_c1 is None else _parse_float("cost", "c1", raw_c1),
        c2=None if raw_c2 is None else _parse_float("cost", "c2", raw_c2),
        c2_log_scale=(
            None if raw_scale is None else _parse_float("cost", "c2_log_scale", raw_scale)
        ),
        c2_population=(
            None if raw_ref is None else _parse_float("cost", "c2_population", raw_ref)
        ),
        relaxation=_parse_float("cost", "relaxation", get("cost", "relaxation", "0.5")),
        tolerance=_parse_float("cost", "tolerance", get("cost", "tolerance", "1e-6")),
        max_iterations=_parse_int(
            "cost", "max_iterations", get("cost", "max_iterations", "500")
        ),
        u_init=_parse_float("cost", "u_init", get("cost", "u_init", "0")),
        output_dir=get("output", "directory"),
        svg=_parse_bool("output", "svg", get("output", "svg", "true")),
        base_dir=base_dir,
    )
    config.validate()
    return config


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario file."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, source=path, base_dir=os.path.dirname(path) or ".")


# Built-in presets.  The texts below are the single source: the library parses
# the same bytes that `presets write` puts on disk.

_TABLE_STRAIN = """beta = 2.41e-09
sigma = 0.14285714285714285
gamma = 0.047619047619047616
delta = 0.011111111111111112
mu = 1.152e-05
"""

_EXPERIMENT1 = f"""# Single-strain two-year run without mitigation.
# Some summaries of this scenario list a control value of 1.0; the scenario
# itself is the uncontrolled baseline, so control mode none (u = 0) is used.

[scenario]
name = experiment1

[grid]
start = 0
horizon = 730
dt = 0.05

[initial]
# Total population: susceptible pool of 217e6 plus the day-0 seed of 255.
population = 217000255

[strain.1]
{_TABLE_STRAIN}activation_day = 0
seed_exposed = 252
seed_infected = 2
seed_removed = 1

[control]
mode = none
"""

_EXPERIMENT2 = f"""# Two identical strains; the second is seeded 180 days after the first
# and starts from a mirrored seed drawn out of the susceptible pool.

[scenario]
name = experiment2

[grid]
start = 0
horizon = 730
dt = 0.05

[initial]
population = 217000255

[strain.1]
{_TABLE_STRAIN}activation_day = 0
seed_exposed = 252
seed_infected = 2
seed_removed = 1

[strain.2]
{_TABLE_STRAIN}activation_day = 180
seed_exposed = 252
seed_infected = 2
seed_removed = 1

[control]
mode = none
"""

_EXPERIMENT3 = f"""# Like experiment2, but the late strain transmits 1.7x faster.

[scenario]
name = experiment3

[grid]
start = 0
horizon = 730
dt = 0.05

[initial]
population = 217000255

[strain.1]
{_TABLE_STRAIN}activation_day = 0
seed_exposed = 252
seed_infected = 2
seed_removed = 1

[strain.2]
beta = 4.097e-09
sigma = 0.14285714285714285
gamma = 0.047619047619047616
delta = 0.011111111111111112
mu = 1.152e-05
activation_day = 180
seed_exposed = 252
seed_infected = 2
seed_removed = 1

[control]
mode = none
"""


def _case_text(letter: str, scale: float) -> str:
    return f"""# Optimal mitigation, case {letter.upper()}: exponential control cost with
# c2 = {scale} * ln(P0).  Lower scales make mitigation cheaper, so the solved
# schedule sits higher.  c2_population defaults to the initial population;
# set it to 217000000 to reference the susceptible pool instead.

[scenario]
name = case_{letter}

[grid]
start = 0
horizon = 730
dt = 0.1

[initial]
population = 217000255

[strain.1]
{_TABLE_STRAIN}activation_day = 0
seed_exposed = 252
seed_infected = 2
seed_removed = 1

[control]
mode = optimize

[cost]
c1 = 1
c2_log_scale = {scale}
relaxation = 0.5
tolerance = 1e-06
max_iterations = 500
u_init = 0
"""


PRESET_TEXTS: dict[str, str] = {
    "experiment1": _EXPERIMENT1,
    "experiment2": _EXPERIMENT2,
    "experiment3": _EXPERIMENT3,
    "case_a": _case_text("a", 1.0),
    "case_b": _case_text("b", 0.9),
    "case_c": _case_text("c", 0.8),
    "case_d": _case_text("d", 0.7),
    "case_e": _case_text("e", 0.6),
    "case_f": _case_text("f", 0.5),
}

PRESET_SUMMARIES: dict[str, str] = {
    "experiment1": "single strain, no mitigation, 730 d",
    "experiment2": "two identical strains, second seeded at day 180",
    "experiment3": "second strain 70% more transmissible, seeded at day 180",
    "case_a": "optimal mitigation, c2 = 1.0 ln(P0)",
    "case_b": "optimal mitigation, c2 = 0.9 ln(P0)",
    "case_c": "optimal mitigation, c2 = 0.8 ln(P0)",
    "case_d": "optimal mitigation, c2 = 0.7 ln(P0)",
    "case_e": "optimal mitigation, c2 = 0.6 ln(P0)",
    "case_f": "optimal mitigation, c2 = 0.5 ln(P0)",
}


def preset_names() -> list[str]:
    return list(PRESET_TEXTS)


def preset_text(name: str) -> str:
    key = name.strip().lower()
    if key not in PRESET_TEXTS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_TEXTS)}"
        )
    return PRESET_TEXTS[key]


def preset_config(name: str) -> ScenarioConfig:
    key = name.strip().lower()
    return parse_config_text(preset_text(key), source=f"<preset {key}>")


def write_preset(name: str, path: str) -> None:
    text = preset_text(name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def resolve_config(name_or_path: str) -> ScenarioConfig:
    """Interpret the argument as a preset name first, then as a file path."""
    key = name_or_path.strip().lower()
    if key in PRESET_TEXTS and not os.path.exists(name_or_path):
        return preset_config(key)
    return load_config(name_or_path)


def set_config_value(config: ScenarioConfig, param_path: str, value: float) -> ScenarioConfig:
    """Return a copy of the config with one numeric field replaced.

    Paths use the section.key notation of the config file, e.g. ``grid.dt``,
    ``cost.c2_log_scale`` or ``strain.2.beta``.
    """
    parts = param_path.strip().lower().split(".")
    out = replace(config, strains=[replace(s) for s in config.strains])
    simple = {
        ("grid", "start"): "start",
        ("grid", "horizon"): "horizon",
        ("grid", "dt"): "dt",
        ("initial", "population"): "population",
        ("control", "value"): "control_value",
        ("cost", "c1"): "c1",
        ("cost", "c2"): "c2",
        ("cost", "c2_log_scale"): "c2_log_scale",
        ("cost", "c2_population"): "c2_population",
        ("cost", "relaxation"): "relaxation",
        ("cost", "tolerance"): "tolerance",
        ("cost", "u_init"): "u_init",
    }
    if len(parts) == 2 and tuple(parts) in simple:
        setattr(out, simple[tuple(parts)], float(value))
    elif len(parts) == 2 and tuple(parts) == ("cost", "max_iterations"):
        out.max_iterations = int(value)
    elif len(parts) == 3 and parts[0] == "strain":
        if not parts[1].isdigit() or not 1 <= int(parts[1]) <= len(out.strains):
            raise ConfigError(f"no such strain in parameter path {param_path!r}")
        spec = out.strains[int(parts[1]) - 1]
        if parts[2] not in _KNOWN_KEYS["strain"]:
            raise ConfigError(f"unknown strain field in parameter path {param_path!r}")
        setattr(spec, parts[2], float(value))
    else:
        raise ConfigError(f"unknown or non-numeric parameter path {param_path!r}")
    out.validate()
    return out
