"""Scenario configuration: file schema, validation and built-in presets.

Configs are INI-style key/value files with nested sections.  The schema is
strict: unknown sections or keys are errors, as are missing required fields.
The table ``_SCHEMA`` is the schema: it maps each ``(section, key)`` to its
:class:`ScenarioConfig` field and type, and the ``[strain.N]`` keys are the
:class:`StrainSpec` fields.  The file parser, :func:`set_config_value` (sweep
values) and the CLI's ``--dt``, ``--horizon`` and ``--seed-day`` all read it
and convert through one function, so a value from a sweep or a flag gets the
same checks as one from a file; ``--no-svg`` sets ``output.svg`` the same
way.  Defaults are those of the dataclasses.  The table ``_MODE_KEYS`` says
which keys each control mode owns and which one it requires.

A :class:`ScenarioConfig` and its :class:`StrainSpec` entries are frozen.
The config checks itself once, when it is built: the parser, the flags and
a sweep value all build it from keyword arguments, and a library caller
changes one with ``dataclasses.replace`` or :func:`set_config_value`, each
of which checks the result.  Every value rule lives in the model object that
uses the value: the check builds that object and only adds the config key
to its error.  The config keeps the objects its check built, and
``grid()``, ``strain_params()``, ``seed_events()``, ``initial_state()`` and
``cost_params()`` return them: nothing is built a second time.

    [scenario]            optional
    name                  run label, used for default output paths

    [grid]                required
    start                 first day, >= 0 (default 0)
    horizon               last day, must exceed start
    dt                    step in days; must divide horizon-start, keep RK4
                          stable, dt * (beta * population + sigma + gamma +
                          mu) <= 2.78, and R non-negative, dt * delta <= 1,
                          for every strain.  Whether the run's arrays fit
                          in memory is the run's check (runner.run_scenario),
                          made before it writes anything

    [initial]             required
    population            total population P at the start

    [strain.1] .. [strain.n]   one section per strain, numbered from 1
    beta, sigma, gamma, delta, mu     per-strain rates
    activation_day        the day the strain's seed is applied, a grid node
                          (TimeGrid.index_of) in [start, horizon] (default:
                          start); a strain enters the model only through its seed
    seed_exposed, seed_infected, seed_removed
                          mass moved from susceptibles into the strain's
                          compartments on its activation day (default 0);
                          their sum may not exceed the population

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
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace

from .control import CostParams, check_solver_settings
from .dynamics import EpidemicState, StrainParams, check_control, max_stable_dt
from .errors import ConfigError, DomainError
from .integrate import SeedEvent, TimeGrid

@dataclass(frozen=True)
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
            delta=self.delta, mu=self.mu,
        )

    def seed_event(self, strain_index: int) -> SeedEvent | None:
        if self.seed_exposed == 0 and self.seed_infected == 0 and self.seed_removed == 0:
            return None
        return SeedEvent(
            time=self.activation_day, strain=strain_index,
            exposed=self.seed_exposed, infected=self.seed_infected,
            removed=self.seed_removed,
        )


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """Fully parsed scenario; see the module docstring for field meanings.

    The defaults here are the defaults of the config file, and a field
    without one is a required key.  A config is checked when it is built,
    by the constructor or by ``dataclasses.replace``, and raises ConfigError
    for the first flaw; it cannot change afterwards.
    """

    name: str = "scenario"
    start: float = 0.0
    horizon: float
    dt: float
    population: float
    strains: tuple[StrainSpec, ...] = ()
    control_mode: str
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "strains", tuple(self.strains))
        numbers = [
            (f"{section}.{key}", getattr(self, name))
            for (section, key), (name, kind) in _SCHEMA.items() if kind in (float, int)
        ]
        numbers += [
            (f"strain.{idx}.{key}", getattr(s, key))
            for idx, s in enumerate(self.strains, start=1) for key in _STRAIN_KEYS
        ]
        for path, value in numbers:
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{path} must be finite, got {value!r}")
        if not isinstance(self.svg, bool):
            raise ConfigError(f"output.svg must be true or false, got {self.svg!r}")
        if not self.strains:
            raise ConfigError("at least one [strain.N] section is required")
        if not self.start >= 0:
            raise ConfigError(f"grid.start must be >= 0, got {self.start!r}")
        if not self.population > 0:
            raise ConfigError("initial.population must be > 0")
        with _prefixed("grid"):
            grid = TimeGrid.from_horizon(self.start, self.horizon, self.dt)
        params, events = [], []
        for idx, s in enumerate(self.strains, start=1):
            with _prefixed(f"strain.{idx}.activation_day"):
                grid.index_of(s.activation_day)
            with _prefixed(f"strain.{idx}"):
                params.append(s.params())
                events.append(s.seed_event(idx - 1))
            seed = s.seed_exposed + s.seed_infected + s.seed_removed
            if seed > self.population:
                raise ConfigError(
                    f"strain.{idx}: seed_exposed + seed_infected + seed_removed = "
                    f"{seed!r} exceeds initial.population = {self.population!r}"
                )
        # RK4 stability and positivity at the strains' largest rates
        # (dynamics.max_stable_dt).
        safe = max_stable_dt(params, self.population)
        if self.dt > safe:
            raise ConfigError(
                f"grid.dt={self.dt!r} makes RK4 unstable or drives a compartment "
                f"negative at the fastest strain's rates: grid.dt must be at most "
                f"{safe:.4g}"
            )
        if self.control_mode not in CONTROL_MODES:
            raise ConfigError(
                f"control.mode must be one of {', '.join(CONTROL_MODES)}; "
                f"got {self.control_mode!r}"
            )
        for mode, keys in _MODE_KEYS.items():
            for i, (section, key) in enumerate(keys):
                name = _SCHEMA[section, key][0]
                value = getattr(self, name)
                if mode != self.control_mode and value != _DEFAULTS[name]:
                    raise ConfigError(f"{section}.{key} only applies to {mode} mode")
                if mode == self.control_mode and i == 0 and value in (None, ""):
                    raise ConfigError(f"{section}.{key} is required for {mode} mode")
        if self.control_mode == "constant":
            with _prefixed("control.value"):
                check_control(self.control_value)
        costs = None
        if self.control_mode == "optimize":
            if (self.c2 is None) == (self.c2_log_scale is None):
                raise ConfigError(
                    "optimize mode needs exactly one of cost.c2 and cost.c2_log_scale"
                )
            if self.c2_log_scale is not None and not self.c2_log_scale > 0:
                raise ConfigError("cost.c2_log_scale must be > 0")
            if self.c2_population is not None and self.c2_log_scale is None:
                raise ConfigError(
                    "cost.c2_population applies only with cost.c2_log_scale, "
                    "not with a direct cost.c2"
                )
            if self.c2_population is not None and not self.c2_population > 1:
                raise ConfigError("cost.c2_population must be > 1")
            with _prefixed("cost"):
                ref = self.population if self.c2_population is None else self.c2_population
                c2 = self.c2 if self.c2 is not None else self.c2_log_scale * math.log(ref)
                costs = CostParams(c1=self.c1, c2=c2)
                check_solver_settings(self.relaxation, self.tolerance, self.max_iterations)
            with _prefixed("cost.u_init"):
                check_control(self.u_init)
        # Keep what the check built as plain attributes, not fields: equality,
        # hashing, repr and replace see only the config's own values.
        n = len(self.strains)
        for name, value in {
            "_grid": grid, "_params": tuple(params), "_events": tuple(filter(None, events)),
            "_initial": EpidemicState(t=self.start, P=self.population,
                                      E=[0.0] * n, I=[0.0] * n, R=[0.0] * n),
            "_costs": costs,
        }.items():
            object.__setattr__(self, name, value)

    # The run inputs, as the check built them.

    def grid(self) -> TimeGrid:
        return self._grid

    def strain_params(self) -> list[StrainParams]:
        return list(self._params)

    def seed_events(self) -> list[SeedEvent]:
        return list(self._events)

    def initial_state(self) -> EpidemicState:
        return self._initial

    def cost_params(self) -> CostParams:
        if self._costs is None:
            raise ConfigError("cost parameters are only defined for optimize mode")
        return self._costs

    def resolve_path(self, name: str) -> str:
        return os.path.normpath(os.path.join(self.base_dir, name))


@contextmanager
def _prefixed(prefix: str):
    """Re-raise a model object's check as a ConfigError that names the
    config section or key ``prefix`` it came from."""
    try:
        yield
    except (DomainError, ConfigError) as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc


# The file schema: (section, key) -> (ScenarioConfig field, kind).  The kind
# converts file text, or a number from a sweep or a CLI flag (see _coerce);
# control.mode is case-insensitive.  The keys of a [strain.N] section are the
# StrainSpec fields, all floats.
_SCHEMA = {
    ("scenario", "name"): ("name", str),
    ("grid", "start"): ("start", float),
    ("grid", "horizon"): ("horizon", float),
    ("grid", "dt"): ("dt", float),
    ("initial", "population"): ("population", float),
    ("control", "mode"): ("control_mode", str.lower),
    ("control", "value"): ("control_value", float),
    ("control", "file"): ("schedule_file", str),
    ("cost", "c1"): ("c1", float),
    ("cost", "c2"): ("c2", float),
    ("cost", "c2_log_scale"): ("c2_log_scale", float),
    ("cost", "c2_population"): ("c2_population", float),
    ("cost", "relaxation"): ("relaxation", float),
    ("cost", "tolerance"): ("tolerance", float),
    ("cost", "max_iterations"): ("max_iterations", int),
    ("cost", "u_init"): ("u_init", float),
    ("output", "directory"): ("output_dir", str),
    ("output", "svg"): ("svg", bool),
}
_SECTIONS = {section for section, _ in _SCHEMA}
# The keys each control mode owns, the one it requires first: a key keeps its
# default in every other mode.  The [cost] keys of _SCHEMA begin with c1.
_MODE_KEYS = {"none": (), "constant": (("control", "value"),), "schedule": (("control", "file"),),
              "optimize": tuple(key for key in _SCHEMA if key[0] == "cost")}
CONTROL_MODES = tuple(_MODE_KEYS)
_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}
_STRAIN_KEYS = tuple(f.name for f in fields(StrainSpec))

_BOOLEANS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}


def _coerce(path: str, kind, raw):
    """``raw`` converted by ``kind``.  ``raw`` is file text, or a number or bool from
    a sweep or a CLI flag; an integer field takes only an integral number.
    Finiteness is left to the check a :class:`ScenarioConfig` runs when built."""
    if kind is bool:
        word = str(raw).strip().lower()
        if word not in _BOOLEANS:
            raise ConfigError(f"{path}: not a boolean: {raw!r}")
        return _BOOLEANS[word]
    if kind not in (float, int):
        return kind(raw)
    noun = "an integer" if kind is int else "a number"
    try:
        value = kind(raw)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: not {noun}: {raw!r}") from exc
    if kind is int and not isinstance(raw, str) and value != raw:
        raise ConfigError(f"{path}: not {noun}: {raw!r}")
    return value


def _required(cls) -> list[str]:
    """The fields of ``cls`` without a default: required keys of the file."""
    return [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]


def _strain_index(section: str) -> int | None:
    if not section.startswith("strain."):
        return None
    suffix = section[len("strain.") :]
    if not suffix.isdigit() or int(suffix) < 1:
        raise ConfigError(f"strain sections are numbered from 1; got [{section}]")
    return int(suffix)


def parse_config_text(text: str, source: str = "<string>", base_dir: str = ".") -> ScenarioConfig:
    """Parse and check configuration text; raises ConfigError on any flaw."""
    return ScenarioConfig(**_parse(text, source, base_dir))


def _parse(text: str, source: str, base_dir: str) -> dict:
    """The :class:`ScenarioConfig` keyword arguments the text spells out,
    checked against the schema only."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"), delimiters=("=",)
    )
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {source}: {exc}") from exc
    if not parser.sections():
        raise ConfigError(f"{source}: configuration is empty")

    values = {}
    strain_sections = []
    for section in parser.sections():
        idx = _strain_index(section)
        if idx is not None:
            strain_sections.append((idx, section))
            continue
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _SCHEMA:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, kind = _SCHEMA[section, key]
            values[name] = _coerce(f"{section}.{key}", kind, raw)

    required = _required(ScenarioConfig)
    for (section, key), (name, _) in _SCHEMA.items():
        if name in required and name not in values:
            if section not in parser:
                raise ConfigError(f"missing required section [{section}]")
            raise ConfigError(f"{section}.{key} is required")

    strain_sections.sort()
    if [idx for idx, _ in strain_sections] != list(range(1, len(strain_sections) + 1)):
        raise ConfigError("strain sections must be numbered 1..n without gaps")

    strains = []
    required = _required(StrainSpec)
    for _, section in strain_sections:
        given = {"activation_day": values.get("start", _DEFAULTS["start"])}
        for key, raw in parser.items(section):
            if key not in _STRAIN_KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            given[key] = _coerce(f"{section}.{key}", float, raw)
        for key in required:
            if key not in given:
                raise ConfigError(f"{section}.{key} is required")
        strains.append(StrainSpec(**given))
    return {**values, "strains": tuple(strains), "base_dir": base_dir}


def load_config(path: str) -> ScenarioConfig:
    """Read and check a scenario file."""
    return parse_config_text(_file_text(path), source=path, base_dir=os.path.dirname(path) or ".")


def _file_text(path: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not a readable config file ({exc})") from exc
    return text


# Built-in presets: name -> (`presets list` summary, file text).  The texts
# are the single source: the library parses the same bytes that `presets
# write` puts on disk.  Every preset is a two-year run of the same strain,
# seeded on its activation day; _preset fills in what differs.

_STRAIN = """[strain.{index}]
beta = {beta}
sigma = 0.14285714285714285
gamma = 0.047619047619047616
delta = 0.011111111111111112
mu = 1.152e-05
activation_day = {day}
seed_exposed = 252
seed_infected = 2
seed_removed = 1
"""

_COST = """
[cost]
c1 = 1
c2_log_scale = {scale}
relaxation = 0.5
tolerance = 1e-06
max_iterations = 500
u_init = 0
"""


def _preset(name: str, comment: str, strains=((0, "2.41e-09"),), dt: str = "0.05",
            note: str = "", scale: float | None = None) -> str:
    """The file text of preset ``name``: ``comment`` heads it, ``strains``
    gives each strain's (activation day, beta), ``note`` comments the
    population, and a cost ``scale`` makes it optimize with c2 = scale * ln(P0)."""
    sections = "\n".join(
        _STRAIN.format(index=j, day=day, beta=beta)
        for j, (day, beta) in enumerate(strains, start=1)
    )
    mode, cost = ("none", "") if scale is None else ("optimize", _COST.format(scale=scale))
    return f"""{comment}
[scenario]
name = {name}

[grid]
start = 0
horizon = 730
dt = {dt}

[initial]
{note}population = 217000255

{sections}
[control]
mode = {mode}
{cost}"""


_CASE_COMMENT = """# Optimal mitigation, case {letter}: exponential control cost with
# c2 = {scale} * ln(P0).  Lower scales make mitigation cheaper, so the solved
# schedule sits higher.  c2_population defaults to the initial population;
# set it to 217000000 to reference the susceptible pool instead.
"""

PRESETS: dict[str, tuple[str, str]] = {
    "experiment1": ("single strain, no mitigation, 730 d", _preset(
        "experiment1",
        "# Single-strain two-year run without mitigation.\n"
        "# Some summaries of this scenario list a control value of 1.0; the scenario\n"
        "# itself is the uncontrolled baseline, so control mode none (u = 0) is used.\n",
        note="# Total population: susceptible pool of 217e6 plus the day-0 seed of 255.\n",
    )),
    "experiment2": ("two identical strains, second seeded at day 180", _preset(
        "experiment2",
        "# Two identical strains; the second is seeded 180 days after the first\n"
        "# and starts from a mirrored seed drawn out of the susceptible pool.\n",
        strains=((0, "2.41e-09"), (180, "2.41e-09")),
    )),
    "experiment3": ("second strain 70% more transmissible, seeded at day 180", _preset(
        "experiment3",
        "# Like experiment2, but the late strain transmits 1.7x faster.\n",
        strains=((0, "2.41e-09"), (180, "4.097e-09")),
    )),
    **{
        f"case_{letter}": (f"optimal mitigation, c2 = {scale} ln(P0)", _preset(
            f"case_{letter}",
            _CASE_COMMENT.format(letter=letter.upper(), scale=scale),
            dt="0.1", scale=scale,
        ))
        for letter, scale in zip("abcdef", (1.0, 0.9, 0.8, 0.7, 0.6, 0.5))
    },
}


def preset_names() -> list[str]:
    return list(PRESETS)


def preset_text(name: str) -> str:
    key = name.strip().lower()
    if key not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    return PRESETS[key][1]


def preset_config(name: str) -> ScenarioConfig:
    key = name.strip().lower()
    return parse_config_text(preset_text(key), source=f"<preset {key}>")


def write_preset(name: str, path: str) -> None:
    text = preset_text(name)
    # Written through whatever is at ``path``, as a user's own file.  An
    # artifact (``integrate.open_new``) is written through too, unless it is
    # a regular file, which is replaced to save ext4's flush; no run writes
    # presets, so there is no flush to save here.
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write preset {name!r} ({exc})") from exc


def resolve_config(name_or_path: str, values=None) -> ScenarioConfig:
    """Interpret the argument as a preset name first, then as a file path.

    ``values``, if given, maps the :class:`ScenarioConfig` keyword arguments
    the text spells out to numeric or boolean ``path: value`` pairs, set as
    :func:`set_config_value` sets one before the config is built and checked
    once: a value replaces the file's, so it may mend it.
    """
    key = name_or_path.strip().lower()
    if key in PRESETS and not os.path.exists(name_or_path):
        kwargs = _parse(preset_text(key), f"<preset {key}>", ".")
    else:
        path = name_or_path
        kwargs = _parse(_file_text(path), path, os.path.dirname(path) or ".")
    changes = _changes(kwargs["strains"], values(kwargs) if values else {})
    return ScenarioConfig(**{**kwargs, **changes})


def set_config_value(config: ScenarioConfig, param_path: str, value: float) -> ScenarioConfig:
    """Return a copy of the config with one numeric or boolean field replaced.

    Paths use the section.key notation of the config file, e.g. ``grid.dt``,
    ``cost.c2_log_scale``, ``strain.2.beta`` or ``output.svg``.  The value
    gets the checks a file value gets: ``output.svg`` takes a bool or a word
    the file accepts, so a number such as ``1.0`` is rejected.
    """
    return replace(config, **_changes(config.strains, {param_path: value}))


def _changes(strains: tuple[StrainSpec, ...], values: dict) -> dict:
    """The :class:`ScenarioConfig` keyword arguments that set each numeric or
    boolean ``path: value`` on a config with these ``strains``.  The config they
    build is checked once, after all of them: a value may fit only together
    with another, as a new ``grid.dt`` with a new ``grid.horizon``."""
    changes = {}
    for param_path, value in values.items():
        parts = param_path.strip().lower().split(".")
        path = ".".join(parts)
        if len(parts) == 3 and parts[0] == "strain":
            if not parts[1].isdigit() or not 1 <= int(parts[1]) <= len(strains):
                raise ConfigError(f"no such strain in parameter path {param_path!r}")
            if parts[2] not in _STRAIN_KEYS:
                raise ConfigError(f"unknown strain field in parameter path {param_path!r}")
            j = int(parts[1]) - 1
            strain = replace(strains[j], **{parts[2]: _coerce(path, float, value)})
            strains = changes["strains"] = (*strains[:j], strain, *strains[j + 1:])
        elif tuple(parts) in _SCHEMA and _SCHEMA[tuple(parts)][1] in (float, int, bool):
            name, kind = _SCHEMA[tuple(parts)]
            changes[name] = _coerce(path, kind, value)
        else:
            raise ConfigError(f"unknown or non-numeric parameter path {param_path!r}")
    return changes
