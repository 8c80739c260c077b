"""Scenario configuration: file schema, validation and built-in presets.

Configs are INI-style key/value files with nested sections.  The schema is
strict: unknown sections or keys are errors, as are missing required fields.
The table ``_SCHEMA`` is the schema: it maps each ``(section, key)`` to its
:class:`ScenarioConfig` field and type, and the ``[strain.N]`` keys are the
:class:`StrainSpec` fields.  The file parser, :func:`set_config_value` (sweep
values) and the CLI's ``--dt``, ``--horizon`` and ``--seed-day`` all read it
and convert through one function, so a value from a sweep or a flag gets the
same checks as one from a file.  Defaults are those of the dataclasses.

Every value rule lives in the model object that uses the value: validation
builds that object and only adds the config key to its error.

    [scenario]            optional
    name                  run label, used for default output paths

    [grid]                required
    start                 first day, >= 0 (default 0)
    horizon               last day, must exceed start
    dt                    step in days; must divide horizon-start and every
                          strain activation day offset, keep RK4 stable,
                          dt * (beta * population + sigma + gamma + mu)
                          <= 2.78, and R non-negative, dt * delta <= 1, for
                          every strain; and give run
                          arrays that fit in physical memory and under a
                          finite RLIMIT_AS: the (nodes, 4n + 3) float64
                          history, plus in optimize mode the (nodes, 4n + 1)
                          costates and 2 * ANDERSON_DEPTH Anderson rows

    [initial]             required
    population            total population P at the start

    [strain.1] .. [strain.n]   one section per strain, numbered from 1
    beta, sigma, gamma, delta, mu     per-strain rates
    activation_day        the day the strain's seed is applied, in
                          [start, horizon] (default: start); a strain enters
                          the model only through its seed
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
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace

from .control import ANDERSON_DEPTH, CostParams, check_solver_settings
from .dynamics import EpidemicState, StrainParams, check_control, max_stable_dt
from .errors import ConfigError, DomainError
from .integrate import SeedEvent, TimeGrid

CONTROL_MODES = ("none", "constant", "schedule", "optimize")


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


@dataclass(kw_only=True)
class ScenarioConfig:
    """Fully parsed scenario; see the module docstring for field meanings.

    The defaults here are the defaults of the config file, and a field
    without one is a required key.
    """

    name: str = "scenario"
    start: float = 0.0
    horizon: float
    dt: float
    population: float
    strains: list[StrainSpec] = field(default_factory=list)
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

    def validate(self) -> None:
        """Raise ConfigError for the first flaw; see the module docstring."""
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
            grid = self.grid()
        # A run holds every grid node as the trajectory's 4n + 3 float64
        # columns (t, P, S, E, I, R, u); an optimize run adds the 4n + 1
        # costate columns and the 2 * ANDERSON_DEPTH rows of Anderson
        # differences.  A grid whose arrays cannot fit in memory fails here,
        # before any output exists, not mid-run.
        n = len(self.strains)
        columns = 4 * n + 3
        if self.control_mode == "optimize":
            columns += 4 * n + 1 + 2 * ANDERSON_DEPTH
        need = grid.n_points * columns * 8
        memory, source = _memory_limit()
        if need > memory:
            raise ConfigError(
                f"grid.dt={self.dt!r} needs run arrays of {need} bytes, more than "
                f"the {memory} bytes of {source}; use a larger grid.dt"
            )
        params = []
        for idx, s in enumerate(self.strains, start=1):
            if s.activation_day < self.start:
                raise ConfigError(
                    f"strain.{idx}.activation_day lies before grid.start"
                )
            if s.activation_day > self.horizon:
                raise ConfigError(
                    f"strain.{idx}.activation_day={s.activation_day!r} lies after "
                    f"grid.horizon={self.horizon!r}; seed the strain on or before "
                    "the last day"
                )
            if not grid.aligned(s.activation_day):
                raise ConfigError(
                    f"grid.dt={self.dt!r} does not divide "
                    f"strain.{idx}.activation_day offset"
                )
            with _prefixed(f"strain.{idx}"):
                params.append(s.params())
                s.seed_event(idx - 1)
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
        if self.control_mode == "constant":
            if self.control_value is None:
                raise ConfigError("control.value is required for constant mode")
            with _prefixed("control.value"):
                check_control(self.control_value)
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
                self.cost_params()
                check_solver_settings(self.relaxation, self.tolerance, self.max_iterations)
            with _prefixed("cost.u_init"):
                check_control(self.u_init)
        else:
            for (section, key), (name, _) in _SCHEMA.items():
                if section == "cost" and getattr(self, name) != _DEFAULTS[name]:
                    raise ConfigError(f"cost.{key} only applies to optimize mode")

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
_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}
_STRAIN_KEYS = tuple(f.name for f in fields(StrainSpec))

_BOOLEANS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}


def _coerce(path: str, kind, raw):
    """``raw`` converted by ``kind``.  ``raw`` is file text, or a number from a
    sweep or a CLI flag; an integer field takes only an integral number.
    Finiteness is left to :meth:`ScenarioConfig.validate`."""
    if kind is bool:
        word = raw.strip().lower()
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
    """Parse and validate configuration text; raises ConfigError on any flaw."""
    config = _parse(text, source, base_dir)
    config.validate()
    return config


def _parse(text: str, source: str, base_dir: str) -> ScenarioConfig:
    """The config the text spells out, checked against the schema only."""
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

    config = ScenarioConfig(**values, base_dir=base_dir)
    required = _required(StrainSpec)
    for _, section in strain_sections:
        given = {"activation_day": config.start}
        for key, raw in parser.items(section):
            if key not in _STRAIN_KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            given[key] = _coerce(f"{section}.{key}", float, raw)
        for key in required:
            if key not in given:
                raise ConfigError(f"{section}.{key} is required")
        config.strains.append(StrainSpec(**given))
    return config


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario file."""
    return parse_config_text(_file_text(path), source=path, base_dir=os.path.dirname(path) or ".")


def _file_text(path: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not a readable config file ({exc})") from exc
    return text


# Built-in presets.  The texts below are the single source: the library parses
# the same bytes that `presets write` puts on disk.

def _strain_section(index: int, activation_day: int, beta: str = "2.41e-09") -> str:
    return f"""[strain.{index}]
beta = {beta}
sigma = 0.14285714285714285
gamma = 0.047619047619047616
delta = 0.011111111111111112
mu = 1.152e-05
activation_day = {activation_day}
seed_exposed = 252
seed_infected = 2
seed_removed = 1
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

{_strain_section(1, 0)}
[control]
mode = none
"""


def _two_strain_text(name: str, comment: str, beta2: str) -> str:
    return f"""{comment}
[scenario]
name = {name}

[grid]
start = 0
horizon = 730
dt = 0.05

[initial]
population = 217000255

{_strain_section(1, 0)}
{_strain_section(2, 180, beta2)}
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

{_strain_section(1, 0)}
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
    "experiment2": _two_strain_text(
        "experiment2",
        "# Two identical strains; the second is seeded 180 days after the first\n"
        "# and starts from a mirrored seed drawn out of the susceptible pool.\n",
        "2.41e-09",
    ),
    "experiment3": _two_strain_text(
        "experiment3",
        "# Like experiment2, but the late strain transmits 1.7x faster.\n",
        "4.097e-09",
    ),
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
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write preset {name!r} ({exc})") from exc


def resolve_config(name_or_path: str, values=None) -> ScenarioConfig:
    """Interpret the argument as a preset name first, then as a file path.

    ``values``, if given, maps the parsed config to numeric ``path: value``
    pairs, set as :func:`set_config_value` sets one before the one
    validation: a value replaces the file's, so it may mend it.
    """
    key = name_or_path.strip().lower()
    if key in PRESET_TEXTS and not os.path.exists(name_or_path):
        config = _parse(preset_text(key), f"<preset {key}>", ".")
    else:
        path = name_or_path
        config = _parse(_file_text(path), path, os.path.dirname(path) or ".")
    return _with_values(config, values(config) if values else {})


def set_config_value(config: ScenarioConfig, param_path: str, value: float) -> ScenarioConfig:
    """Return a copy of the config with one numeric field replaced.

    Paths use the section.key notation of the config file, e.g. ``grid.dt``,
    ``cost.c2_log_scale`` or ``strain.2.beta``.  The value gets the checks a
    file value gets.
    """
    return _with_values(config, {param_path: value})


def _with_values(config: ScenarioConfig, values: dict) -> ScenarioConfig:
    """A copy of the config with each numeric ``path: value`` set, validated
    once after all of them: a value may fit only together with another, as a
    new ``grid.dt`` with a new ``grid.horizon``."""
    out = replace(config, strains=[replace(s) for s in config.strains])
    for param_path, value in values.items():
        parts = param_path.strip().lower().split(".")
        if len(parts) == 3 and parts[0] == "strain":
            if not parts[1].isdigit() or not 1 <= int(parts[1]) <= len(out.strains):
                raise ConfigError(f"no such strain in parameter path {param_path!r}")
            if parts[2] not in _STRAIN_KEYS:
                raise ConfigError(f"unknown strain field in parameter path {param_path!r}")
            target, name, kind = out.strains[int(parts[1]) - 1], parts[2], float
        elif tuple(parts) in _SCHEMA and _SCHEMA[tuple(parts)][1] in (float, int):
            target, (name, kind) = out, _SCHEMA[tuple(parts)]
        else:
            raise ConfigError(f"unknown or non-numeric parameter path {param_path!r}")
        setattr(target, name, _coerce(".".join(parts), kind, value))
    out.validate()
    return out
