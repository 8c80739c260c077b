"""Command-line front end.

Verbs: ``simulate``, ``optimize``, ``sweep``, ``presets list`` and
``presets write``.  The config argument of the run verbs accepts either a
file path or a built-in preset name.

Exit codes: 0 success, 2 configuration error or a file that cannot be
written, 3 solver non-convergence, 4 integration failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import PRESETS, resolve_config, write_preset
from .errors import ConfigError, IntegrationError, ModelError, SolverError
from .runner import run_scenario, sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INTEGRATION = 4


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="config file path or preset name")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--dt", type=float, metavar="DAYS", help="override grid step")
    parser.add_argument(
        "--horizon", type=float, metavar="DAYS", help="override grid horizon"
    )
    parser.add_argument(
        "--seed-day", type=float, metavar="DAYS", dest="seed_day",
        help="override the seed day (activation_day) of strains 2..n",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress run output")
    parser.add_argument("--no-svg", action="store_true", help="skip chart output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multistrain",
        description="Multi-strain SEIR simulation and optimal mitigation scheduling",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario without optimisation")
    _add_run_flags(p_sim)

    p_opt = sub.add_parser("optimize", help="solve for the optimal schedule")
    _add_run_flags(p_opt)

    p_sweep = sub.add_parser("sweep", help="run a scenario over parameter values")
    _add_run_flags(p_sweep)
    p_sweep.add_argument(
        "--param", required=True, metavar="PATH",
        help="numeric config field, e.g. cost.c2_log_scale or strain.2.beta",
    )
    p_sweep.add_argument(
        "--values", required=True, metavar="V1,V2,...",
        help="comma-separated values to sweep over",
    )

    p_presets = sub.add_parser("presets", help="list or export built-in scenarios")
    presets_sub = p_presets.add_subparsers(dest="presets_verb", required=True)
    presets_sub.add_parser("list", help="list available presets")
    p_write = presets_sub.add_parser("write", help="write a preset config file")
    p_write.add_argument("name")
    p_write.add_argument("path")

    return parser


def _flag_values(parsed, args):
    """The ``path: value`` pairs the run flags set in the parsed config arguments."""
    values = {"grid.dt": args.dt, "grid.horizon": args.horizon,
              "output.svg": False if args.no_svg else None}
    if args.seed_day is not None:
        if len(parsed["strains"]) < 2:
            raise ConfigError("--seed-day needs a scenario with at least two strains")
        for j in range(2, len(parsed["strains"]) + 1):
            values[f"strain.{j}.activation_day"] = args.seed_day
    return {k: v for k, v in values.items() if v is not None}


def _parse_values(raw: str) -> list[float]:
    try:
        return [float(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--values must be comma-separated numbers: {raw!r}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "presets":
            if args.presets_verb == "list":
                for name, (summary, _) in PRESETS.items():
                    print(f"{name:14s} {summary}")
            else:
                write_preset(args.name, args.path)
                print(f"wrote preset {args.name} to {args.path}", file=sys.stderr)
            return EXIT_OK

        config = resolve_config(args.config, lambda parsed: _flag_values(parsed, args))

        if args.verb == "simulate":
            if config.control_mode == "optimize":
                raise ConfigError(
                    "this config uses optimize mode; run it with the optimize verb"
                )
        elif args.verb == "optimize":
            if config.control_mode != "optimize":
                raise ConfigError(
                    "optimize needs a config with control mode 'optimize'"
                )

        if args.verb == "sweep":
            results = sweep(
                config, args.param, _parse_values(args.values), out_dir=args.out, quiet=args.quiet
            )
            if any(r.report is not None and not r.report.converged for r in results):
                print("at least one sweep run did not converge", file=sys.stderr)
                return EXIT_SOLVER
            return EXIT_OK

        result = run_scenario(config, out_dir=args.out, quiet=args.quiet)
        if result.report is not None and not result.report.converged:
            print(
                f"solver did not converge within {config.max_iterations} iterations "
                f"(fixed-point residual {result.report.last_update:.3e})",
                file=sys.stderr,
            )
            return EXIT_SOLVER
        return EXIT_OK

    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except IntegrationError as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
