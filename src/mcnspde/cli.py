"""Command line front end for convergence studies and statistical validation.

Three subcommands:

* ``heat``      strong-convergence study for the heat steppers,
* ``wave``      strong-convergence study for the wave stepper,
* ``validate``  statistical checks of the noise quadrature moments.

Study results go out as CSV (``N,tau,rms_error,standard_error``) to
``--out`` or stdout; a human-readable summary accompanies them on stdout
when the CSV goes to a file.  ``--config`` reads ``key = value`` defaults
(keys are flag names with dashes or underscores, each given at most
once; a switch such as ``paper`` takes yes/no, true/false, on/off or
1/0, and the file may not name another config file).  Settings stack in
one order: the desk preset, or the full-scale one under ``--paper``,
then the config file, then explicit flags, which always win.  Each
realization's path is drawn window by window, every noise coordinate
and exact-solution piece it reads from their exact joint law (the
report's ``noise windows``, with the normals drawn per path), on the
finest mesh it marches, the largest of ``--n-list``.  Heat rows measure
against the exact solution with the PDE or the grid spectrum
(``--exact-mode``), wave rows against the exact solution of the
spatially discrete equation.
Exit codes: 0 success, 1 failed validation checks, 2 bad configuration
(a ConfigError) or I/O trouble (an OSError); any other exception is a bug
and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .harness import (
    EQUATION_HEAT,
    EQUATION_WAVE,
    STUDY_NORMS,
    StudyConfig,
    desk_heat_config,
    desk_wave_config,
    csv_text,
    paper_heat_config,
    paper_wave_config,
    report_text,
    run_study_tables,
)
from .heat import ConfigError
from .validation import validate_statistics

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2


def _parse_n_list(text: str) -> tuple[int, ...]:
    """Parse '8,16,32' or a doubling range '8..256' into resolutions."""
    text = text.strip()
    for sep in ("...", ".."):
        if sep in text:
            lo_s, hi_s = text.split(sep, 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo < 1 or hi < lo:
                raise ValueError(f"bad resolution range {text!r}")
            values = []
            n = lo
            while n <= hi:
                values.append(n)
                n *= 2
            return tuple(values)
    return tuple(int(part) for part in text.split(",") if part.strip())


def _add_common_flags(parser: argparse.ArgumentParser, defaults: StudyConfig) -> None:
    # Flags whose default differs between the desk and --paper presets
    # default to None here, so that only a value the user gave overrides
    # the chosen preset.
    parser.add_argument("--n-list", type=_parse_n_list, default=None,
                        help="comma list or doubling range (e.g. 8..256) of step counts")
    parser.add_argument("--k", type=int, default=defaults.k,
                        help="interior spatial nodes")
    parser.add_argument("--mc", type=int, default=None,
                        help="Monte Carlo realizations")
    parser.add_argument("--seed", type=int, default=defaults.base_seed,
                        help="base seed; realization r uses the Philox key (seed, r)")
    parser.add_argument("--workers", type=int, default=1,
                        help="process count for the realization loop")
    parser.add_argument("--out", type=Path, default=None,
                        help="CSV destination (stdout if omitted)")
    parser.add_argument("--report", type=Path, default=None,
                        help="also write the human-readable summary here")
    parser.add_argument("--config", type=Path, default=None,
                        help="key=value file of flag defaults")
    parser.add_argument("--paper", action="store_true",
                        help="full-scale preset: N up to 1024, 1000 realizations; "
                             "explicit flags still win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcnspde",
        description="Strong convergence studies for stochastic heat and wave steppers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    heat_defaults = desk_heat_config()
    heat = sub.add_parser("heat", help="heat equation convergence study")
    heat.add_argument("--scheme", choices=("em", "mcn"), default=heat_defaults.scheme,
                      help="implicit Euler-Maruyama or corrected Crank-Nicolson")
    heat.add_argument("--exact-mode", choices=("continuous", "semidiscrete"),
                      default=heat_defaults.exact_mode,
                      help="exact-solution decay rates: PDE spectrum or grid spectrum")
    _add_common_flags(heat, heat_defaults)

    wave_norms = tuple(STUDY_NORMS[EQUATION_WAVE])
    wave = sub.add_parser("wave", help="wave equation convergence study")
    wave.add_argument("--norm", choices=wave_norms, default=wave_norms[0],
                      help="error norm reported in the CSV")
    _add_common_flags(wave, desk_wave_config())

    validate = sub.add_parser("validate", help="statistical quadrature checks")
    validate.add_argument("--samples", type=int, default=100_000,
                          help="Monte Carlo samples per check")
    validate.add_argument("--seed", type=int, default=20260814)
    validate.add_argument("--out", type=Path, default=None,
                          help="write the check report here as well as stdout")
    validate.add_argument("--config", type=Path, default=None,
                          help="key=value file of flag defaults")

    return parser


def _load_config_file(path: Path) -> dict[str, str]:
    values = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line (want key = value): {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in values:
            raise ConfigError(f"config key {key!r} is given more than once")
        values[key] = value.strip()
    return values


def _config_file_flags(path: Path, args: argparse.Namespace) -> list[str]:
    """The key = value file at path spelled as flags, to be parsed before the explicit ones."""
    flags = []
    for key, value in _load_config_file(path).items():
        if key == "config":
            raise ConfigError("a config file may not name another config file")
        if not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):
            if value.lower() in ("1", "true", "yes", "on"):
                flags.append(flag)
            elif value.lower() not in ("0", "false", "no", "off"):
                raise ConfigError(f"config key {key!r} wants yes or no, got {value!r}")
        else:
            flags += [flag, value]
    return flags


def _study_config(args: argparse.Namespace, equation: str) -> StudyConfig:
    """The chosen preset with every given flag applied on top."""
    if equation == EQUATION_WAVE:
        config = (paper_wave_config if args.paper else desk_wave_config)()
    else:
        preset = paper_heat_config if args.paper else desk_heat_config
        config = preset(scheme=args.scheme, exact_mode=args.exact_mode)
    overrides = dict(k=args.k, base_seed=args.seed, workers=args.workers)
    given = dict(n_list=args.n_list, mc_count=args.mc)
    overrides.update((name, value) for name, value in given.items() if value is not None)
    return dataclasses.replace(config, **overrides)


def _run_study_command(args: argparse.Namespace, equation: str) -> int:
    config = _study_config(args, equation)
    # Heat measures one norm and so has no --norm flag: a config file naming norm is an
    # unknown key there.
    norm = getattr(args, "norm", next(iter(STUDY_NORMS[EQUATION_HEAT])))
    table = run_study_tables(config)[norm]
    if args.out is not None:
        args.out.write_text(csv_text(table))
        sys.stdout.write(report_text(table, config))
    else:
        sys.stdout.write(csv_text(table))
    if args.report is not None:
        args.report.write_text(report_text(table, config))
    return EXIT_OK


def _run_validate_command(args: argparse.Namespace) -> int:
    report = validate_statistics(samples=args.samples, seed=args.seed)
    sys.stdout.write(report.text())
    if args.out is not None:
        args.out.write_text(report.text())
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # File values go in ahead of the explicit flags, so a flag given
            # on the command line overrides the same key from the file.
            file_flags = _config_file_flags(args.config, args)
            args = parser.parse_args([argv[0], *file_flags, *argv[1:]])
        if args.command == "validate":
            return _run_validate_command(args)
        return _run_study_command(args, args.command)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
