"""Command-line front end for the pipeline and the standalone fitters.

Exit codes: 0 on success, 2 for configuration problems, 3 for numerical
failures (empty energy windows, aliasing, fits that cannot converge).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosetherm",
        description="exact dynamics and thermometry for small trapped "
                    "Bose gases")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute every configured stage")
    run_p.add_argument("config", help="JSON configuration file")

    for name, text in (("build-spectrum", "diagonalize the model sector"),
                       ("evolve", "propagate and record observables"),
                       ("thermometry", "fit temperatures from spectra"),
                       ("chaos", "adjacent-gap-ratio report")):
        stage_p = sub.add_parser(name, help=text)
        stage_p.add_argument("config", help="JSON configuration file")

    greens_p = sub.add_parser("greens", help="two-time correlation spectra")
    greens_p.add_argument("config", help="JSON configuration file")
    greens_p.add_argument("--pair", metavar="I,J",
                          help="restrict to one single-particle mode pair")
    greens_p.add_argument("--time", type=float, metavar="T",
                          help="restrict to one center-of-mass time")

    fit_p = sub.add_parser("fit", help="fit one CSV file")
    fit_p.add_argument("csv", help="input table")
    fit_p.add_argument("--model", required=True,
                       choices=("biexp", "bose", "fdt"))
    fit_p.add_argument("--column", default=None,
                       help="value column for biexp (default: second column)")
    fit_p.add_argument("--tail-fraction", type=float, default=0.2,
                       help="trailing fraction that defines the plateau")
    fit_p.add_argument("--window", nargs=2, type=float, metavar=("LO", "HI"),
                       help="energy window for the fdt model")
    fit_p.add_argument("--out", default=None, help="also write the JSON here")
    return parser


def _parse_pair(text: str) -> list[int]:
    from .errors import ConfigError
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--pair wants 'i,j', got '{text}'")
    try:
        return [int(parts[0]), int(parts[1])]
    except ValueError as exc:
        raise ConfigError(f"--pair wants two integers, got '{text}'") from exc


def _fit_command(args) -> dict:
    from .correlators import CorrelatorSpectrum
    from .errors import ConfigError, NumericsError
    from .runner import _jsonify, _relaxation_entry, read_csv
    from .thermofit import fit_bose_einstein, fit_fdt_beta

    path = Path(args.csv)
    if not path.exists():
        raise ConfigError(f"input table {path} does not exist")
    cols = read_csv(path)
    names = list(cols)
    if len(names) < 2:
        raise ConfigError(f"{path} needs at least two columns")

    if args.model == "biexp":
        if not 0.0 < args.tail_fraction <= 1.0:
            raise ConfigError("--tail-fraction must sit in (0, 1]")
        yname = args.column or names[1]
        if yname not in cols:
            raise ConfigError(f"{path} has no column '{yname}'")
        # the fit stage's own entry, so the same flags mark the same fit
        entry = _relaxation_entry(cols[names[0]], cols[yname],
                                  args.tail_fraction)
        if "error" in entry:
            raise NumericsError(entry["error"])
        return _jsonify({"model": "biexp", "column": yname, **entry})

    try:  # a fitter refuses a table or window it cannot fit as ValueError
        if args.model == "bose":
            sigmas = cols[names[2]] if len(names) > 2 else None
            fit = fit_bose_einstein(cols[names[0]], cols[names[1]], sigmas)
        else:
            if args.window is None:
                raise ConfigError("the fdt model needs --window LO HI")
            if len(names) < 3:
                raise ConfigError(f"{path} needs columns E, forward, reversed")
            forward, reverse = (CorrelatorSpectrum(
                kind, None, 0.0, cols[names[0]], cols[name], "rect")
                for kind, name in (("density_forward", names[1]),
                                   ("density_reversed", names[2])))
            fit = fit_fdt_beta(forward, reverse, tuple(args.window))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return _jsonify({**asdict(fit), "model": args.model})


def _dispatch(args) -> int:
    from . import runner
    from .errors import ConfigError
    if args.command == "fit":
        text = json.dumps(_fit_command(args), indent=2, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text + "\n")
        print(text)
        return 0
    if args.command == "run":
        runner.run(args.config)
        return 0
    if args.command == "greens" and (args.pair or args.time is not None):
        raw = runner.read_config(args.config)
        meas = raw.setdefault("measurement", {})
        if not isinstance(meas, dict):
            raise ConfigError("measurement must be an object")
        if args.pair:
            meas["green_pairs"] = [_parse_pair(args.pair)]
            meas["density_pairs"] = []
        if args.time is not None:
            meas["com_times"] = [args.time]
        runner.run(raw, stages=["greens"])
        return 0
    runner.run(args.config, stages=[args.command])
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from .errors import ConfigError, NumericsError
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
