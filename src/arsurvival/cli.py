"""Command-line interface.

Subcommands:

    classify   region, coefficient limit class and predicted decay
    simulate   run a survival estimate from a JSON config, write CSV/JSON
    fit        fit the decay class of a stored survival curve
    bounds     exponential lower bound (plus region extras) for coefficients
    verify     run the acceptance suite and print a pass/fail table

Exit codes: 0 success, 2 malformed input, 3 invalid config/file or an
output that cannot be written, 4 simulation marked invalid (or failed
verification).  All outputs are deterministic for fixed inputs and seed;
files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import acceptance
from .asymptotics import fit_decay, predict
from .bounds import (DegenerateBoundError, PreconditionError, e1_rate_bound,
                     e3_sign_change_index, exp_lower_bound)
from .coeffs import ar_params, check_int, coeff_limit_class
from .innovations import (InnovationSpec, exponential_centered, gaussian, rademacher,
                          spec_from_json, two_point, uniform)
from .mc import SurvivalCurve, estimate_survival, json_run_fields
from .regions import Region, classify_ar2

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_INVALID = 4

_DEFAULT_SPECS = {spec.kind.value: spec for spec in (
    gaussian(), rademacher(), two_point(1.0), uniform(-1.0, 1.0),
    exponential_centered())}

_CONFIG_KEYS = {"a", "innovation", "x", "grid", "paths", "seed", "out", "gnuplot"}
_CONFIG_REQUIRED = {"a", "innovation", "x", "grid", "paths", "seed", "out"}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_spec(name: str, params_json: str | None) -> InnovationSpec:
    # argparse ``choices`` has already checked the name
    if params_json is None:
        return _DEFAULT_SPECS[name]
    return spec_from_json({"kind": name, "params": json.loads(params_json)})


def cmd_classify(args) -> int:
    spec = _parse_spec(args.innovation, args.innovation_params)
    limit = coeff_limit_class(args.a1, args.a2)
    pred = predict(args.a1, args.a2, spec, args.x)
    out = {
        "a1": args.a1,
        "a2": args.a2,
        "coeff_limit": {"kind": limit.kind.value, "limit": limit.limit},
        **pred.to_json_dict(),
    }
    sys.stdout.write(_dump(out))
    return EXIT_OK


def _load_config(path: str) -> dict:
    with open(path) as handle:
        cfg = json.load(handle)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(cfg) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    missing = sorted(_CONFIG_REQUIRED - set(cfg))
    if missing:
        raise ValueError(f"missing config keys: {missing}")
    out = cfg["out"]
    if not isinstance(out, str) or not os.path.basename(out):
        raise ValueError(f"out must be a string that names a file, got {out!r}")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ValueError(f"out names a directory that does not exist: {out!r}")
    if not isinstance(cfg.get("gnuplot", False), bool):
        raise ValueError(f"gnuplot must be true or false, got {cfg['gnuplot']!r}")
    suffixes = (".json", ".csv", ".gp") if cfg.get("gnuplot", False) else (".json", ".csv")
    for suffix in suffixes:
        if os.path.isdir(out + suffix):
            raise ValueError(f"out names a file that is a directory: {out + suffix!r}")
    return cfg


_GNUPLOT_TEMPLATE = """\
set datafile separator ','
set logscale y
set xlabel 'N'
set ylabel 'p_N'
set key left bottom
set terminal pngcairo size 900,600
set output '{stem}-semilog.png'
plot '{csv}' using 1:4 skip 1 with linespoints title 'p_N (semilog)'
set logscale xy
set output '{stem}-loglog.png'
plot '{csv}' using 1:4 skip 1 with linespoints title 'p_N (log-log)'
"""


def cmd_simulate(args) -> int:
    # malformed input (exit 2) whatever the config holds
    check_int(args.workers, "workers", lo=1)
    try:
        cfg = _load_config(args.config)
        a, run = json_run_fields(cfg, cfg["a"])
        params = ar_params(a)
        out = cfg["out"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        curve = estimate_survival(params, **run, workers=args.workers)
    except ValueError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    files = {out + ".json": _dump(curve.to_json_dict()), out + ".csv": curve.to_csv_text()}
    if cfg.get("gnuplot", False):
        files[out + ".gp"] = _GNUPLOT_TEMPLATE.format(
            stem=os.path.basename(out), csv=os.path.basename(out) + ".csv")
    for path, text in files.items():
        try:
            _write_atomic(path, text)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_CONFIG
    if curve.invalid:
        print(f"error: {curve.nonfinite_paths} of {curve.paths} paths were "
              "non-finite; estimate marked invalid", file=sys.stderr)
        return EXIT_INVALID
    print(f"wrote {out}.json and {out}.csv")
    return EXIT_OK


def cmd_fit(args) -> int:
    try:
        with open(args.curve) as handle:
            curve = SurvivalCurve.from_json_dict(json.load(handle))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid curve file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    sys.stdout.write(_dump(fit_decay(curve).to_json_dict()))
    return EXIT_OK


def cmd_bounds(args) -> int:
    params = ar_params([float(v) for v in args.a.split(",")])
    spec = _parse_spec(args.innovation, args.innovation_params)
    out: dict = {"a": list(params.a), "innovation": spec.to_json_dict()}
    try:
        res = exp_lower_bound(params, spec)
        out["exp_lower_bound"] = {
            "c": res.c, "alpha_star": res.alpha_star, "a_plus": res.a_plus,
            "a_minus": res.a_minus, "A": res.A, "method": res.method.value,
        }
    except (PreconditionError, DegenerateBoundError) as exc:
        out["exp_lower_bound"] = {"error": str(exc)}
    if params.p == 2:
        a1, a2 = params.a
        region = classify_ar2(a1, a2)
        out["region"] = str(region)
        if region is Region.E1:
            out["e1_rate_bound"] = e1_rate_bound(a1, a2)
        if region is Region.E3:
            out["e3_sign_change_index"] = e3_sign_change_index(a1, a2)
    sys.stdout.write(_dump(out))
    return EXIT_OK


def cmd_verify(args) -> int:
    only = None if args.only is None else args.only.split(",")
    check_int(args.workers, "workers", lo=1)
    results = acceptance.run_suite(only, args.workers)
    for res in results:
        print(res.summary())
        if args.verbose:
            for line in res.details:
                print(f"      {line}")
    failed = [r.cid for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    if failed:
        print(f"failed: {', '.join(failed)}")
        return EXIT_INVALID
    return EXIT_OK


_WORKERS = dict(type=int, default=1,
                help="worker processes, each simulating one contiguous range "
                     "of paths in tiles of at most 65,536 (default 1, at "
                     "most the CPU count); does not change the numbers")


def _add_law_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--innovation", default="gaussian", choices=sorted(_DEFAULT_SPECS))
    parser.add_argument("--innovation-params", default=None,
                        help="JSON object of distribution parameters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arsurvival",
        description="Barrier survival probabilities for AR(p) processes")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify AR(2) coefficients")
    c.add_argument("--a1", type=float, required=True)
    c.add_argument("--a2", type=float, required=True)
    c.add_argument("--x", type=float, default=0.0)
    _add_law_options(c)
    c.set_defaults(func=cmd_classify)

    s = sub.add_parser("simulate", help="estimate a survival curve from a config")
    s.add_argument("config", help="JSON config with keys "
                   "a, innovation, x, grid, paths, seed, out (optional gnuplot)")
    s.add_argument("--workers", **_WORKERS)
    s.set_defaults(func=cmd_simulate)

    f = sub.add_parser("fit", help="fit the decay class of a stored curve")
    f.add_argument("curve", help="survival-curve JSON file")
    f.set_defaults(func=cmd_fit)

    b = sub.add_parser("bounds", help="theoretical bounds for coefficients")
    b.add_argument("--a", required=True, help="comma-separated coefficients")
    _add_law_options(b)
    b.set_defaults(func=cmd_bounds)

    v = sub.add_parser("verify", help="run every acceptance gate")
    v.add_argument("--only", default=None,
                   help="comma-separated criterion ids to run (default: all ten)")
    v.add_argument("--verbose", action="store_true")
    v.add_argument("--workers", **_WORKERS)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:       # json.JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
