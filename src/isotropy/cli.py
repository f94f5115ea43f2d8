"""Command-line front end.

Subcommands: ``simulate`` (draw a field and emit CSV), ``test`` (run one
test on a CSV dataset), ``study`` (run a Monte Carlo size/power study),
``diagnose`` (directional semivariogram / correlation contours).

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .core import single
from .distributions import RngStream
from .estimators import KERNEL_FAMILIES
from .grf import AnisotropyParams, ExponentialCovariance, GrfSampler
from .io import DataFormatError, format_dataset_csv, read_dataset_csv, write_dataset_csv
from .resampling import Rect
from .spatial_tests import PVALUE_MODES
from .study import (
    METHOD_TABLE,
    NUMERICAL_ERRORS,
    PRESETS,
    MethodSpec,
    StudyConfig,
    StudyError,
    get_preset,
    parse_design,
    run_power_study,
)
from . import diagnostics

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _covariance(args) -> ExponentialCovariance:
    if args.phi is not None:
        return ExponentialCovariance(args.sigma2, args.tau2, args.phi)
    return ExponentialCovariance.from_effective_range(args.xi, args.sigma2, args.tau2)


def _window(args) -> tuple[float, float] | None:
    if args.window is None:
        return None
    try:
        w, h = args.window.lower().split("x")
        return float(w), float(h)
    except ValueError:
        raise CliError(f"cannot parse window {args.window!r}; use WIDTHxHEIGHT",
                       EXIT_USAGE) from None


def _cmd_simulate(args) -> int:
    design = parse_design(args.design)
    cov = _covariance(args)
    aniso = None if args.ratio == 1.0 else AnisotropyParams(args.ratio, args.angle)
    rng = RngStream(args.seed)
    locations, grid, _ = design.sample(rng.substream(1))
    ds = GrfSampler(locations, cov, aniso).draw(rng.substream(2), grid=grid)
    if args.out:
        write_dataset_csv(ds, args.out)
        print(f"wrote {ds.n} observations to {args.out}")
    else:
        sys.stdout.write(format_dataset_csv(ds))
    return EXIT_OK


def _parse_domain(text: str) -> Rect:
    # X0:Y0:WIDTHxHEIGHT
    try:
        x0, y0, wh = text.split(":")
        w, h = wh.lower().split("x")
        sides = float(x0), float(y0), float(w), float(h)
    except ValueError:
        raise CliError(f"cannot parse domain {text!r}; use X0:Y0:WIDTHxHEIGHT",
                       EXIT_USAGE) from None
    return Rect(*sides)


def _cmd_test(args) -> int:
    if not (0 < args.alpha < 1):
        raise CliError("alpha must be in (0, 1)", EXIT_USAGE)
    ds = read_dataset_csv(args.data)
    method = METHOD_TABLE[args.method]
    if ds.n < method.min_n:
        print(f"warning: n={ds.n} is below the recommended minimum "
              f"{method.min_n} for {args.method}; interpret with care",
              file=sys.stderr)
    # The distribution of sampling locations is the first consideration
    # when choosing a test.
    suited = " or ".join(name for name, m in METHOD_TABLE.items()
                         if m.needs_grid == (ds.grid is not None))
    if method.needs_grid and ds.grid is None:
        raise CliError(
            f"method {args.method} requires gridded sampling locations; this dataset "
            f"is not on a grid: use {suited} for non-gridded data.", EXIT_DATA)
    if not method.needs_grid and ds.grid is not None:
        print(f"note: dataset is gridded; {suited} is usually preferable", file=sys.stderr)
    spec = MethodSpec(
        args.method, lag_scale=args.lag_scale, extra_lag_pair=args.extra_lags,
        window=_window(args), offset_step=args.step, kernel=args.kernel,
        truncation=args.truncation, bandwidth=args.bandwidth,
        pvalue_mode=args.pvalue_mode, n_boot=args.n_boot, tuning=args.tuning)
    given = {"seed": args.seed != 0, "domain": args.domain is not None}
    method.refuse_unread(args.method, [name for name, is_given in given.items() if is_given])
    domain = _parse_domain(args.domain) if args.domain else Rect.from_dataset(ds)
    res = single(method.run(spec, ds, ds.values[None], domain, args.alpha, [RngStream(args.seed)]))
    payload = res.to_dict() | {"alpha": args.alpha}
    payload["diagnostics"] = payload.pop("diagnostics")  # the long entry goes last
    for key, value in payload.items():
        print(f"{key}: {value:.6f}" if isinstance(value, float) else f"{key}: {value}")
    print(f"decision at alpha={args.alpha}: "
          f"{'reject' if res.rejects(args.alpha) else 'do not reject'} the null")
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_study(args) -> int:
    overrides = {key: value for key, value in (
        ("replicates", args.replicates), ("master_seed", args.seed)) if value is not None}
    if args.preset:
        config = get_preset(args.preset, **overrides)
    elif args.config:
        if overrides:
            raise CliError("--replicates and --seed only apply to --preset", EXIT_USAGE)
        config = StudyConfig.from_json(Path(args.config).read_text())
    else:
        raise CliError("study needs --preset or --config", EXIT_USAGE)

    def progress(done, total):
        if args.verbose:
            print(f"\r{done}/{total} blocks", end="", file=sys.stderr, flush=True)

    report = run_power_study(config, threads=args.threads, progress=progress)
    if args.verbose:
        print(file=sys.stderr)
    print(report.table())
    if args.out:
        out = Path(args.out)
        out.write_text(report.to_csv())
        echo = out.with_suffix(".config.json")
        echo.write_text(config.to_json() + "\n")
        print(f"report written to {out} (config echo in {echo})")
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    if args.what == "directional":
        ds = read_dataset_csv(args.data)
        rows = diagnostics.directional_semivariogram(
            ds, args.directions, args.bins, args.max_dist)
        lines = ["direction_deg,distance,gamma,n_pairs"]
        lines += [f"{d:.6g},{c:.9g},{g:.9g},{n}" for d, c, g, n in rows]
    else:
        cov = _covariance(args)
        aniso = None if args.ratio == 1.0 else AnisotropyParams(args.ratio, args.angle)
        levels = tuple(float(v) for v in args.levels.split(","))
        rows = diagnostics.equicorrelation_contours(cov, aniso, levels)
        lines = ["level,x,y"]
        lines += [f"{lv:.6g},{x:.9g},{y:.9g}" for lv, x, y in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(lines) - 1} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_cov_args(p):
    p.add_argument("--sigma2", type=float, default=1.0, help="partial sill")
    p.add_argument("--tau2", type=float, default=0.0, help="nugget")
    scale = p.add_mutually_exclusive_group()
    scale.add_argument("--xi", type=float, default=6.0,
                       help="effective range (correlation 0.05 distance)")
    scale.add_argument("--phi", type=float, default=None,
                       help="decay rate (instead of --xi)")
    p.add_argument("--ratio", type=float, default=1.0, help="anisotropy ratio R >= 1")
    p.add_argument("--angle", type=float, default=0.0,
                   help="anisotropy rotation in radians")


def _spec_default(name: str):
    """The default of a :class:`MethodSpec` field, which ``test`` uses as is."""
    return MethodSpec.__dataclass_fields__[name].default


def build_parser() -> _Parser:
    p = _Parser(prog="isotropy",
                description="Nonparametric tests of isotropy and symmetry "
                            "for spatial random fields.")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="simulate a Gaussian random field to CSV")
    ps.add_argument("--design", required=True,
                    help="grid:COLSxROWS[:SPACING] or uniform:N:WIDTHxHEIGHT")
    _add_cov_args(ps)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", default=None, help="output CSV (default stdout)")
    ps.set_defaults(func=_cmd_simulate)

    pt = sub.add_parser("test", help="run one isotropy/symmetry test on a CSV")
    pt.add_argument("data", help="input CSV with header x,y,value")
    pt.add_argument("--method", required=True, choices=list(METHOD_TABLE))
    pt.add_argument("--alpha", type=float, default=0.05)
    pt.add_argument("--lag-scale", type=float, default=_spec_default("lag_scale"),
                    help="multiplier of the default lags, in grid spacings")
    pt.add_argument("--extra-lags", action="store_true",
                    help="append the 22.5/112.5-degree lag pair")
    pt.add_argument("--window", default=None, help="WIDTHxHEIGHT window/block")
    pt.add_argument("--step", type=float, default=None, help="window offset step")
    pt.add_argument("--bandwidth", type=float, default=_spec_default("bandwidth"))
    pt.add_argument("--kernel", choices=KERNEL_FAMILIES,
                    default=_spec_default("kernel"))
    pt.add_argument("--truncation", type=float, default=_spec_default("truncation"))
    pt.add_argument("--pvalue-mode", choices=PVALUE_MODES, default=None)
    pt.add_argument("--n-boot", type=int, default=_spec_default("n_boot"))
    pt.add_argument("--tuning", type=float, default=_spec_default("tuning"))
    pt.add_argument("--seed", type=int, default=0, help="bootstrap seed (ms)")
    pt.add_argument("--domain", default=None,
                    help="sampling domain X0:Y0:WIDTHxHEIGHT "
                         "(default: inferred from the data)")
    pt.add_argument("--out", default=None, help="write result JSON here")
    pt.set_defaults(func=_cmd_test)

    pu = sub.add_parser("study", help="run a Monte Carlo size/power study")
    pu.add_argument("--preset", choices=sorted(PRESETS), default=None)
    pu.add_argument("--config", default=None, help="study config JSON file")
    pu.add_argument("--replicates", type=int, default=None,
                    help="override preset replicate count")
    pu.add_argument("--seed", type=int, default=None, help="override master seed")
    pu.add_argument("--threads", type=int, default=1)
    pu.add_argument("--out", default=None, help="write report CSV here")
    pu.add_argument("--verbose", action="store_true")
    pu.set_defaults(func=_cmd_study)

    pd = sub.add_parser("diagnose", help="emit plot-ready diagnostics as CSV")
    kinds = pd.add_subparsers(dest="what", required=True)
    pdd = kinds.add_parser("directional", help="directional sample semivariogram of a CSV")
    pdd.add_argument("--data", required=True, help="input CSV")
    pdd.add_argument("--directions", type=int, default=4)
    pdd.add_argument("--bins", type=int, default=10)
    pdd.add_argument("--max-dist", type=float, default=None)
    pdd.add_argument("--out", default=None)
    pdc = kinds.add_parser("contours", help="equicorrelation contours of a covariance")
    _add_cov_args(pdc)
    pdc.add_argument("--levels", default="0.1,0.3,0.5,0.7,0.9")
    pdc.add_argument("--out", default=None)
    pd.set_defaults(func=_cmd_diagnose)
    return p


@functools.cache
def _parser() -> _Parser:
    """The parser of :func:`main`, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DataFormatError,) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (StudyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
