"""Command-line interface: simulate, fit, moments, diagnose, mc-study.

CSV comes in (one count column, optional covariate columns), JSON or CSV
goes out.  Only ``fit`` and ``diagnose`` read a CSV, so only ``diagnose``
takes covariate coefficients (``--gammas``).  Exit codes: 0 success,
1 configuration error, an unknown flag included, 2 ingestion error, a
non-finite covariate included, 3 numerical failure, a fit window without a
positive count and a non-finite output value included (nothing is
written), 4 non-convergence (the result is still written).
Number serialization relies on Python's shortest-round-trip float
representation, so re-reading and re-serializing any output reproduces it
byte for byte; identical seeds reproduce identical artifacts, also for
parallel mc-study runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Optional

import numpy as np

from .diagnostics import pearson_residuals
from .estimation import (
    _METHOD_FITTERS,
    FitResult,
    _repeated,
    fit_clade,
    fit_cls,
    fit_mle,
    mc_study,
)
from .extensions import fit_stbingarch_mle, fit_tinars1_mle
from .stingarch import (
    _EXACT_INT_LIMIT,
    CountSeries,
    ModelSpec,
    _positive_bound,
    exact_moments_stinarch1,
    linear_approx_moments,
    simulate,
    simulated_moments,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INGEST = 2
EXIT_NUMERICAL = 3
EXIT_NONCONVERGED = 4


class ConfigError(Exception):
    pass


class IngestError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route everything through
    # the config-error path instead
    def error(self, message):
        raise ConfigError(message)


def _refusal(cells: list[str], width: int) -> Optional[str]:
    """The first check a stripped data row fails, in precedence order."""
    if len(cells) != width:
        return f"expected {width} columns, got {len(cells)}"
    if "" in cells:
        return "missing value"
    try:
        value = float(cells[0])
    except ValueError:
        return f"{cells[0]!r} is not a number"
    if not value.is_integer():
        return f"count {cells[0]!r} is fractional"
    if value < 0:
        return f"count {cells[0]!r} is negative"
    if value >= _EXACT_INT_LIMIT:
        return f"count {cells[0]!r} is too large"
    try:
        if all(map(math.isfinite, map(float, cells[1:]))):
            return None
    except ValueError:
        pass
    return "bad covariate value"


def ingest_csv(path: str) -> CountSeries:
    """Read counts (first column) and covariates (remaining columns).

    Blank rows are skipped, and so is a first row whose first cell is not a
    number (a header).  The first data row fixes the width.  Every other
    row raises ``IngestError`` naming its 1-based row number; the earliest
    bad row wins, and within a row the checks run in this order:

    - ``expected W columns, got K``;
    - ``missing value``, for an empty cell;
    - ``'…' is not a number``, for the count;
    - ``count '…' is fractional``, ``NaN`` and infinities included;
    - ``count '…' is negative``;
    - ``count '…' is too large``, at 2**53 or more, where a float no
      longer holds every integer exactly;
    - ``bad covariate value``, for a covariate that is not a finite
      number (``nan`` and ``inf`` included).

    A file that cannot be opened or holds no data row is refused too.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}") from exc
    counts: list[float] = []
    covars: list[list[float]] = []
    width = 0  # until the first data row
    with handle:
        for row_no, row in enumerate(csv.reader(handle), start=1):
            # a clean row costs its float parses (which strip whitespace
            # themselves); any other row goes through the ordered checks
            try:
                value = float(row[0])
                zrow = list(map(float, row[1:])) if width > 1 else None
            except (IndexError, ValueError):
                value = -1.0  # fails the range test below
            if (
                len(row) != width
                or not (value.is_integer() and 0.0 <= value < _EXACT_INT_LIMIT)
                or (width > 1 and not all(map(math.isfinite, zrow)))
            ):
                cells = list(map(str.strip, row))
                if not any(cells):
                    continue
                if row_no == 1:
                    try:
                        float(cells[0])
                    except ValueError:
                        continue  # header row
                width = width or len(cells)
                refusal = _refusal(cells, width)
                if refusal is not None:
                    raise IngestError(f"row {row_no}: {refusal}")
                value = float(cells[0])
                zrow = list(map(float, cells[1:]))
            counts.append(value)
            if width > 1:
                covars.append(zrow)
    if not counts:
        raise IngestError(f"{path}: no data rows")
    z = np.array(covars) if covars else None
    return CountSeries(np.array(counts).astype(np.int64), covariates=z)


def _parse_float_list(text: Optional[str]) -> tuple[float, ...]:
    if not text:
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad coefficient list {text!r}") from exc


def _spec_from_args(args) -> ModelSpec:
    alphas = list(_parse_float_list(getattr(args, "alphas", None)))
    if getattr(args, "alpha1", None) is not None:
        if alphas:
            raise ConfigError("pass either --alpha1 or --alphas, not both")
        alphas = [args.alpha1]
    betas = list(_parse_float_list(getattr(args, "betas", None)))
    if getattr(args, "beta1", None) is not None:
        if betas:
            raise ConfigError("pass either --beta1 or --betas, not both")
        betas = [args.beta1]
    gammas = _parse_float_list(getattr(args, "gammas", None))
    if args.alpha0 is None:
        raise ConfigError("--alpha0 is required")
    if args.delta is None:
        raise ConfigError("--delta is required")
    try:
        return ModelSpec(
            alpha0=args.alpha0,
            alphas=alphas,
            betas=betas,
            delta=args.delta,
            gammas=gammas,
            bound=getattr(args, "bound", None),
            kappa=getattr(args, "kappa", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _scenario_from_args(args) -> Optional[float]:
    """``None`` (scenario 2) under ``--scenario2``, else the fixed dispersion."""
    if args.scenario2:
        return None
    return args.delta if args.delta is not None else 0.25


def _json_dump(payload: dict, path: Optional[str]) -> None:
    # NaN and Infinity are not JSON: a non-finite value raises ValueError
    # (exit 3) before anything is written
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_series_csv(series: CountSeries, path: Optional[str]) -> None:
    counts = series.counts.tolist()
    if series.covariates is None:
        header, rows = "count", map(str, counts)
    else:
        z = series.covariates.tolist()
        header = ",".join(["count"] + [f"z{k + 1}" for k in range(len(z[0]))])
        rows = (",".join([str(c), *map(repr, zrow)]) for c, zrow in zip(counts, z))
    text = "\n".join([header, *rows]) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _moment_dict(summary) -> dict:
    return {
        "mean": summary.mean,
        "dispersion_ratio": summary.dispersion_ratio,
        "acf": [float(v) for v in summary.acf],
        "pacf": [float(v) for v in summary.pacf],
        "method": summary.method,
    }


def _fit_payload(fit: FitResult, residual_summary: Optional[dict]) -> dict:
    payload = {
        "method": fit.method,
        "estimates": {
            name: float(value)
            for name, value in zip(fit.param_names, fit.estimates)
        },
        "std_errors": (
            {
                name: float(value)
                for name, value in zip(fit.param_names, fit.std_errors)
            }
            if fit.std_errors is not None
            else None
        ),
        "loglik": fit.loglik,
        "aic": fit.aic,
        "bic": fit.bic,
        "objective": fit.objective,
        "hessian_invertible": fit.hessian_invertible,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "n_effective": fit.n_effective,
    }
    if residual_summary is not None:
        payload["pearson_residuals"] = residual_summary
    return payload


def _residual_summary(spec, series) -> dict:
    report = pearson_residuals(spec, series, max_lag=5)
    return {
        "mean": report.mean,
        "variance": report.variance,
        **{f"acf{h}": float(report.acf[h - 1]) for h in range(1, 6)},
    }


def _cmd_simulate(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    if args.burn_in < 0:
        raise ConfigError("--burn-in must be >= 0")
    spec = _spec_from_args(args)
    rng = np.random.default_rng(args.seed)
    series = simulate(spec, args.n, burn_in=args.burn_in, rng=rng, warn_nonstationary=False)
    _write_series_csv(series, args.output)
    return EXIT_OK


def _cmd_fit(args) -> int:
    # refuse every flag the chosen model or method would ignore
    given = {"-p": args.p, "-q": args.q, "--delta": args.delta, "--bound": args.bound}
    given["--method"] = None if args.method == "mle" else args.method
    given["--scenario2"] = args.scenario2 or None
    if args.model == "tinars1":
        unused = tuple(given)
    elif args.model == "stbingarch":
        unused = ("--method", "--scenario2")
    else:
        unused = ("--bound",) if args.method == "mle" else ("--bound", "--delta", "--scenario2")
    for flag in unused:
        if given[flag] is not None:
            raise ConfigError(
                f"{flag} does not apply to --model {args.model}, --method {args.method}"
            )
    p = 1 if args.p is None else args.p
    q = 0 if args.q is None else args.q
    for flag, order in (("-p", p), ("-q", q)):
        if order < 0:
            raise ConfigError(f"{flag} must be >= 0, got {order}")
    series = ingest_csv(args.input)
    if args.model == "tinars1":
        fit = fit_tinars1_mle(series)
    elif args.model == "stbingarch":
        if args.bound is None:
            raise ConfigError("--bound is required for the bounded model")
        try:
            _positive_bound(args.bound)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        fit = fit_stbingarch_mle(
            series,
            (p, q),
            bound=args.bound,
            delta=args.delta if args.delta is not None else 0.01,
        )
    else:
        r = 0 if series.covariates is None else series.covariates.shape[1]
        if args.method == "mle":
            fit = fit_mle(series, (p, q, r), _scenario_from_args(args))
        elif args.method == "clade":
            fit = fit_clade(series, (p, q, r))
        else:
            fit = fit_cls(series, (p, q, r))
    residuals = None
    if fit.method.startswith("mle"):
        residuals = _residual_summary(fit.spec, series)
    _json_dump(_fit_payload(fit, residuals), args.output)
    return EXIT_OK if fit.converged else EXIT_NONCONVERGED


def _cmd_moments(args) -> int:
    spec = _spec_from_args(args)
    if args.max_lag < 1:
        raise ConfigError("--max-lag must be >= 1")
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    if args.method in ("simulated", "all") and args.n <= args.max_lag:
        raise ConfigError(f"--n must exceed --max-lag {args.max_lag}, got {args.n}")
    payload = {"spec": {
        "alpha0": spec.alpha0,
        "alphas": list(spec.alphas),
        "betas": list(spec.betas),
        "delta": spec.delta,
    }}
    which = args.method
    stinarch1 = spec.p == 1 and spec.q == 0 and spec.r == 0
    if which == "exact" and not stinarch1:
        raise ConfigError(
            "--method exact needs a STINARCH(1) model, one count coefficient without "
            f"feedback or covariates: got p={spec.p}, q={spec.q}, r={spec.r}"
        )
    payload["exact"] = None
    if which in ("exact", "all") and stinarch1:
        payload["exact"] = _moment_dict(exact_moments_stinarch1(spec, args.max_lag))
    payload["linear"] = None
    if which in ("linear", "all"):
        payload["linear"] = _moment_dict(linear_approx_moments(spec, args.max_lag))
    payload["simulated"] = None
    if which in ("simulated", "all"):
        rng = np.random.default_rng(args.seed)
        payload["simulated"] = _moment_dict(
            simulated_moments(spec, args.n, args.max_lag, rng=rng)
        )
    _json_dump(payload, args.output)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    if args.max_lag < 1:
        raise ConfigError("--max-lag must be >= 1")
    series = ingest_csv(args.input)
    spec = _spec_from_args(args)
    report = pearson_residuals(spec, series, max_lag=args.max_lag)
    payload = {
        "mean": report.mean,
        "variance": report.variance,
        "acf": [float(v) for v in report.acf],
    }
    _json_dump(payload, args.output)
    if args.acf_output:
        lines = ["lag,acf"] + [
            f"{h},{float(report.acf[h - 1])!r}" for h in range(1, args.max_lag + 1)
        ]
        with open(args.acf_output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_mc_study(args) -> int:
    # the whole configuration is checked, also for zero replications
    spec = _spec_from_args(args)
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    if args.replications < 0:
        raise ConfigError("--replications must be >= 0")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    methods = tuple(part.strip() for part in args.methods.split(",") if part.strip())
    if not methods:
        raise ConfigError("--methods names no method")
    unknown = sorted(set(methods) - set(_METHOD_FITTERS))
    if unknown:
        raise ConfigError(f"unknown --methods {unknown}; choose from {sorted(_METHOD_FITTERS)}")
    repeated = _repeated(methods)
    if repeated:
        raise ConfigError(f"--methods names {repeated} more than once")
    if args.replications == 0:
        _json_dump({"replications": 0, "methods": {}}, args.output)
        return EXIT_OK
    result = mc_study(
        spec,
        n=args.n,
        replications=args.replications,
        methods=methods,
        scenario=_scenario_from_args(args),
        seed=args.seed,
        jobs=args.jobs,
    )
    _json_dump(result.to_dict(), args.output)
    return EXIT_OK


def _add_spec_arguments(parser, with_bound: bool = True) -> None:
    parser.add_argument("--alpha0", type=float, help="intercept of the mean recursion")
    parser.add_argument("--alpha1", type=float, help="lag-1 count coefficient")
    parser.add_argument("--alphas", type=str, help="comma-separated count coefficients")
    parser.add_argument("--beta1", type=float, help="lag-1 feedback coefficient")
    parser.add_argument("--betas", type=str, help="comma-separated feedback coefficients")
    parser.add_argument("--delta", type=float, help="dispersion parameter")
    if with_bound:
        parser.add_argument("--bound", type=int, help="upper bound N for bounded counts")
        parser.add_argument("--kappa", type=float, default=0.0, help="one-inflation probability")


def build_parser() -> _Parser:
    parser = _Parser(prog="tobitcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a count series to CSV")
    _add_spec_arguments(sim)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--burn-in", type=int, default=500, dest="burn_in")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--output", type=str, default=None)

    fit = sub.add_parser("fit", help="fit a model to a CSV series")
    fit.add_argument("--model", choices=["stingarch", "tinars1", "stbingarch"], default="stingarch")
    fit.add_argument("-p", type=int, default=None)  # unset: (1, 0), refused by tinars1
    fit.add_argument("-q", type=int, default=None)
    fit.add_argument("--method", choices=["mle", "clade", "cls"], default="mle")
    fit.add_argument("--scenario2", action="store_true", default=False)
    fit.add_argument("--delta", type=float, default=None)
    fit.add_argument("--bound", type=int, default=None)
    fit.add_argument("--input", type=str, required=True)
    fit.add_argument("--output", type=str, default=None)

    mom = sub.add_parser("moments", help="exact / linear / simulated marginal moments")
    _add_spec_arguments(mom, with_bound=False)
    mom.add_argument("--method", choices=["exact", "linear", "simulated", "all"], default="all")
    mom.add_argument("--max-lag", type=int, default=3, dest="max_lag")
    mom.add_argument("--n", type=int, default=1_000_000)
    mom.add_argument("--seed", type=int, default=0)
    mom.add_argument("--output", type=str, default=None)

    diag = sub.add_parser("diagnose", help="Pearson-residual report for a given model")
    _add_spec_arguments(diag)
    # of the commands that take a model, only diagnose reads covariates
    diag.add_argument("--gammas", type=str, help="comma-separated covariate coefficients")
    diag.add_argument("--input", type=str, required=True)
    diag.add_argument("--max-lag", type=int, default=5, dest="max_lag")
    diag.add_argument("--output", type=str, default=None)
    diag.add_argument("--acf-output", type=str, default=None, dest="acf_output")

    mc = sub.add_parser("mc-study", help="estimator-recovery Monte Carlo experiment")
    _add_spec_arguments(mc, with_bound=False)
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--replications", type=int, required=True)
    mc.add_argument("--methods", type=str, default="mle,clade,cls")
    mc.add_argument("--scenario2", action="store_true", default=False)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--jobs", type=int, default=1)
    mc.add_argument("--output", type=str, default=None)
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "moments": _cmd_moments,
    "diagnose": _cmd_diagnose,
    "mc-study": _cmd_mc_study,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IngestError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except (ArithmeticError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
