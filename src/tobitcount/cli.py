"""Command-line interface: simulate, fit, moments, diagnose, mc-study.

CSV comes in (one count column, optional covariate columns), JSON or CSV
goes out.  Exit codes: 0 success, 1 configuration error, 2 ingestion error,
3 numerical failure, 4 non-convergence (the result is still written).
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
import os
import sys
from typing import Optional

import numpy as np

from .diagnostics import pearson_residuals
from .estimation import EstimationScenario, FitResult, fit_clade, fit_cls, fit_mle, mc_study
from .extensions import fit_stbingarch_mle, fit_tinars1_mle
from .stingarch import (
    CountSeries,
    ModelSpec,
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


def ingest_csv(path: str) -> CountSeries:
    """Read counts (first column) and covariates (remaining columns).

    A non-numeric first row is treated as a header.  Negative, fractional
    or missing values are rejected with the offending 1-based row number.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}") from exc
    counts: list[int] = []
    covars: list[list[float]] = []
    width: Optional[int] = None
    with handle:
        reader = csv.reader(handle)
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            cells = [cell.strip() for cell in row]
            if row_no == 1:
                try:
                    float(cells[0])
                except ValueError:
                    continue  # header row
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise IngestError(f"row {row_no}: expected {width} columns, got {len(cells)}")
            if any(cell == "" for cell in cells):
                raise IngestError(f"row {row_no}: missing value")
            try:
                value = float(cells[0])
            except ValueError as exc:
                raise IngestError(f"row {row_no}: {cells[0]!r} is not a number") from exc
            if not value.is_integer():
                raise IngestError(f"row {row_no}: count {cells[0]!r} is fractional")
            if value < 0:
                raise IngestError(f"row {row_no}: count {cells[0]!r} is negative")
            counts.append(int(value))
            try:
                covars.append([float(cell) for cell in cells[1:]])
            except ValueError as exc:
                raise IngestError(f"row {row_no}: bad covariate value") from exc
    if not counts:
        raise IngestError(f"{path}: no data rows")
    z = np.asarray(covars) if covars and covars[0] else None
    return CountSeries(np.asarray(counts), covariates=z)


def _parse_float_list(text: Optional[str]) -> tuple[float, ...]:
    if not text:
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad coefficient list {text!r}") from exc


def _spec_from_args(args, require_delta: bool = True) -> ModelSpec:
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
    delta = args.delta
    if delta is None:
        if require_delta:
            raise ConfigError("--delta is required")
        delta = 0.25
    try:
        return ModelSpec(
            alpha0=args.alpha0,
            alphas=alphas,
            betas=betas,
            delta=delta,
            gammas=gammas,
            bound=getattr(args, "bound", None),
            kappa=getattr(args, "kappa", None),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _json_dump(payload: dict, path: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_series_csv(series: CountSeries, path: Optional[str]) -> None:
    lines = []
    r = 0 if series.covariates is None else series.covariates.shape[1]
    lines.append(",".join(["count"] + [f"z{k+1}" for k in range(r)]))
    for t in range(len(series)):
        row = [str(int(series.counts[t]))]
        if r:
            row += [repr(float(v)) for v in series.covariates[t]]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
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
    series = ingest_csv(args.input)
    if args.model == "stingarch":
        scenario = (
            EstimationScenario.free()
            if args.scenario2
            else EstimationScenario.fixed(args.delta if args.delta is not None else 0.25)
        )
        r = 0 if series.covariates is None else series.covariates.shape[1]
        if args.method == "mle":
            fit = fit_mle(series, (args.p, args.q, r), scenario)
        elif args.method == "clade":
            fit = fit_clade(series, (args.p, args.q, r))
        else:
            fit = fit_cls(series, (args.p, args.q, r))
        residuals = None
        if fit.spec is not None and fit.method.startswith("mle"):
            residuals = _residual_summary(fit.spec, series)
    elif args.model == "stbingarch":
        if args.bound is None:
            raise ConfigError("--bound is required for the bounded model")
        fit = fit_stbingarch_mle(
            series,
            (args.p, args.q),
            bound=args.bound,
            delta=args.delta if args.delta is not None else 0.01,
        )
        residuals = _residual_summary(fit.spec, series) if fit.spec else None
    else:  # tinars1
        fit = fit_tinars1_mle(series)
        from .extensions import TinarsSpec

        spec = TinarsSpec(alpha1=float(fit.estimates[1]), innovation_mean=float(fit.estimates[0]))
        residuals = _residual_summary(spec, series)
    _json_dump(_fit_payload(fit, residuals), args.output)
    return EXIT_OK if fit.converged else EXIT_NONCONVERGED


def _cmd_moments(args) -> int:
    spec = _spec_from_args(args)
    if args.max_lag < 1:
        raise ConfigError("--max-lag must be >= 1")
    payload = {"spec": {
        "alpha0": spec.alpha0,
        "alphas": list(spec.alphas),
        "betas": list(spec.betas),
        "delta": spec.delta,
    }}
    which = args.method
    payload["exact"] = None
    if which in ("exact", "all") and spec.q == 0 and spec.p == 1:
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
    spec = _spec_from_args(args)
    if args.replications < 0:
        raise ConfigError("--replications must be >= 0")
    if args.replications == 0:
        _json_dump({"replications": 0, "methods": {}}, args.output)
        return EXIT_OK
    methods = tuple(part.strip() for part in args.methods.split(",") if part.strip())
    scenario = EstimationScenario.free() if args.scenario2 else EstimationScenario.fixed(
        args.delta if args.delta is not None else 0.25
    )
    jobs = args.jobs or int(os.environ.get("TOBITCOUNT_JOBS", "1"))
    result = mc_study(
        spec,
        n=args.n,
        replications=args.replications,
        methods=methods,
        scenario=scenario,
        seed=args.seed,
        jobs=jobs,
    )
    _json_dump(result.to_dict(), args.output)
    return EXIT_OK


def _add_spec_arguments(parser, with_bound: bool = True) -> None:
    parser.add_argument("--alpha0", type=float, help="intercept of the mean recursion")
    parser.add_argument("--alpha1", type=float, help="lag-1 count coefficient")
    parser.add_argument("--alphas", type=str, help="comma-separated count coefficients")
    parser.add_argument("--beta1", type=float, help="lag-1 feedback coefficient")
    parser.add_argument("--betas", type=str, help="comma-separated feedback coefficients")
    parser.add_argument("--gammas", type=str, help="comma-separated covariate coefficients")
    parser.add_argument("--delta", type=float, help="dispersion parameter")
    if with_bound:
        parser.add_argument("--bound", type=int, help="upper bound N for bounded counts")
        parser.add_argument("--kappa", type=float, help="one-inflation probability")


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
    fit.add_argument("-p", type=int, default=1)
    fit.add_argument("-q", type=int, default=0)
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
    mc.add_argument("--jobs", type=int, default=None)
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
