"""The four workloads: their inputs, their CLI calls and the output checks.

Every operation is one ``tobitcount.cli.main(argv)`` call.  Its check reads
the written output and compares it with the independent evaluation in
:mod:`oracle` and, where the seed commit's value for the same input was
recorded in ``reference.json``, with that value.  Fit checks are one-sided:
a later optimizer may find a better optimum, never a worse one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import inputs, oracle

# relative tolerance on log-likelihoods and objectives, scaled by 1 + |value|
LL_TOL = 1e-9
# absolute tolerance on Pearson-residual summaries
SUMMARY_TOL = 1e-9
# warm-up inputs ignore the workload seed, so warm-up costs the same in every run
WARMUP_SEED = 0

class CheckFailed(Exception):
    pass


@dataclass
class Op:
    """One CLI call plus what its check needs."""

    kind: str
    argv: list[str]
    key: str
    check: Callable[[str], dict]
    # units of work the call completes: fits, reps, sim_obs or resid_obs
    work: dict = field(default_factory=dict)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _at_least(value: float, floor: float, what: str) -> None:
    _require(value >= floor - LL_TOL * (1.0 + abs(floor)), f"{what}: {value!r} < {floor!r}")


def _at_most(value: float, ceiling: float, what: str) -> None:
    _require(value <= ceiling + LL_TOL * (1.0 + abs(ceiling)), f"{what}: {value!r} > {ceiling!r}")


def _close(value: float, target: float, what: str) -> None:
    _require(
        abs(value - target) <= LL_TOL * (1.0 + abs(target)),
        f"{what}: reported {value!r}, independent evaluation {target!r}",
    )


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _op_key(argv: list[str], digest: str) -> str:
    return " ".join(argv) + " input=" + digest


def _fit_common(payload: dict, reference: Optional[dict]) -> tuple[float, dict]:
    """Checks shared by every maximum-likelihood fit; returns loglik and counters."""
    ll = payload["loglik"]
    _require(_finite(ll, *payload["estimates"].values()), "non-finite estimate or loglik")
    counters = {
        "iterations": int(payload["iterations"]),
        "nonconverged": int(not payload["converged"]),
        "hessian_noninvertible": int(not payload["hessian_invertible"]),
    }
    if payload["hessian_invertible"]:
        ses = list(payload["std_errors"].values())
        _require(all(_finite(v) and v > 0.0 for v in ses), "standard error not finite and positive")
    summary = payload.get("pearson_residuals")
    _require(summary is not None and _finite(*summary.values()), "residual summary missing")
    _require(summary["variance"] > 0.0, "residual variance not positive")
    if reference is not None:
        _at_least(ll, reference["loglik"], "loglik below the seed commit's")
    return ll, counters


class Workload:
    name = ""
    min_op_s = 1.0  # lower bound on one operation's time, sizes the input pool

    def __init__(self, seed: int, seconds: float, reference: dict) -> None:
        self.seed = seed
        self.reference = reference
        self.pool_size = max(4, math.ceil(seconds / self.min_op_s))
        self.records: list[dict] = []

    # -- inputs ------------------------------------------------------------
    def make_inputs(self, directory: str) -> None:
        """Generate and write every input file into ``directory``."""

    def _write(self, directory: str, stem: str, counts: np.ndarray) -> dict:
        record = inputs.write_csv(os.path.join(directory, stem + ".csv"), counts)
        record["path"] = os.path.join(directory, stem + ".csv")
        record["counts"] = counts
        return record

    def public_records(self) -> list[dict]:
        return [{k: v for k, v in r.items() if k not in ("counts", "path")} for r in self.records]

    # -- operations ----------------------------------------------------------
    def op(self, index: int) -> Op:
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        return []

    def probe(self):
        """``(spec, series)`` for the conditional-mean-path probe."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# tobit-zeros
# ---------------------------------------------------------------------------


class TobitZeros(Workload):
    """(1,1) MLE under scenarios 1 and 2 on two DGPs, about 25% and 85% zeros.

    Not in ``BENCHMARK.json``: a fit takes 1 to 25 s, depending on how long
    the BFGS polish runs on that series, so no statistic over the few fits
    of one run is steady.  Run it by hand to see the zero-count score layer.
    """

    name = "tobit-zeros"
    min_op_s = 1.0
    N = 1000
    DGPS = ((0.6, 0.3, 0.3, 0.5), (-0.5, 0.4, 0.3, 1.0))
    ZEROS = ("zeros25", "zeros85")
    COMBOS = ((0, False), (0, True), (1, False), (1, True))

    def make_inputs(self, directory: str) -> None:
        self.records = []
        for i in range(self.pool_size):
            dgp = self.DGPS[self.COMBOS[i % 4][0]]
            x = inputs.stingarch_series(inputs.series_rng(self.seed, i), self.N, *dgp)
            self.records.append(self._write(directory, f"tz{i}", x))
        tiny = inputs.stingarch_series(inputs.series_rng(WARMUP_SEED, 0), 100, *self.DGPS[0])
        self.warm = self._write(directory, "tz-warm", tiny)

    def _fit_op(self, record, dgp_index, scenario2) -> Op:
        dgp = self.DGPS[dgp_index]
        flags = ["--scenario2"] if scenario2 else ["--delta", repr(dgp[3])]
        argv = ["fit", "-p", "1", "-q", "1", *flags]
        key = _op_key(argv, record["sha256"])
        x = record["counts"]

        def check(out_path):
            payload = _load_json(out_path)
            est = payload["estimates"]
            ll, counters = _fit_common(payload, self.reference.get(key))
            delta = est["delta"] if scenario2 else dgp[3]
            theta = (est["alpha0"], est["alpha1"], est["beta1"], delta)
            _close(ll, oracle.stingarch_loglik(x, *theta), "loglik")
            _at_least(ll, oracle.stingarch_loglik(x, *dgp), "loglik below the true parameters'")
            counters["values"] = {"loglik": ll}
            return counters

        kind = f"fit-{self.ZEROS[dgp_index]}-{'s2' if scenario2 else 's1'}"
        return Op(kind, argv + ["--input", record["path"]], key, check, {"fits": 1})

    def op(self, index):
        j = index % self.pool_size
        dgp_index, scenario2 = self.COMBOS[j % 4]
        return self._fit_op(self.records[j], dgp_index, scenario2)

    def warmup_ops(self):
        return [self._fit_op(self.warm, 0, s2) for s2 in (False, True)]

    def probe(self):
        from tobitcount.stingarch import CountSeries, ModelSpec

        a0, a1, b1, d = self.DGPS[1]
        spec = ModelSpec(alpha0=a0, alphas=[a1], betas=[b1], delta=d)
        return spec, CountSeries(self.records[2]["counts"])


# ---------------------------------------------------------------------------
# paper-mc
# ---------------------------------------------------------------------------


class PaperMC(Workload):
    """The paper's estimator-recovery experiment, one replication per call.

    Series of length 250 instead of 500: a replication's time varies by
    about 15% from series to series, and the shorter series let a 30 s run
    average over about 10 replications instead of 7.
    """

    name = "paper-mc"
    min_op_s = 1.0
    N = 250
    DGP = (2.0, 0.4, 0.2, 0.25)

    def _mc_op(self, n: int, seed: int) -> Op:
        a0, a1, b1, d = self.DGP
        argv = [
            "mc-study", "--alpha0", repr(a0), "--alpha1", repr(a1), "--beta1", repr(b1),
            "--delta", repr(d), "--n", str(n), "--replications", "1",
            "--methods", "mle,clade,cls", "--scenario2", "--jobs", "1", "--seed", str(seed),
        ]
        key = " ".join(argv)

        def check(out_path):
            payload = _load_json(out_path)
            _require(payload["replications"] == 1, "replication count")
            methods = payload["methods"]
            _require(sorted(methods) == ["clade", "cls", "mle"], "method set")
            for name, entry in methods.items():
                _require(entry["failures"] == 0, f"{name} raised on the replication")
                _require(_finite(*entry["mean"]), f"{name} estimate not finite")
            _require(payload["optimizer_regressions"] == 0, "MLE below the true parameters' loglik")
            x = _mc_series(self.DGP, n, seed)
            truth = self.DGP
            mle = methods["mle"]["mean"]
            ll = oracle.stingarch_loglik(x, *mle)
            _at_least(ll, oracle.stingarch_loglik(x, *truth), "MLE loglik below the true parameters'")
            values = {"mle_loglik": ll}
            for name, power in (("cls", 2), ("clade", 1)):
                obj = _censored_objective(x, methods[name]["mean"], power)
                _at_most(obj, _censored_objective(x, truth[:3], power), f"{name} objective above the true parameters'")
                values[f"{name}_objective"] = obj
            ref = self.reference.get(key)
            if ref is not None and ref.get("series_sha256") == _digest(x):
                _at_least(ll, ref["mle_loglik"], "MLE loglik below the seed commit's")
                for name in ("cls", "clade"):
                    _at_most(values[f"{name}_objective"], ref[f"{name}_objective"], f"{name} objective above the seed commit's")
            values["series_sha256"] = _digest(x)
            if methods["mle"]["hessian_noninvertible_rate"] == 0.0:
                se = methods["mle"]["mean_approx_se"]
                _require(all(_finite(v) and v > 0.0 for v in se), "standard error not finite and positive")
            return {"values": values}

        return Op("mc-study", argv, key, check, {"fits": 3, "reps": 1})

    def op(self, index):
        return self._mc_op(self.N, inputs.derived_seed(self.seed, index))

    def warmup_ops(self):
        return [self._mc_op(100, inputs.derived_seed(WARMUP_SEED, 0))]

    def probe(self):
        from tobitcount.stingarch import CountSeries, ModelSpec

        a0, a1, b1, d = self.DGP
        x = inputs.stingarch_series(inputs.series_rng(self.seed, 0), self.N, *self.DGP)
        return ModelSpec(alpha0=a0, alphas=[a1], betas=[b1], delta=d), CountSeries(x)


def _digest(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype=np.int64).tobytes()).hexdigest()


def _mc_series(dgp, n: int, seed: int) -> np.ndarray:
    """The replication's series, regenerated as ``mc_study`` documents it.

    ``mc_study`` gives replication ``i`` the ``i``-th spawned child of
    ``SeedSequence(seed)`` and simulates with a burn-in of 500.
    """
    from tobitcount.stingarch import ModelSpec, simulate

    a0, a1, b1, d = dgp
    stream = np.random.SeedSequence(seed).spawn(1)[0]
    rng = np.random.Generator(np.random.PCG64(stream))
    spec = ModelSpec(alpha0=a0, alphas=[a1], betas=[b1], delta=d)
    return simulate(spec, n, burn_in=500, rng=rng, warn_nonstationary=False).counts


def _censored_objective(x: np.ndarray, theta, power: int) -> float:
    m = oracle.mean_path(x, theta[0], theta[1], theta[2])[1:]
    dev = np.abs(x[1:] - np.maximum(0.0, m))
    return float(np.sum(dev**power))


# ---------------------------------------------------------------------------
# large-counts
# ---------------------------------------------------------------------------


class LargeCounts(Workload):
    """STINARCH(1) at mean 40: simulate, (1,0) scenario-2 fit, diagnose."""

    name = "large-counts"
    min_op_s = 2.0
    DGP = (20.0, 0.5, 0.0, 2.0)
    SIM_N, FIT_N, DIAG_N = 100_000, 1000, 20_000
    DIAG_POOL = 4

    def _spec_flags(self):
        a0, a1, _, d = self.DGP
        return ["--alpha0", repr(a0), "--alpha1", repr(a1), "--delta", repr(d)]

    def make_inputs(self, directory: str) -> None:
        self.fit_records, self.diag_records = [], []
        for i in range(self.pool_size):
            x = inputs.stingarch_series(inputs.series_rng(self.seed, 2 * i), self.FIT_N, *self.DGP)
            self.fit_records.append(self._write(directory, f"lc-fit{i}", x))
        for i in range(self.DIAG_POOL):
            x = inputs.stingarch_series(inputs.series_rng(self.seed, 2 * i + 1), self.DIAG_N, *self.DGP)
            self.diag_records.append(self._write(directory, f"lc-diag{i}", x))
        rng = inputs.series_rng(WARMUP_SEED, 0)
        self.warm = self._write(directory, "lc-warm", inputs.stingarch_series(rng, 200, *self.DGP))
        self.records = self.fit_records + self.diag_records

    def _simulate_op(self, n: int, seed: int) -> Op:
        argv = ["simulate", *self._spec_flags(), "--n", str(n), "--seed", str(seed)]

        def check(out_path):
            with open(out_path, newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            _require(rows[0] == ["count"], "header")
            x = np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
            _require(x.shape[0] == n and np.all(x >= 0), "length or sign")
            a0, a1, _, _ = self.DGP
            mean = a0 / (1.0 - a1)
            # standard error of the mean is about 0.04 at n = 1e5
            if n >= self.SIM_N:
                _require(abs(x.mean() - mean) < 0.5, f"sample mean {x.mean()} far from {mean}")
                c = x - x.mean()
                rho = float(c[1:] @ c[:-1]) / float(c @ c)
                _require(abs(rho - a1) < 0.05, f"lag-1 autocorrelation {rho} far from {a1}")
            return {}

        return Op("simulate", argv, " ".join(argv), check, {"sim_obs": n})

    def _fit_op(self, record) -> Op:
        argv = ["fit", "-p", "1", "-q", "0", "--scenario2"]
        key = _op_key(argv, record["sha256"])
        x = record["counts"]

        def check(out_path):
            payload = _load_json(out_path)
            est = payload["estimates"]
            ll, counters = _fit_common(payload, self.reference.get(key))
            _close(ll, oracle.stingarch_loglik(x, est["alpha0"], est["alpha1"], 0.0, est["delta"]), "loglik")
            _at_least(ll, oracle.stingarch_loglik(x, *self.DGP), "loglik below the true parameters'")
            counters["values"] = {"loglik": ll}
            return counters

        return Op("fit", argv + ["--input", record["path"]], key, check, {"fits": 1})

    def _diagnose_op(self, record) -> Op:
        argv = ["diagnose", *self._spec_flags(), "--max-lag", "5"]
        key = _op_key(argv, record["sha256"])
        x = record["counts"]

        def check(out_path):
            payload = _load_json(out_path)
            want = oracle.residual_summary(x, *self.DGP, max_lag=5)
            got = [payload["mean"], payload["variance"] / want["variance"], *payload["acf"]]
            ref_vals = [want["mean"], 1.0, *want["acf"]]
            for g, w in zip(got, ref_vals):
                _require(abs(g - w) <= SUMMARY_TOL, f"residual summary {g!r} != {w!r}")
            ref = self.reference.get(key)
            if ref is not None:
                for g, w in zip([payload["mean"], payload["variance"], *payload["acf"]], ref["summary"]):
                    _require(abs(g - w) <= SUMMARY_TOL * (1.0 + abs(w)), "residual summary differs from the seed commit's")
            values = {"summary": [payload["mean"], payload["variance"], *payload["acf"]]}
            return {"values": values}

        return Op("diagnose", argv + ["--input", record["path"]], key, check, {"resid_obs": x.shape[0] - 1})

    def op(self, index):
        cycle, kind = divmod(index, 3)
        if kind == 0:
            return self._simulate_op(self.SIM_N, inputs.derived_seed(self.seed, index))
        if kind == 1:
            return self._fit_op(self.fit_records[cycle % self.pool_size])
        return self._diagnose_op(self.diag_records[cycle % self.DIAG_POOL])

    def warmup_ops(self):
        seed = inputs.derived_seed(WARMUP_SEED, 0)
        return [self._simulate_op(1000, seed), self._fit_op(self.warm), self._diagnose_op(self.warm)]

    def probe(self):
        from tobitcount.stingarch import CountSeries, ModelSpec

        a0, a1, _, d = self.DGP
        return ModelSpec(alpha0=a0, alphas=[a1], delta=d), CountSeries(self.diag_records[0]["counts"])


# ---------------------------------------------------------------------------
# bounded-ext
# ---------------------------------------------------------------------------


class BoundedExt(Workload):
    """The extensions: bounded one-inflated (1,1) fit and TINARS(1) fit."""

    name = "bounded-ext"
    min_op_s = 0.5
    N = 1000
    BOUNDED = (1.0, 0.3, 0.3)  # alpha0, alpha1, beta1
    KAPPA, DELTA, BOUND = 0.1, 0.01, 5
    TINARS = (2.0, 0.4)  # innovation mean, alpha1

    def make_inputs(self, directory: str) -> None:
        self.bounded_records, self.tinars_records = [], []
        half = math.ceil(self.pool_size / 2)
        for i in range(half):
            x = inputs.stingarch_series(
                inputs.series_rng(self.seed, 2 * i), self.N, *self.BOUNDED, self.DELTA,
                bound=self.BOUND, kappa=self.KAPPA,
            )
            self.bounded_records.append(self._write(directory, f"be-stb{i}", x))
            lam, alpha = self.TINARS
            y = inputs.tinars_series(inputs.series_rng(self.seed, 2 * i + 1), self.N, alpha, lam)
            self.tinars_records.append(self._write(directory, f"be-tin{i}", y))
        self.records = self.bounded_records + self.tinars_records
        rng = inputs.series_rng(WARMUP_SEED, 0)
        self.warm_bounded = self._write(
            directory, "be-warm-stb",
            inputs.stingarch_series(rng, 150, *self.BOUNDED, self.DELTA, bound=self.BOUND, kappa=self.KAPPA),
        )
        self.warm_tinars = self._write(directory, "be-warm-tin", inputs.tinars_series(rng, 150, self.TINARS[1], self.TINARS[0]))

    def _bounded_op(self, record) -> Op:
        argv = ["fit", "--model", "stbingarch", "-p", "1", "-q", "1", "--bound", str(self.BOUND)]
        key = _op_key(argv, record["sha256"])
        x = record["counts"]

        def check(out_path):
            payload = _load_json(out_path)
            est = payload["estimates"]
            ll, counters = _fit_common(payload, self.reference.get(key))
            theta = (est["alpha0"], est["alpha1"], est["beta1"])
            if est["kappa"] > 0.0:  # kappa = 0 reports a boundary, not the optimizer's point
                _close(ll, oracle.stbingarch_loglik(x, *theta, est["kappa"], self.BOUND, self.DELTA), "loglik")
            truth = oracle.stbingarch_loglik(x, *self.BOUNDED, self.KAPPA, self.BOUND, self.DELTA)
            _at_least(ll, truth, "loglik below the true parameters'")
            counters["values"] = {"loglik": ll}
            return counters

        return Op("fit-stbingarch", argv + ["--input", record["path"]], key, check, {"fits": 1})

    def _tinars_op(self, record) -> Op:
        argv = ["fit", "--model", "tinars1"]
        key = _op_key(argv, record["sha256"])
        x = record["counts"]

        def check(out_path):
            payload = _load_json(out_path)
            est = payload["estimates"]
            ll, counters = _fit_common(payload, self.reference.get(key))
            _close(ll, oracle.tinars_loglik(x, est["innovation_mean"], est["alpha1"]), "loglik")
            _at_least(ll, oracle.tinars_loglik(x, *self.TINARS), "loglik below the true parameters'")
            counters["values"] = {"loglik": ll}
            return counters

        return Op("fit-tinars1", argv + ["--input", record["path"]], key, check, {"fits": 1})

    def op(self, index):
        cycle, kind = divmod(index, 2)
        if kind == 0:
            return self._bounded_op(self.bounded_records[cycle % len(self.bounded_records)])
        return self._tinars_op(self.tinars_records[cycle % len(self.tinars_records)])

    def warmup_ops(self):
        return [self._bounded_op(self.warm_bounded), self._tinars_op(self.warm_tinars)]

    def probe(self):
        from tobitcount.stingarch import CountSeries, ModelSpec

        a0, a1, b1 = self.BOUNDED
        spec = ModelSpec(alpha0=a0, alphas=[a1], betas=[b1], delta=self.DELTA, bound=self.BOUND, kappa=self.KAPPA)
        return spec, CountSeries(self.bounded_records[0]["counts"])


WORKLOADS = {w.name: w for w in (TobitZeros, PaperMC, LargeCounts, BoundedExt)}
