"""Self-test of the benchmark: declared metrics, failure accounting, wrappers."""

import json
import os
import subprocess
import sys

import pytest

from perfbench import oracle, run, tracing
from perfbench.workloads import BoundedExt, TobitZeros

BENCH_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _declared(section):
    with open(BENCH_JSON, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def test_declared_metrics_match_the_runner():
    assert _declared("end_to_end") == dict(run.END_TO_END)
    assert _declared("per_layer") == dict(run.PER_LAYER)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_batch_emits_every_declared_metric(trace, section):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "bounded-ext",
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == _declared(section)
    assert all(isinstance(entry["value"], float) for entry in result["metrics"].values())


@pytest.fixture
def bounded_op(tmp_path):
    workload = BoundedExt(seed=0, seconds=1, reference={})
    workload.make_inputs(str(tmp_path))
    return workload.op(0)


def _checked(op, out, rc=0, error=None):
    runs = [{"op": op, "rc": rc, "error": error, "out": out}]
    run.check_runs(runs)
    return runs[0]


def test_corrupted_output_is_a_failed_operation(bounded_op, tmp_path):
    from tobitcount import cli

    out = str(tmp_path / "fit.json")
    assert cli.main(bounded_op.argv + ["--output", out]) == 0
    assert _checked(bounded_op, out)["ok"]
    with open(out, encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["loglik"] -= 1e-3
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    result = _checked(bounded_op, out)
    assert not result["ok"] and "loglik" in result["reason"]


@pytest.mark.parametrize("rc, error", [(1, None), (2, None), (3, None), (None, "ValueError: x")])
def test_exit_codes_and_exceptions_fail(bounded_op, tmp_path, rc, error):
    assert not _checked(bounded_op, str(tmp_path / "missing.json"), rc, error)["ok"]


def test_nonconverged_exit_counts_as_completed(bounded_op, tmp_path):
    from tobitcount import cli

    out = str(tmp_path / "fit.json")
    cli.main(bounded_op.argv + ["--output", out])
    assert _checked(bounded_op, out, rc=4)["ok"]


def test_no_wrapper_survives_a_traced_block(bounded_op, tmp_path):
    from tobitcount import cli

    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert tracing.remaining_wrappers()
            cli.main(bounded_op.argv + ["--output", str(tmp_path / "fit.json")])
            raise RuntimeError("leave the block early")
    assert tracing.remaining_wrappers() == []
    stats = tracer.aggregate()
    assert stats["cli.main"]["calls"] == 1
    assert stats["extensions.fit_stbingarch_mle"]["calls"] == 1
    inner = stats["cli.main"]
    assert 0.0 <= inner["self_s"] < inner["s"]


def test_a_deleted_name_is_reported_absent(monkeypatch):
    targets = tracing.TARGETS + (("tobitcount.estimation", "no_such_function", "estimation.gone"),)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    monkeypatch.setattr(tracing, "LABELS", tracing.LABELS + ("estimation.gone",))
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == ["estimation.gone"]
    assert tracer.aggregate()["estimation.gone"]["calls"] == 0
    assert tracing.remaining_wrappers() == []


def test_oracle_matches_the_package_at_the_true_parameters(tmp_path):
    import numpy as np
    from tobitcount.estimation import EstimationScenario, loglik
    from tobitcount.stingarch import CountSeries

    workload = TobitZeros(seed=0, seconds=1, reference={})
    workload.make_inputs(str(tmp_path))
    for record, dgp in zip(workload.records[:4:2], workload.DGPS):
        series = CountSeries(record["counts"])
        want = loglik(np.array(dgp), series, (1, 1), EstimationScenario.free())
        assert oracle.stingarch_loglik(record["counts"], *dgp) == pytest.approx(want, rel=1e-12)
