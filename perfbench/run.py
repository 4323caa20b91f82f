"""Run one benchmark workload through ``tobitcount.cli.main`` and report metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-mc --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
operations untraced for half the time, replays the same operations with
spans around the package's public functions, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, inputs, every operation and its check) goes to
``perfbench/results/``.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    # pin the thread pools before numpy loads: the benchmark measures one process
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[_var] = "1"
    os.environ.pop("TOBITCOUNT_JOBS", None)
    sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
EXIT_NONCONVERGED = 4

END_TO_END = (
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    (("cli.import_s", "s"),)
    + tuple(
        (f"{label}.{stat}", "count" if stat == "calls" else "s")
        for label in tracing.LABELS
        for stat in ("calls", "s", "self_s")
    )
    + (
        ("estimation.loglik.s_per_call", "s"),
        ("stingarch.conditional_mean_path.s_per_call", "s"),
        ("fit.iterations", "count"),
        ("fit.nonconverged", "ratio"),
        ("fit.hessian_noninvertible", "ratio"),
        ("fits_per_s", "1/s"),
        ("mc_reps_per_s", "1/s"),
        ("sim_obs_per_s", "obs/s"),
        ("resid_obs_per_s", "obs/s"),
        ("fail_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.absent", "count"),
    )
)

_CHILD_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import tobitcount.cli; print(time.perf_counter() - t)"
)


def _child_import_s() -> float:
    """Import time of ``tobitcount.cli`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _CHILD_IMPORT, SRC],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "tobitcount")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _git_commit():
    """The checked-out commit when the tree is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return None


def _environment(args) -> dict:
    scipy = sys.modules.get("scipy")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": getattr(scipy, "__version__", None),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _call(cli, argv: list) -> tuple:
    """One timed CLI call; returns (seconds, exit code, exception text)."""
    gc.collect()
    start = time.perf_counter()
    try:
        rc, error = cli.main(argv), None
    except Exception as exc:  # a raising call is a failed operation, not a crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, error


def run_phase(cli, ops_or_workload, seconds, out_dir, tag, tracer=None) -> list:
    """Run operations until ``seconds`` have passed, or replay a given list."""
    replay = isinstance(ops_or_workload, list)
    deadline = time.perf_counter() + seconds
    runs = []
    index = 0
    while True:
        if replay:
            if index >= len(ops_or_workload):
                break
            op = ops_or_workload[index]
        else:
            if index > 0 and time.perf_counter() >= deadline:
                break
            op = ops_or_workload.op(index)
        out = os.path.join(out_dir, f"{tag}-{index}.out")
        if tracer is not None:
            tracer.op_id = index
        elapsed, rc, error = _call(cli, op.argv + ["--output", out])
        runs.append({"op": op, "index": index, "phase": tag, "seconds": elapsed,
                     "rc": rc, "error": error, "out": out})
        index += 1
    return runs


def check_runs(runs: list) -> None:
    """Check every operation's output; a failure is recorded, never raised."""
    for run in runs:
        run["ok"], run["reason"], run["counters"] = False, None, {}
        if run["error"] is not None:
            run["reason"] = run["error"]
        elif run["rc"] not in (0, EXIT_NONCONVERGED):
            run["reason"] = f"exit code {run['rc']}"
        else:
            try:
                run["counters"] = run["op"].check(run["out"])
                run["ok"] = True
            except Exception as exc:  # malformed output of any kind fails the operation
                run["reason"] = f"check: {type(exc).__name__}: {exc}"


def _rate(runs: list, unit: str) -> float:
    done = [r for r in runs if unit in r["op"].work]
    seconds = sum(r["seconds"] for r in done)
    return sum(r["op"].work[unit] for r in done) / seconds if seconds > 0 else 0.0


def kind_medians(runs: list) -> dict:
    """Median time and sample count of each operation kind."""
    kinds = {}
    for r in runs:
        kinds.setdefault(r["op"].kind, []).append(r["seconds"])
    return {k: {"median_s": statistics.median(v), "n": len(v)} for k, v in kinds.items()}


def op_s_p50(runs: list) -> float:
    """Per-kind median operation time, combined by geometric mean over kinds.

    Kinds differ in time by up to tenfold; a median over the pooled
    operations would sit at a gap between kinds and jump with their counts.
    """
    medians = [entry["median_s"] for entry in kind_medians(runs).values()]
    return statistics.geometric_mean(medians)


def _fit_counters(runs: list) -> dict:
    fits = [r["counters"] for r in runs if "iterations" in r["counters"]]
    if not fits:
        return {"fit.iterations": 0.0, "fit.nonconverged": 0.0, "fit.hessian_noninvertible": 0.0}
    return {
        "fit.iterations": statistics.fmean(c["iterations"] for c in fits),
        "fit.nonconverged": statistics.fmean(c["nonconverged"] for c in fits),
        "fit.hessian_noninvertible": statistics.fmean(c["hessian_noninvertible"] for c in fits),
    }


def _probe_s_per_call(workload) -> float:
    stingarch = importlib.import_module("tobitcount.stingarch")
    spec, series = workload.probe()
    samples = []
    budget = time.perf_counter() + 0.3
    while len(samples) < 5 or (time.perf_counter() < budget and len(samples) < 2000):
        start = time.perf_counter()
        stingarch.conditional_mean_path(spec, series)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _layer_split(tracer, runs) -> dict:
    """Share of each operation kind's time spent in each traced layer."""
    kinds = {}
    for run in runs:
        kinds.setdefault(run["op"].kind, []).append(run)
    split = {}
    for kind, group in kinds.items():
        ops = {run["index"] for run in group}
        total = sum(run["seconds"] for run in group)
        stats = tracer.aggregate(ops)
        split[kind] = {
            label: {"share": entry["s"] / total, "self_share": entry["self_s"] / total}
            for label, entry in stats.items()
            if entry["calls"] and label != "cli.main"
        }
    return split


def measure(args) -> dict:
    """Set up, run and check one workload; return the full record."""
    if not os.path.isfile(os.path.join(SRC, "tobitcount", "cli.py")):
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    cli = importlib.import_module("tobitcount.cli")
    import_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported tobitcount from {cli.__file__}, not {SRC}")

    reference_path = os.path.join(BENCH_DIR, "reference.json")
    reference = {}
    if os.path.isfile(reference_path):
        with open(reference_path, encoding="utf-8") as handle:
            reference = json.load(handle)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, reference)

    work_root = os.path.join(BENCH_DIR, "_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # set-up: import plus input writing, repeated; the first import is
        # this process's own, the others run in fresh interpreters
        setups = []
        for rep in range(SETUP_REPEATS):
            imported = import_s if rep == 0 else _child_import_s()
            directory = os.path.join(workdir, f"inputs{rep}")
            os.makedirs(directory)
            start = time.perf_counter()
            workload.make_inputs(directory)
            setups.append(imported + time.perf_counter() - start)
        start = time.perf_counter()
        warm = [_call(cli, op.argv + ["--output", os.path.join(workdir, f"warm{i}.out")])
                for i, op in enumerate(workload.warmup_ops())]
        warmup_s = time.perf_counter() - start
        setup_s = statistics.median(setups) + warmup_s

        metrics = {}
        tracer = None
        if args.trace:
            runs = run_phase(cli, workload, args.seconds / 2.0, workdir, "plain")
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = run_phase(cli, [r["op"] for r in runs], 0, workdir, "traced", tracer)
            leftover = tracing.remaining_wrappers()
            if leftover:
                raise RuntimeError(f"wrappers left installed: {leftover}")
            check_runs(runs + traced)
            n_ops = len(traced)
            stats = tracer.aggregate()
            metrics["cli.import_s"] = import_s
            for label, entry in stats.items():
                for stat, value in entry.items():
                    metrics[f"{label}.{stat}"] = value / n_ops
            loglik = stats["estimation.loglik"]
            metrics["estimation.loglik.s_per_call"] = (
                loglik["s"] / loglik["calls"] if loglik["calls"] else 0.0
            )
            metrics["stingarch.conditional_mean_path.s_per_call"] = _probe_s_per_call(workload)
            metrics.update(_fit_counters(runs + traced))
            for unit, name in (("fits", "fits_per_s"), ("reps", "mc_reps_per_s"),
                               ("sim_obs", "sim_obs_per_s"), ("resid_obs", "resid_obs_per_s")):
                metrics[name] = _rate(runs, unit)
            all_runs = runs + traced
            metrics["fail_frac"] = sum(not r["ok"] for r in all_runs) / len(all_runs)
            metrics["trace.overhead_frac"] = (
                sum(r["seconds"] for r in traced) / sum(r["seconds"] for r in runs) - 1.0
            )
            metrics["trace.absent"] = float(len(tracer.absent))
            declared = PER_LAYER
        else:
            runs = run_phase(cli, workload, args.seconds, workdir, "plain")
            check_runs(runs)
            all_runs = runs
            metrics["setup_s"] = setup_s
            metrics["op_s_p50"] = op_s_p50(runs)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            declared = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)  # only when no other run is using it

    record = {
        "environment": _environment(args),
        "inputs": workload.public_records(),
        "setup": {"samples_s": setups, "warmup_s": warmup_s,
                  "warmup_exit_codes": [rc for _, rc, _ in warm]},
        "operations": [
            {"phase": r["phase"], "index": r["index"], "kind": r["op"].kind, "key": r["op"].key,
             "seconds": r["seconds"], "exit_code": r["rc"], "ok": r["ok"], "reason": r["reason"],
             "values": r["counters"].get("values")}
            for r in all_runs
        ],
        "op_kinds": kind_medians(runs),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
        "attempted": len(all_runs),
        "failed": sum(not r["ok"] for r in all_runs),
    }
    if tracer is not None:
        record["absent"] = tracer.absent
        record["layer_split"] = _layer_split(tracer, traced)
        record["tracer"] = tracer
    return record


def _write_results(record: dict, args) -> str:
    results = os.path.join(BENCH_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.write(stem + "-spans.tsv")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return stem + ".json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = measure(args)
    path = _write_results(record, args)
    n_ops = record["attempted"]
    print(f"workload {args.workload}, seed {args.seed}, {n_ops} operations, "
          f"{record['failed']} failed; record in {os.path.relpath(path, ROOT)}")
    for op in record["operations"]:
        if not op["ok"]:
            print(f"  failed: {op['kind']} #{op['index']} ({op['phase']}): {op['reason']}")
    for kind, entry in record["op_kinds"].items():
        print(f"  {kind}: median {entry['median_s']:.4g} s over {entry['n']} operations")
    for name, entry in record["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for kind, shares in record.get("layer_split", {}).items():
        top = sorted(shares.items(), key=lambda item: -item[1]["share"])[:6]
        print(f"  {kind}: " + ", ".join(f"{k} {v['share']:.0%}" for k, v in top))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": n_ops,
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
