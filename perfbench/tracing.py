"""Spans around the package's public functions, kept in memory.

Each name is wrapped in the namespace where its caller looks it up, so
``from .x import f`` call sites are covered without touching ``src/``.  A
public name reached only through a private table (``mc_study``'s fitter
dict holds ``fit_clade`` and ``fit_cls``) stays unwrapped; its time shows
in the caller's self time.  A name a later refactor deletes is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, attribute, label).  Several namespaces may share one label when
# callers import the same function under different modules.
TARGETS = (
    ("tobitcount.cli", "main", "cli.main"),
    ("tobitcount.cli", "ingest_csv", "cli.ingest_csv"),
    ("tobitcount.cli", "fit_mle", "estimation.fit_mle"),
    ("tobitcount.estimation", "fit_mle", "estimation.fit_mle"),
    ("tobitcount.cli", "mc_study", "estimation.mc_study"),
    ("tobitcount.estimation", "loglik", "estimation.loglik"),
    ("tobitcount.estimation", "analytic_score_hessian", "estimation.analytic_score_hessian"),
    ("tobitcount.estimation", "numerical_hessian", "estimation.numerical_hessian"),
    ("tobitcount.extensions", "numerical_hessian", "estimation.numerical_hessian"),
    ("tobitcount.cli", "simulate", "stingarch.simulate"),
    ("tobitcount.estimation", "simulate", "stingarch.simulate"),
    ("tobitcount.stingarch", "conditional_mean_path", "stingarch.conditional_mean_path"),
    ("tobitcount.cli", "pearson_residuals", "diagnostics.pearson_residuals"),
    ("tobitcount.diagnostics", "censored_moments", "skellam.censored_moments"),
    ("tobitcount.skellam", "noncentral_chisq_cdf", "specialfn.noncentral_chisq_cdf"),
    ("tobitcount.specialfn", "noncentral_chisq_cdf", "specialfn.noncentral_chisq_cdf"),
    ("tobitcount.skellam", "log_bessel_i", "specialfn.log_bessel_i"),
    ("tobitcount.estimation", "log_bessel_i", "specialfn.log_bessel_i"),
    ("tobitcount.cli", "fit_stbingarch_mle", "extensions.fit_stbingarch_mle"),
    ("tobitcount.cli", "fit_tinars1_mle", "extensions.fit_tinars1_mle"),
    ("tobitcount.extensions", "tinars1_transition", "extensions.tinars1_transition"),
    (
        "tobitcount.extensions",
        "stbingarch_conditional_moments",
        "extensions.stbingarch_conditional_moments",
    ),
    (
        "tobitcount.extensions",
        "tinars_conditional_moments",
        "extensions.tinars_conditional_moments",
    ),
)

LABELS = tuple(dict.fromkeys(label for _, _, label in TARGETS))

_ORIGINAL = "__perfbench_original__"


class Tracer:
    """Records ``[label, start, end, parent, op_id]`` spans while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, fn, label: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        restore = []
        found = set()
        try:
            for module_name, attr, label in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                found.add(label)
                restore.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, label))
            self.absent = [label for label in LABELS if label not in found]
            yield self
        finally:
            for module, attr, fn in reversed(restore):
                setattr(module, attr, fn)

    def aggregate(self, op_ids=None) -> dict[str, dict[str, float]]:
        """Per-label ``calls``, ``s`` (outermost spans only) and ``self_s``.

        Self time is a span's duration minus the part its child spans
        cover; spans nest strictly because the run is single-threaded.
        ``op_ids`` restricts the totals to the spans of those operations.
        """
        child = [0.0] * len(self.spans)
        for label, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {label: {"calls": 0, "s": 0.0, "self_s": 0.0} for label in LABELS}
        for index, (label, start, end, parent, op_id) in enumerate(self.spans):
            if op_ids is not None and op_id not in op_ids:
                continue
            entry = stats[label]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != label:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["s"] += end - start
        return stats

    def write(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tlabel\tstart_s\tend_s\tparent\top_id\n")
            for index, (label, start, end, parent, op_id) in enumerate(self.spans):
                handle.write(
                    f"{index}\t{label}\t{start - origin:.9f}\t{end - origin:.9f}"
                    f"\t{parent}\t{op_id}\n"
                )


def remaining_wrappers() -> list[str]:
    """Targets still holding a wrapper; empty once every block has exited."""
    left = []
    for module_name, attr, _ in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        if hasattr(getattr(module, attr, None), _ORIGINAL):
            left.append(f"{module_name}.{attr}")
    return left
