"""Layer spans for s4is, recorded from outside the package.

Each wrapper replaces a name where the package looks it up: module-level
functions in the module that imported them (``s4is.pipeline.fit_surrogate``)
and methods on their class (``GpSurrogate.predict_mean``). A wrapper opens a
span, calls the original, closes the span and updates the layer counters; it
never touches arguments, results or random state. ``Tracer.uninstall``
puts every original back.

Spans hold (name, start, end, parent, run id) and stay in memory until the
caller reads them. The layer is the part of the span name before the first
dot; a layer's self time is the duration of its spans minus the time their
child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

import s4is.benchmarks
import s4is.form
import s4is.pipeline
import s4is.surrogate
from s4is.evaluation import Evaluator
from s4is.probability import GaussianMixture, RandomVector
from s4is.surrogate import GpSurrogate, SupportPointSet


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int


def _rows(x):
    return int(np.atleast_2d(np.asarray(x)).shape[0])


# -- counters taken at the layer boundary ----------------------------------
# A hook is called as hook(counts, args, result, before) once the wrapped
# call returned; ``before`` is what the target's pre-hook returned.

def _count_fit(counts, args, result, before):
    support = next(a for a in args if isinstance(a, SupportPointSet))
    counts["surrogate.support_last"] = len(support)


def _count_predict(counts, args, result, before):
    counts["surrogate.predict_rows"] += _rows(args[1])


def _count_select(counts, args, result, before):
    counts["learning.select_calls"] += 1


def _count_kmeans(counts, args, result, before):
    counts["clustering.k_found"] += result.k


def _before_search(counts, args):
    # Counted before the call: a search that raises was still attempted.
    counts["form.searches"] += 1


def _count_search(counts, args, result, before):
    counts["form.g_calls"] += result.n_eval
    counts["form.converged"] += int(result.converged)


def _count_estimate(counts, args, result, before):
    counts["estimators.samples"] += result.n_samples


def _count_rows(position):
    def hook(counts, args, result, before):
        counts["probability.rows"] += _rows(args[position])
    return hook


def _count_sample(counts, args, result, before):
    counts["probability.rows"] += int(args[1])


def _before_g(requests):
    def pre(counts, args):
        counts["evaluation.g_requests"] += requests(args)
        return args[0].ledger.count
    return pre


def _count_distinct(counts, args, result, ledger_before):
    counts["evaluation.distinct"] += args[0].ledger.count - ledger_before


def _count_stage1(counts, args, result, before):
    counts["pipeline.stage1_iters"] += len(result[0].pf_history)


def _count_stage2(counts, args, result, before):
    grown = result[0].notes.get("pool_enlargements", 0)
    counts["pipeline.pool_enlargements"] += grown
    # Pool growth appends one closing estimate to the history.
    counts["pipeline.stage2_iters"] += len(result[0].pf_history) - (1 if grown else 0)


# (owner, attribute, span name, pre-hook, post-hook)
_TARGETS = (
    (s4is.pipeline, "stage1", "pipeline.stage1", None, _count_stage1),
    (s4is.pipeline, "_form_seed", "pipeline.stage1", None, None),
    (s4is.pipeline, "stage2", "pipeline.stage2", None, _count_stage2),
    (s4is.pipeline, "fit_surrogate", "surrogate.fit", None, _count_fit),
    (s4is.pipeline, "update_surrogate", "surrogate.fit", None, _count_fit),
    (GpSurrogate, "predict_mean", "surrogate.predict", None, _count_predict),
    (GpSurrogate, "predict_sd", "surrogate.predict", None, _count_predict),
    (s4is.pipeline, "lf1_scores", "learning.score", None, None),
    (s4is.pipeline, "lf2_scores", "learning.score", None, None),
    (s4is.pipeline, "min_distances", "learning.score", None, None),
    (s4is.pipeline, "select_next", "learning.select", None, _count_select),
    (s4is.pipeline, "kmeans", "clustering.kmeans", None, _count_kmeans),
    (s4is.pipeline, "mpp_per_cluster", "clustering.mpp", None, None),
    (s4is.pipeline, "multi_start_mpps", "form.multi_start", None, None),
    (s4is.pipeline, "hlrf_search", "form.search", _before_search, _count_search),
    (s4is.form, "hlrf_search", "form.search", _before_search, _count_search),
    (s4is.pipeline, "is_estimate_from_log", "estimators.is", None, _count_estimate),
    (s4is.benchmarks, "is_estimate_from_log", "estimators.is", None, _count_estimate),
    (s4is.pipeline, "mcs_estimate", "estimators.mcs", None, _count_estimate),
    (s4is.pipeline, "sample_hypercube", "probability.sample", None, _count_sample),
    (s4is.pipeline, "hypercube_density", "probability.density", None, _count_rows(0)),
    (s4is.pipeline, "log_std_normal_pdf", "probability.density", None, _count_rows(0)),
    (s4is.benchmarks, "log_std_normal_pdf", "probability.density", None, _count_rows(0)),
    (GaussianMixture, "sample", "probability.sample", None, _count_sample),
    (GaussianMixture, "logpdf", "probability.density", None, _count_rows(1)),
    (RandomVector, "from_standard_normal", "probability.transform", None, _count_rows(1)),
    (Evaluator, "components_at", "evaluation.g", _before_g(lambda args: 1), _count_distinct),
    (Evaluator, "g_batch", "evaluation.g", _before_g(lambda args: _rows(args[1])),
     _count_distinct),
)


class _OptimizeProxy:
    """Stands in for ``scipy.optimize`` inside ``s4is.surrogate`` only:
    counts L-BFGS-B starts and likelihood evaluations (``nfev``) and
    forwards everything else unchanged."""

    def __init__(self, module, counts):
        self._module = module
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._module, name)

    def minimize(self, *args, **kwargs):
        res = self._module.minimize(*args, **kwargs)
        self._counts["surrogate.opt_starts"] += 1
        self._counts["surrogate.nll_evals"] += int(res.nfev)
        return res


class Tracer:
    """Installs the layer wrappers and collects spans and counters.

    Use as a context manager: entering installs, leaving restores every
    original. ``run(fn)`` records one solve as a root span with a fresh run
    id.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._run_id = 0
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._run_id))
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    def run(self, fn):
        """Call ``fn()`` under a root ``pipeline.run`` span with a fresh run
        id; the support size seen by the run's last surrogate fit is added
        to ``surrogate.support_final``."""
        self._run_id += 1
        self._open("pipeline.run")
        try:
            return fn()
        finally:
            self._close()
            self.counts["surrogate.support_final"] += self.counts.pop(
                "surrogate.support_last", 0)

    # -- patching ----------------------------------------------------------

    def _wrap(self, original, name, pre, post):
        tracer = self
        counts = self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            before = pre(counts, args) if pre is not None else None
            tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close()
            if post is not None:
                post(counts, args, result, before)
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, pre, post in _TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, pre, post))
        self._saved.append((s4is.surrogate, "optimize", s4is.surrogate.optimize))
        s4is.surrogate.optimize = _OptimizeProxy(s4is.surrogate.optimize, self.counts)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- per-layer breakdown ---------------------------------------------------

LAYER_METRICS = (
    ("surrogate.fit_s", "s"),
    ("surrogate.fit_calls", "count"),
    ("surrogate.fit_ms_p50", "ms"),
    ("surrogate.opt_starts", "count"),
    ("surrogate.nll_evals", "count"),
    ("surrogate.predict_s", "s"),
    ("surrogate.predict_rows", "count"),
    ("surrogate.support_final", "count"),
    ("learning.score_s", "s"),
    ("learning.select_s", "s"),
    ("learning.select_calls", "count"),
    ("clustering.s", "s"),
    ("clustering.k_found", "count"),
    ("form.s", "s"),
    ("form.searches", "count"),
    ("form.g_calls", "count"),
    ("form.converged_ratio", "ratio"),
    ("evaluation.g_s", "s"),
    ("evaluation.g_requests", "count"),
    ("evaluation.distinct_ratio", "ratio"),
    ("estimators.s", "s"),
    ("estimators.samples", "count"),
    ("probability.s", "s"),
    ("probability.rows", "count"),
    ("pipeline.stage1_s", "s"),
    ("pipeline.stage2_s", "s"),
    ("pipeline.self_s", "s"),
    ("pipeline.stage1_iters", "count"),
    ("pipeline.stage2_iters", "count"),
    ("pipeline.pool_enlargements", "count"),
)


def self_times(spans):
    """Per-span duration minus the duration of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def breakdown(spans, counts, n_units):
    """Per-layer metrics per workload unit, from a finished trace.

    ``counts`` holds counter totals plus ``surrogate.support_final`` summed
    over solve runs. Times and counts are divided by ``n_units``; medians
    and ratios are taken over everything recorded.
    """
    own = self_times(spans)
    self_by_name = Counter()
    for s, t in zip(spans, own):
        self_by_name[s.name] += t

    def layer_self(prefix):
        return sum(t for name, t in self_by_name.items() if name.startswith(prefix))

    fit_ms = [1e3 * (s.end - s.start) for s in spans if s.name == "surrogate.fit"]
    stage_s = Counter()
    for s in spans:
        if s.name in ("pipeline.stage1", "pipeline.stage2"):
            stage_s[s.name] += s.end - s.start
    searches = counts["form.searches"]
    requests = counts["evaluation.g_requests"]
    totals = {
        "surrogate.fit_s": self_by_name["surrogate.fit"],
        "surrogate.fit_calls": len(fit_ms),
        "surrogate.opt_starts": counts["surrogate.opt_starts"],
        "surrogate.nll_evals": counts["surrogate.nll_evals"],
        "surrogate.predict_s": self_by_name["surrogate.predict"],
        "surrogate.predict_rows": counts["surrogate.predict_rows"],
        "surrogate.support_final": counts["surrogate.support_final"],
        "learning.score_s": self_by_name["learning.score"],
        "learning.select_s": self_by_name["learning.select"],
        "learning.select_calls": counts["learning.select_calls"],
        "clustering.s": layer_self("clustering."),
        "clustering.k_found": counts["clustering.k_found"],
        "form.s": layer_self("form."),
        "form.searches": searches,
        "form.g_calls": counts["form.g_calls"],
        "evaluation.g_s": layer_self("evaluation."),
        "evaluation.g_requests": requests,
        "estimators.s": layer_self("estimators."),
        "estimators.samples": counts["estimators.samples"],
        "probability.s": layer_self("probability."),
        "probability.rows": counts["probability.rows"],
        "pipeline.stage1_s": stage_s["pipeline.stage1"],
        "pipeline.stage2_s": stage_s["pipeline.stage2"],
        "pipeline.self_s": layer_self("pipeline."),
        "pipeline.stage1_iters": counts["pipeline.stage1_iters"],
        "pipeline.stage2_iters": counts["pipeline.stage2_iters"],
        "pipeline.pool_enlargements": counts["pipeline.pool_enlargements"],
    }
    out = {name: value / n_units for name, value in totals.items()}
    out["surrogate.fit_ms_p50"] = statistics.median(fit_ms) if fit_ms else 0.0
    out["form.converged_ratio"] = counts["form.converged"] / searches if searches else 0.0
    out["evaluation.distinct_ratio"] = (counts["evaluation.distinct"] / requests
                                        if requests else 0.0)
    return out
