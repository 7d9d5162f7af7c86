"""Spans recorded from outside the acausal package.

``Recorder.install`` replaces each traced public function, in every acausal
module that binds it, with a wrapper that records one span per call: its
name, start, end, parent span, job id and the sizes read off the call's
arguments and result (n, width, terms and the exact work counts derived
from them). Because the names a module imports from another are replaced
too, spans nest: ``process.validate_process`` sits inside ``cli.validate``
and holds ``diagop.is_nonnegative``. ``uninstall`` restores the originals.

Wrappers record nothing while no job is active, so the harness's own
checks leave no spans. Functions called more than a few thousand times per
job (``mask_fields``, ``winning_behavior``, ``DiagOperator.entry``) are not
wrapped.
"""

from __future__ import annotations

import json
from math import factorial
from time import perf_counter_ns


def _dense(result, a, *_, **__):
    return {"width": a.layout.width, "terms": len(a.terms), "entries": 1 << a.layout.width}


def _from_dense(result, layout, *_, **__):
    return {"width": layout.width, "terms": len(result.terms), "entries": 1 << layout.width}


def _multiply(result, a, b):
    return {"width": a.layout.width, "terms": len(a.terms), "other_terms": len(b.terms),
            "products": len(a.terms) * len(b.terms), "out_terms": len(result.terms)}


def _operator(result, a, *_, **__):
    return {"width": a.layout.width, "terms": len(a.terms)}


def _operator_to_json(result, a):
    return {"width": a.layout.width, "terms": len(result["terms"])}


def _operator_from_json(result, obj):
    return {"width": result.layout.width, "terms": len(result.terms)}


def _build_w(result, n):
    return {"n": n, "width": result.layout.width, "terms": len(result.operator.terms)}


def _loops(result, n):
    return {"n": n, "loops": len(result)}


def _validate(result, op, *_, **__):
    op = getattr(op, "operator", op)
    return {"width": op.layout.width, "terms": len(op.terms),
            "checked": result.bilinear.checked}


def _conditional(result, process, outputs):
    return {"n": process.n, "width": process.layout.width,
            "terms": len(process.operator.terms), "support": len(result)}


def _success(result, n, *_, **__):
    # The exact evaluator pairs each of W's 2**(n-1) terms with every one
    # of the n * 2**n (m, inputs) contractions.
    return {"n": n, "terms": 1 << (n - 1), "pair_products": (1 << (n - 1)) * n * (1 << n)}


def _outcomes(result, w, behaviors):
    terms = len(w.operator.terms)
    return {"n": w.n, "terms": terms, "pair_products": terms * (1 << w.n)}


def _sample(result, n, shots, *_, **__):
    return {"n": n, "shots": shots}


def _forwarding(result, n):
    return {"n": n, "evaluations": 1}


def _brute(result, n, fixed_order=False):
    # One evaluation per protocol shell (first party times an order rule
    # for each (m, a_first)), plus one for the winning witness.
    tails = factorial(n - 1)
    rules = tails if fixed_order else tails ** (2 * n)
    return {"n": n, "evaluations": n * rules + 1}


def _argv(result, argv=None):
    return {"command": argv[0] if argv else None}


# (module, function, span name, sizes). Every binding of the function in
# any acausal module is replaced.
TRACED = (
    ("diagop", "is_nonnegative", "diagop.is_nonnegative", _dense),
    ("diagop", "to_dense", "diagop.to_dense", _dense),
    ("diagop", "from_dense", "diagop.from_dense", _from_dense),
    ("diagop", "multiply", "diagop.multiply", _multiply),
    ("diagop", "partial_trace", "diagop.partial_trace", _operator),
    ("diagop", "channel_apply", "diagop.channel_apply", _operator),
    ("diagop", "operator_to_json", "diagop.json", _operator_to_json),
    ("diagop", "operator_from_json", "diagop.json", _operator_from_json),
    ("process", "build_w", "process.build_w", _build_w),
    ("process", "loop_decomposition", "process.loop_decomposition", _loops),
    ("process", "validate_process", "process.validate_process", _validate),
    ("process", "conditional_distribution", "process.conditional_distribution", _conditional),
    ("game", "success_probability_exact", "game.success_probability_exact", _success),
    ("game", "outcome_distribution", "game.outcome_distribution", _outcomes),
    ("game", "sample_game", "game.sample_game", _sample),
    ("causal", "forwarding_strategy_success", "causal.forwarding_strategy_success", _forwarding),
    ("causal", "brute_force_causal", "causal.brute_force_causal", _brute),
    ("cli", "main", "cli.main", _argv),
    ("cli", "_cmd_build_w", "cli.build_w", None),
    ("cli", "_cmd_validate", "cli.validate", None),
    ("cli", "_cmd_play", "cli.play", None),
    ("cli", "_cmd_sample", "cli.sample", None),
    ("cli", "_cmd_causal_bound", "cli.causal_bound", None),
    ("cli", "_cmd_export", "cli.export", None),
)

NAME, START, END, PARENT, JOB, SIZES = range(6)


class Recorder:
    """Collects spans in memory; ``job`` is None outside the timed calls."""

    def __init__(self, modules: dict):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self._swaps = []
        for mod, attr, name, sizes in TRACED:
            original = getattr(modules[mod], attr)
            wrapper = self._wrap(name, original, sizes)
            for module in modules.values():
                for key, value in vars(module).items():
                    if value is original:
                        self._swaps.append((module, key, original, wrapper))

    def _wrap(self, name, fn, sizes):
        # A cache hit of an lru_cache'd function built nothing, so it
        # carries no sizes.
        info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            record = [name, 0, 0, self.stack[-1] if self.stack else -1, self.job, None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            misses = info().misses if info else 0
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter_ns()
                record[START] = start
                self.stack.pop()
            if info and info().misses == misses:
                record[SIZES] = {"cache_hit": 1}
            elif sizes:
                record[SIZES] = sizes(result, *args, **kwargs)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        for module, key, _, wrapper in self._swaps:
            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original, _ in self._swaps:
            setattr(module, key, original)

    def summary(self, begin: int) -> dict[str, float]:
        """Per-name inclusive time, self time and summed sizes of the spans
        from index ``begin`` on, plus ``roots.s``, the time of the spans
        without a parent.

        Self time is a span's duration minus its direct children's; calls
        are single-threaded, so children are disjoint and nested.
        """
        spans = self.spans[begin:]
        child_ns = [0] * len(spans)
        roots_ns = 0
        for span in spans:
            duration = span[END] - span[START]
            if span[PARENT] < 0:
                roots_ns += duration
            else:
                child_ns[span[PARENT] - begin] += duration
        out: dict[str, float] = {"roots.s": roots_ns / 1e9}
        for span, children in zip(spans, child_ns):
            name, duration = span[NAME], span[END] - span[START]
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + duration / 1e9
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (duration - children) / 1e9
            for key, value in (span[SIZES] or {}).items():
                if isinstance(value, int):
                    out[f"{name}:{key}"] = out.get(f"{name}:{key}", 0) + value
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, job, sizes in self.spans:
                handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                         "parent": parent, "job": job,
                                         "sizes": sizes or {}}) + "\n")
