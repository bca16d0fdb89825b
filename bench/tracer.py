"""Outside-in layer tracer for rmflab: spans without editing the program.

``Tracer.install()`` wraps every public function of the layer modules
(``rmflab.sieve``, ``sampler``, ``oracle``, ``series``, ``explicit``,
``bounds`` and ``cli``).  Modules import each other's functions by name
(``oracle.batch_neg_bits``, ``sampler.prime_incidence``), so a wrapper
replaces the function at every ``rmflab.*`` module attribute that holds it,
not only in its home module.

Each call records a span (target, start, end, parent span) in memory.
Self time is a span's duration minus the durations of its direct child
spans.  Work counts are computed from arguments and return values after
the span has ended.  ``Tracer.metrics()`` folds the spans of one operation
into the raw per-layer sums; ``derive()`` turns sums over a pass of
operations into the reported per-layer metrics.

Targets come from what the modules define, so a function that a refactor
removes is simply not wrapped.  A target that a metric names but the
program no longer defines is listed in ``Tracer.absent`` and its metrics
read 0; it is never an error.  Spans are kept per thread, so the traced
run is made at ``--threads 1``: with worker threads, their spans would be
roots rather than children of the estimator.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

LAYERS = ("sieve", "sampler", "oracle", "series", "explicit", "bounds", "cli")

#: Work counts per target: fn(bound arguments, return value) -> {name: n}.
#: A count that no longer fits the target's signature is dropped, not raised.
COUNTS = {
    "sieve.prime_incidence": lambda a, r: {"nnz": int(r[0].nnz)},
    "sieve.sieve_block_tables": lambda a, r: {"cells": a["hi"] - a["lo"] + 1},
    "sampler.batch_neg_bits": lambda a, r: {
        "cells": len(a["trial_indices"]) * a["n_ranks"]
    },
    "oracle.mc_positivity": lambda a, r: {
        "cells": a["n_max"] * a["trials"],
        "trials": a["trials"],
        "decided": a["trials"] - r.n_indeterminate,
    },
    "oracle.mc_sign_changes": lambda a, r: {"cells": a["n_max"] * a["trials"]},
    "oracle.mc_moment": lambda a, r: {"cells": max(a["coeffs"]) * a["trials"]},
    "oracle.exact_probability": lambda a, r: {"assignments": 1 << r.universe_bits},
    "series.partial_sum_trajectory": lambda a, r: {"terms": a["n_max"]},
}

#: mc_prime_tail's cells are the (trials x pi(P)) sign bits it consumes,
#: summed over its batch_neg_bits descendants.
CELLS_FROM_DESCENDANTS = {"oracle.mc_prime_tail": "sampler.batch_neg_bits"}

#: Raw per-operation sums, (metric, target, quantity).  Quantities: "s" is
#: the inclusive time of the target's outermost calls, "self_s" the time
#: net of traced children, "calls" the call count, anything else a work
#: count from COUNTS or CELLS_FROM_DESCENDANTS.
RAW_METRICS = [
    ("sieve.prime_incidence.s", "sieve.prime_incidence", "s"),
    ("sieve.prime_incidence.calls", "sieve.prime_incidence", "calls"),
    ("sieve.prime_incidence.nnz", "sieve.prime_incidence", "nnz"),
    ("sieve.primes_up_to.s", "sieve.primes_up_to", "s"),
    ("sieve.sieve_block_tables.s", "sieve.sieve_block_tables", "s"),
    ("sieve.sieve_block_tables.calls", "sieve.sieve_block_tables", "calls"),
    ("sieve.sieve_block_tables.cells", "sieve.sieve_block_tables", "cells"),
    ("sampler.batch_neg_bits.s", "sampler.batch_neg_bits", "s"),
    ("sampler.batch_neg_bits.cells", "sampler.batch_neg_bits", "cells"),
    ("sampler.stream_f.self_s", "sampler.stream_f", "self_s"),
    ("oracle.mc_positivity.self_s", "oracle.mc_positivity", "self_s"),
    ("oracle.mc_positivity.cells", "oracle.mc_positivity", "cells"),
    ("oracle.mc_positivity.trials", "oracle.mc_positivity", "trials"),
    ("oracle.mc_positivity.decided", "oracle.mc_positivity", "decided"),
    ("oracle.mc_sign_changes.self_s", "oracle.mc_sign_changes", "self_s"),
    ("oracle.mc_sign_changes.cells", "oracle.mc_sign_changes", "cells"),
    ("oracle.mc_moment.self_s", "oracle.mc_moment", "self_s"),
    ("oracle.mc_moment.cells", "oracle.mc_moment", "cells"),
    ("oracle.mc_prime_tail.self_s", "oracle.mc_prime_tail", "self_s"),
    ("oracle.mc_prime_tail.cells", "oracle.mc_prime_tail", "cells"),
    ("oracle.exact_probability.self_s", "oracle.exact_probability", "self_s"),
    ("oracle.exact_probability.assignments", "oracle.exact_probability", "assignments"),
    ("oracle.exact_moment.self_s", "oracle.exact_moment", "self_s"),
    ("series.partial_sum_trajectory.self_s", "series.partial_sum_trajectory", "self_s"),
    ("series.partial_sum_trajectory.terms", "series.partial_sum_trajectory", "terms"),
    ("explicit.t_sum.self_s", "explicit.t_sum", "self_s"),
    ("explicit.tail_series.self_s", "explicit.tail_series", "self_s"),
    ("explicit.zeta.s", "explicit.zeta", "s"),
    ("explicit.prime_zeta.s", "explicit.prime_zeta", "s"),
]

#: Besides RAW_METRICS, two sums over whole layers: cli.self_s, the cli
#: layer's self time (dispatch minus its top-level library calls), and
#: bounds.s, the time inside the outermost bounds calls.
RAW_NAMES = [m for m, _, _ in RAW_METRICS] + ["cli.self_s", "bounds.s"]

_MC = ("mc_positivity", "mc_sign_changes", "mc_moment", "mc_prime_tail")


def derive(raw: dict) -> dict:
    """Reported per-layer metrics from raw sums over a pass of operations.

    Rates and ratios are formed from the sums, and read 0 where the pass ran
    no such work.
    """
    out = {
        k: raw.get(k, 0) for k in RAW_NAMES if not k.endswith((".trials", ".decided"))
    }
    for name in _MC:
        seconds = raw.get(f"oracle.{name}.self_s", 0.0)
        cells = raw.get(f"oracle.{name}.cells", 0)
        out[f"oracle.{name}.cells_per_s"] = cells / seconds if seconds > 0 else 0.0
    trials = raw.get("oracle.mc_positivity.trials", 0)
    decided = raw.get("oracle.mc_positivity.decided", 0)
    out["oracle.mc_positivity.decided_ratio"] = decided / trials if trials else 0.0
    return out


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not inspect.isgeneratorfunction(obj)  # returns before its work
        ):
            yield name, obj


class Tracer:
    """Wraps rmflab's layer functions and keeps their spans in memory."""

    def __init__(self, package: str = "rmflab", layers=LAYERS):
        self.package = package
        self.layers = tuple(layers)
        # span: [target, start, end, parent index or -1, counts or None]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: str, fn):
        count = COUNTS.get(target)
        signature = inspect.signature(fn) if count else None
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [target, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[4] = count(bound.arguments, result)
                except (AttributeError, KeyError, IndexError, TypeError, ValueError):
                    pass
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions wherever an rmflab module holds them."""
        wrappers = {}
        for layer in self.layers:
            module = sys.modules.get(f"{self.package}.{layer}")
            if module is None:
                continue
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn), f"{layer}.{name}")
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != self.package:
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        wrapped = {target for _, _, target in wrappers.values()}
        named = {t for _, t, _ in RAW_METRICS} | set(COUNTS) | set(CELLS_FROM_DESCENDANTS)
        self.absent = sorted(named - wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _has_ancestor(self, index: int, match) -> bool:
        while index >= 0:
            if match(self.spans[index][0]):
                return True
            index = self.spans[index][3]
        return False

    def totals(self) -> dict:
        """Per target: s, self_s, calls and summed work counts."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = {}
        for i, (target, start, end, parent, counts) in enumerate(self.spans):
            entry = totals.setdefault(target, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[i]
            if not self._has_ancestor(parent, target.__eq__):
                entry["s"] += end - start
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        for target, child in CELLS_FROM_DESCENDANTS.items():
            if target in totals:
                totals[target]["cells"] = sum(
                    counts.get("cells", 0)
                    for name, _, _, parent, counts in self.spans
                    if name == child and counts and self._has_ancestor(parent, target.__eq__)
                )
        return totals

    def metrics(self) -> dict:
        """Raw per-layer sums of everything traced so far (0 where no work)."""
        totals = self.totals()
        out = {
            metric: totals.get(target, {}).get(quantity, 0)
            for metric, target, quantity in RAW_METRICS
        }
        out["cli.self_s"] = sum(
            e["self_s"] for t, e in totals.items() if t.startswith("cli.")
        )

        def in_bounds(target: str) -> bool:
            return target.startswith("bounds.")

        out["bounds.s"] = sum(
            end - start
            for target, start, end, parent, _ in self.spans
            if in_bounds(target) and not self._has_ancestor(parent, in_bounds)
        )
        return out
