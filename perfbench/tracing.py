"""In-process traced run: spans around each module's public functions.

``chgsets.cli.main(argv)`` runs inside the benchmark process while timing
wrappers replace functions under the names each module imports them by
(modules bind ``from .x import y``, so a wrapper goes where the call is made).
Each span records its name, the module it was called from, start, end, parent
and command index; spans stay in memory and are written out at the end.
Counts come from arguments and return values only: per-element functions
(``add``, ``sub``, ``canonical_shift_tuple``, ``ext_mul``,
``SplitMix64.uniform``) are never wrapped, since they run millions of times.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import math
import os
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

MODULES = ("cli", "constructions", "fields", "groups", "rng", "search", "setio", "verify")


def _bytes_written(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _subsets(args, result):
    return {"subsets": math.comb(len(args["target"]), args["h"])}


def _classes(args, result):
    return {"subsets": math.comb(len(args["host"]), args["h"]), "classes": len(result)}


def _weak(args, result):
    _, attempts, _ = result
    return {"attempts": attempts, "draws": args["max_attempts"] + attempts * args["n"]}


# (module holding the binding, attribute, span name, count function)
SITES = (
    ("cli", "read_set", "setio.read_set", None),
    ("cli", "write_set", "setio.write_set", _bytes_written),
    ("cli", "write_pbm", "setio.write_pbm", _bytes_written),
    ("cli", "sphere_set", "constructions.sphere_set", None),
    ("constructions", "sphere_set", "constructions.sphere_set", None),
    ("cli", "norm_set", "constructions.norm_set", None),
    ("constructions", "ext_field", "fields.ext_field", None),
    ("constructions", "norm", "fields.norm", None),
    ("cli", "weak_random_set", "constructions.weak_random_set", _weak),
    ("constructions", "detect_bad", "constructions.detect_bad",
     lambda args, result: {"bad": len(result)}),
    ("cli", "verify_chg", "verify.verify_chg", _subsets),
    ("search", "verify_chg", "verify.verify_chg", _subsets),
    ("cli", "verify_weak_chg", "verify.verify_weak_chg", _subsets),
    ("constructions", "verify_weak_chg", "verify.verify_weak_chg", _subsets),
    ("verify", "enumerate_pattern_classes", "groups.enumerate_pattern_classes", _classes),
    ("cli", "build_zmatrix", "verify.build_zmatrix", lambda args, result: {"cells": result.n**2}),
    ("cli", "check_kgh_free", "verify.check_kgh_free",
     lambda args, result: {"columns": math.comb(args["zm"].n, args["h"])}),
    ("cli", "max_table", "search.max_table", None),
    ("search", "max_chg_exact", "search.max_chg_exact",
     lambda args, result: {"nodes": result.nodes_explored}),
    ("cli", "greedy_chg", "search.greedy_chg", None),
    ("search", "greedy_chg", "search.greedy_chg", None),
)

# Per-layer metrics in report order: (name, unit).  Layer times are summed over
# one pass of the workload's commands; `self` excludes child spans.
PER_LAYER = (
    ("cli.start_s", "s"),
    ("cli.self_s", "s"),
    ("setio.read_set_s", "s"),
    ("setio.write_set_s", "s"),
    ("setio.write_pbm_s", "s"),
    ("setio.bytes_written", "count"),
    ("constructions.sphere_set_s", "s"),
    ("constructions.norm_set_self_s", "s"),
    ("constructions.detect_bad_s", "s"),
    ("constructions.weak_sets", "count"),
    ("constructions.attempts", "count"),
    ("constructions.accept_ratio", "ratio"),
    ("constructions.bad_size", "count"),
    ("fields.ext_field_s", "s"),
    ("fields.norm_calls", "count"),
    ("fields.norm_s", "s"),
    ("fields.norms_per_s", "1/s"),
    ("rng.draws", "count"),
    ("rng.sample_s", "s"),
    ("rng.draws_per_s", "1/s"),
    ("groups.enumerate_pattern_classes_s", "s"),
    ("groups.subsets", "count"),
    ("groups.classes", "count"),
    ("groups.subsets_per_s", "1/s"),
    ("verify.verify_chg_s", "s"),
    ("verify.verify_chg_subsets", "count"),
    ("verify.verify_chg_subsets_per_s", "1/s"),
    ("verify.verify_weak_chg_s", "s"),
    ("verify.verify_weak_subsets", "count"),
    ("verify.verify_weak_subsets_per_s", "1/s"),
    ("verify.build_zmatrix_s", "s"),
    ("verify.zmatrix_cells", "count"),
    ("verify.check_kgh_free_s", "s"),
    ("verify.column_subsets", "count"),
    ("search.max_table_s", "s"),
    ("search.max_chg_exact_calls", "count"),
    ("search.nodes", "count"),
    ("search.nodes_per_s", "1/s"),
    ("search.greedy_chg_s", "s"),
    ("search.verify_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead", "ratio"),
)

# derived rate -> (count, time)
RATES = {
    "fields.norms_per_s": ("fields.norm_calls", "fields.norm_s"),
    "rng.draws_per_s": ("rng.draws", "rng.sample_s"),
    "groups.subsets_per_s": ("groups.subsets", "groups.enumerate_pattern_classes_s"),
    "verify.verify_chg_subsets_per_s": ("verify.verify_chg_subsets", "verify.verify_chg_s"),
    "verify.verify_weak_subsets_per_s": ("verify.verify_weak_subsets", "verify.verify_weak_chg_s"),
    "search.nodes_per_s": ("search.nodes", "search.max_table_s"),
}


@dataclass(slots=True)
class Span:
    name: str
    site: str
    start: float
    parent: Span | None
    command: int
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs the wrappers of ``SITES`` and collects their spans."""

    def __init__(self, src_dir: str):
        if src_dir not in sys.path:
            sys.path.insert(0, src_dir)
        self.modules = {m: importlib.import_module(f"chgsets.{m}") for m in MODULES}
        # lru caches are emptied before each command, as a fresh process has them
        self._caches = [f for mod in self.modules.values() for f in vars(mod).values()
                        if hasattr(f, "cache_clear")]
        self.spans: list = []
        self._stack: list = []
        self._command = -1

    def _call(self, name, site, fn, args, kwargs, count=None, signature=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, site, perf_counter(), parent, self._command)
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += span.end - span.start
        if count is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts = count(bound.arguments, result)
        return result

    def _wrap(self, name, site, fn, count):
        signature = inspect.signature(fn) if count is not None else None

        def wrapper(*args, **kwargs):
            return self._call(name, site, fn, args, kwargs, count, signature)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, count in SITES:
                mod = self.modules[module]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, module, fn, count))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def run(self, index: int, argv, traced: bool) -> tuple:
        """Run one CLI command in-process: (exit code, stdout)."""
        for f in self._caches:
            f.cache_clear()
        out = io.StringIO()
        main = self.modules["cli"].main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if traced:
                self._command = index
                code = self._call("cli.main", "bench", main, (list(argv),), {})
            else:
                code = main(list(argv))
        return code, out.getvalue()


def pass_metrics(spans) -> dict:
    """Per-layer times and counts of one traced pass (no rates)."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    counts = Counter()
    for s in spans:
        d = s.end - s.start
        total[s.name] += d
        total[f"{s.name}@{s.site}"] += d
        own[s.name] += d - s.child_s
        calls[s.name] += 1
        for k, v in s.counts.items():
            counts[f"{s.name}.{k}"] += v
    return {
        "cli.self_s": own["cli.main"],
        "setio.read_set_s": total["setio.read_set"],
        "setio.write_set_s": total["setio.write_set"],
        "setio.write_pbm_s": total["setio.write_pbm"],
        "setio.bytes_written": counts["setio.write_set.bytes"] + counts["setio.write_pbm.bytes"],
        "constructions.sphere_set_s": total["constructions.sphere_set"],
        "constructions.norm_set_self_s": own["constructions.norm_set"],
        "constructions.detect_bad_s": total["constructions.detect_bad"],
        "constructions.weak_sets": calls["constructions.weak_random_set"],
        "constructions.attempts": counts["constructions.weak_random_set.attempts"],
        "constructions.bad_size": counts["constructions.detect_bad.bad"],
        "fields.ext_field_s": total["fields.ext_field"],
        "fields.norm_calls": calls["fields.norm"],
        "fields.norm_s": total["fields.norm"],
        "rng.draws": counts["constructions.weak_random_set.draws"],
        "rng.sample_s": own["constructions.weak_random_set"],
        "groups.enumerate_pattern_classes_s": total["groups.enumerate_pattern_classes"],
        "groups.subsets": counts["groups.enumerate_pattern_classes.subsets"],
        "groups.classes": counts["groups.enumerate_pattern_classes.classes"],
        "verify.verify_chg_s": total["verify.verify_chg"],
        "verify.verify_chg_subsets": counts["verify.verify_chg.subsets"],
        "verify.verify_weak_chg_s": total["verify.verify_weak_chg"],
        "verify.verify_weak_subsets": counts["verify.verify_weak_chg.subsets"],
        "verify.build_zmatrix_s": total["verify.build_zmatrix"],
        "verify.zmatrix_cells": counts["verify.build_zmatrix.cells"],
        "verify.check_kgh_free_s": total["verify.check_kgh_free"],
        "verify.column_subsets": counts["verify.check_kgh_free.columns"],
        "search.max_table_s": total["search.max_table"],
        "search.max_chg_exact_calls": calls["search.max_chg_exact"],
        "search.nodes": counts["search.max_chg_exact.nodes"],
        "search.greedy_chg_s": total["search.greedy_chg"],
        "search.verify_s": total["verify.verify_chg@search"],
    }


def combine(passes: list, extra: dict) -> tuple:
    """Median of each time over traced passes; counts must repeat exactly.

    Returns (metrics, spreads, unstable count names).
    """
    units = dict(PER_LAYER)
    metrics, spreads, unstable = {}, {}, []
    for name in passes[0]:
        values = [p[name] for p in passes]
        if units[name] == "count":
            metrics[name] = values[0]
            if len(set(values)) > 1:
                unstable.append(name)
        else:
            metrics[name] = statistics.median(values)
            spreads[name] = values
    metrics.update(extra)
    for rate, (count, seconds) in RATES.items():
        metrics[rate] = metrics[count] / metrics[seconds] if metrics[seconds] > 0 else 0.0
    attempts = metrics["constructions.attempts"]
    metrics["constructions.accept_ratio"] = (
        metrics["constructions.weak_sets"] / attempts if attempts else 0.0)
    return {name: metrics[name] for name, _ in PER_LAYER}, spreads, unstable


def spans_json(spans) -> list:
    index = {id(s): i for i, s in enumerate(spans)}
    return [{"name": s.name, "site": s.site, "command": s.command, "start": s.start,
             "end": s.end, "parent": None if s.parent is None else index[id(s.parent)],
             "counts": s.counts} for s in spans]
