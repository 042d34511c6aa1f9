"""Span recorder that times erwalk's modules from outside the package.

`install` replaces each public function listed in TARGETS by a wrapper
that records a span: (span id, name id, parent span id, start, end).  The
modules bind each other's functions with `from ... import`, so the wrapper
goes into every erwalk module namespace that holds the function, not only
the defining one; that is what puts a span on each cross-module call site.
Spans stay in memory as one flat array of doubles and are written out by
`Tracer.dump` when the iteration ends.  Nothing in the package changes.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
from array import array
from time import perf_counter


def _rep_steps(reps_arg):
    """Hook factory: count replicates x (n_steps - 1) from the call's arguments."""

    def make(fn):
        sig = inspect.signature(fn)

        def count(counters, args, kwargs, result):
            a = sig.bind(*args, **kwargs).arguments
            reps = a[reps_arg] if reps_arg else 1
            counters["walkers.rep_steps"] += reps * (a["n_steps"] - 1)

        return count

    return make


def _hook(count):
    """Hook factory for a counter that needs only the result."""
    return lambda fn: count


def _generators(counters, args, kwargs, result):
    counters["streams.generators"] += len(result)


def _particles(counters, args, kwargs, result):
    counters["branching.particles"] += int(result.generation_sizes.sum())
    counters["branching.cap_hits"] += result.cap_hits
    counters["branching.truncation_mass"] += result.truncation_mass


def _gates(counters, args, kwargs, result):
    counters["report.gates"] += len(result)
    counters["report.gates_failed"] += sum(not g.passed for g in result)


def _bytes(counters, args, kwargs, result):
    counters["serialize.bytes_written"] += os.path.getsize(result)


#: (span name, module, attribute, hook factory or None); "Class.method"
#: attributes are patched on the class.  A target missing from the module
#: is skipped, so its metrics read 0.
TARGETS = [
    ("streams.replicate_streams", "erwalk.streams", "replicate_streams", _hook(_generators)),
    ("walkers.run_ensemble", "erwalk.walkers", "run_ensemble", _rep_steps("n_replicates")),
    ("walkers.run_walk", "erwalk.walkers", "run_walk", _rep_steps(None)),
    ("walkers.run_coupled_ensemble", "erwalk.walkers", "run_coupled_ensemble", _rep_steps("n_replicates")),
    ("memory.MemoryLaw.cdf", "erwalk.memory", "MemoryLaw.cdf", None),
    ("gammaratio.log_poch", "erwalk.gammaratio", "log_poch", None),
    ("gammaratio.RatioSeq.values", "erwalk.gammaratio", "RatioSeq.values", None),
    ("gammaratio.poch_ratio_sum", "erwalk.gammaratio", "poch_ratio_sum", None),
    ("branching.simulate", "erwalk.branching", "simulate", _hook(_particles)),
    ("branching.offspring_cutoff", "erwalk.branching", "offspring_cutoff", None),
    ("branching.sample_offspring", "erwalk.branching", "sample_offspring", None),
    ("exact.propagate_moments", "erwalk.exact", "propagate_moments", None),
    ("exact.l2_diagnostic", "erwalk.exact", "l2_diagnostic", None),
    ("exact.exact_mean_xi", "erwalk.exact", "exact_mean_xi", None),
    ("exact.enumerate_law", "erwalk.exact", "enumerate_law", None),
    ("exact.lower_bound_prob_one", "erwalk.exact", "lower_bound_prob_one", None),
    ("analysis.build_report", "erwalk.analysis", "build_report", None),
    ("analysis.chi_square_vs_law", "erwalk.analysis", "chi_square_vs_law", None),
    ("analysis.chi_square_two_sample", "erwalk.analysis", "chi_square_two_sample", None),
    ("analysis.fit_exponent", "erwalk.analysis", "fit_exponent", None),
    ("report.run_gates", "erwalk.report", "run_gates", _hook(_gates)),
    ("cli.main", "erwalk.cli", "main", None),
]

COUNTERS = (
    "streams.generators",
    "walkers.rep_steps",
    "branching.particles",
    "branching.cap_hits",
    "branching.truncation_mass",
    "report.gates",
    "report.gates_failed",
    "serialize.bytes_written",
)


class Tracer:
    """Holds the spans and counters of one iteration."""

    def __init__(self):
        self.names: list[str] = []
        self.records = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.originals: dict[str, object] = {}
        self._stack = [0]
        self._ids = itertools.count(1)

    def wrap(self, fn, name, count=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        records, stack, ids, counters = self.records, self._stack, self._ids, self.counters

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                records.extend((sid, name_id, parent, t0, t1))
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def dump(self, out_dir: str) -> None:
        """Write spans.bin (float64 rows of 5) and trace.json."""
        with open(os.path.join(out_dir, "spans.bin"), "wb") as fh:
            self.records.tofile(fh)
        cutoff = self.originals.get("branching.offspring_cutoff")
        info = cutoff.cache_info() if hasattr(cutoff, "cache_info") else None
        meta = {
            "names": self.names,
            "counters": self.counters,
            "cutoff_cache": None if info is None else {"hits": info.hits, "misses": info.misses},
        }
        with open(os.path.join(out_dir, "trace.json"), "w") as fh:
            json.dump(meta, fh)


def _erwalk_modules():
    return [m for n, m in list(sys.modules.items()) if n == "erwalk" or n.startswith("erwalk.")]


def _patch_everywhere(orig, wrapped, modules) -> None:
    for mod in modules:
        keys = [k for k, v in vars(mod).items() if v is orig]
        for k in keys:
            setattr(mod, k, wrapped)


def install() -> Tracer:
    """Wrap every TARGET (and every serialize.write_*) in the loaded erwalk modules."""
    tracer = Tracer()
    modules = _erwalk_modules()
    for name, modname, attr, make in TARGETS:
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            orig = None if cls is None else cls.__dict__.get(meth)
            if orig is None:
                continue
            setattr(cls, meth, tracer.wrap(orig, name))
        else:
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            count = make(orig) if make else None
            _patch_everywhere(orig, tracer.wrap(orig, name, count), modules)
        tracer.originals[name] = orig
    ser = sys.modules.get("erwalk.serialize")
    if ser is not None:
        writers = [(k, v) for k, v in vars(ser).items()
                   if k.startswith("write_") and callable(v)]
        for _, fn in writers:
            _patch_everywhere(fn, tracer.wrap(fn, "serialize.write", _bytes), modules)
    return tracer
