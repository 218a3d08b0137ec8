"""Outside-in layer trace: wraps votelim's public entry points from the benchmark.

Nothing in ``src/`` is edited.  ``Tracer.install`` replaces each entry point
listed in ``ENTRIES`` wherever the module namespaces of the ``votelim``
package bind it (a function imported into three modules is wrapped in all
three), and class methods on their class.  Untraced passes never call
``install``, so they run the unmodified program.

Two kinds of wrapper:

* span entries record one span per call (name, start, end, parent span),
  kept in memory and written out when the pass ends;
* per-point entries (``cdf1``, ``sample``, ``block_rng`` ...) are called
  hundreds of thousands of times, so they only add to a call count and a
  total time.

Times are inclusive and counted at the outermost call of an entry (a
``Product.sample`` calling its factors' ``sample`` counts once); self time
is span time minus the time of child calls made on the same thread.  Calls
made on sampler worker threads have no parent, so their time is busy time
summed over threads.  An exception leaving an entry point counts once
against its layer in ``<layer>.errors``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

LAYERS = ("config", "measures", "models", "quadrature", "limits", "verify", "cwm", "cli")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _quad_nodes(args, kwargs, result):
    return {"measures.quad_nodes": len(result[1])}


def _tensor_nodes(args, kwargs, result):
    return {"quadrature.tensor_nodes": len(result[1])}


def _lattice_cells(args, kwargs, result):
    return {"models.lattice_cells": int(result.probs.size)}


def _brute_configs(args, kwargs, result):
    return {"models.brute_force_configs": 2 ** int(_arg(args, kwargs, 1, "n"))}


def _csv_bytes(args, kwargs, result):
    return {"models.csv_bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _ks_points(args, kwargs, result):
    return {"verify.ks_points": int(_arg(args, kwargs, 0, "sample").size)}


def _cwm_samples(args, kwargs, result):
    return {"cwm.samples": int(_arg(args, kwargs, 3, "count"))}


def _count_evaluations(tracer, args, kwargs):
    """Wrap refine_until_stable's integrand to count evaluations and levels."""
    evaluate = _arg(args, kwargs, 0, "evaluate")

    def counted(level):
        tracer.add("quadrature.evaluations", 1)
        tracer.peak("quadrature.max_level", level)
        return evaluate(level)

    if "evaluate" in kwargs:
        return args, {**kwargs, "evaluate": counted}
    return (counted,) + tuple(args[1:]), kwargs


@dataclass(frozen=True)
class Entry:
    """One traced entry point: a metric prefix and the objects it wraps.

    A target is ``module:function``, ``module:Class.method`` or
    ``module:*.method`` (the method on every class of the module that
    defines it).
    """

    name: str
    targets: tuple[str, ...]
    per_point: bool = False
    count: Callable | None = None
    prepare: Callable | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


ENTRIES = (
    Entry("config.load", ("votelim.config:load_config", "votelim.config:config_from_dict")),
    Entry("measures.sample", ("votelim.measures:*.sample", "votelim.measures:sample"), per_point=True),
    Entry("measures.cdf1", ("votelim.measures:*.cdf1",), per_point=True),
    Entry("measures.quad", ("votelim.measures:*.quad_nodes",), per_point=True, count=_quad_nodes),
    Entry("models.sample_margins", ("votelim.models:sample_margins",)),
    Entry("models.block_rng", ("votelim.models:block_rng",), per_point=True),
    Entry("models.binomial", ("votelim.models:binomial_margins",), per_point=True),
    Entry("models.exact_pmf", ("votelim.models:exact_margin_pmf",), count=_lattice_cells),
    Entry("models.brute_force", ("votelim.models:brute_force_pmf",), count=_brute_configs),
    Entry("models.pair_correlation", ("votelim.models:pair_correlation",)),
    Entry("models.expected_abs_margin", ("votelim.models:expected_abs_margin",)),
    Entry("models.csv", ("votelim.models:MarginSample.to_csv",), count=_csv_bytes),
    Entry("quadrature.refine", ("votelim.quadrature:refine_until_stable",), prepare=_count_evaluations),
    Entry("quadrature.tensor", ("votelim.quadrature:tensor_rule",), per_point=True, count=_tensor_nodes),
    Entry("limits.limit_for", ("votelim.limits:limit_for",)),
    Entry("limits.cdf1", ("votelim.limits:LimitLaw.cdf1",), per_point=True),
    Entry("verify.ks", ("votelim.verify:ks_statistic",), count=_ks_points),
    Entry("verify.reports", ("votelim.verify:write_reports_jsonl", "votelim.verify:write_reports_csv")),
    Entry("verify.llt", ("votelim.verify:llt_sup_error",)),
    Entry("verify.correlation_decay", ("votelim.verify:correlation_decay_report",)),
    Entry("verify.alpha", ("votelim.verify:estimate_alpha",)),
    Entry("cwm.gibbs", ("votelim.cwm:gibbs_pmf",)),
    Entry("cwm.density_pmf", ("votelim.cwm:definetti_margin_pmf",)),
    Entry("cwm.equivalence", ("votelim.cwm:representation_equivalence_check",)),
    Entry("cwm.concentration", ("votelim.cwm:concentration_profile",)),
    Entry("cwm.sample", ("votelim.cwm:sample_cwm_margins",), count=_cwm_samples),
    Entry("cwm.surface", ("votelim.cwm:free_energy_surface",), per_point=True),
    Entry("cwm.surface_build", ("votelim.cwm:FreeEnergySurface.__init__",), per_point=True),
    Entry("cli.run", ("votelim.cli:run",)),
    Entry("cli.manifest", ("votelim.cli:_write_manifest",)),
    Entry("cli.ingest", ("votelim.cli:ingest_margins",)),
)

#: artifact writers whose time makes up ``cli.artifacts_s``
ARTIFACT_WRITERS = ("models.csv", "verify.reports", "cli.manifest")

#: the per-layer metrics a traced run reports, with their units
LAYER_METRICS = {
    "setup.import_s": "s",
    "config.load_s": "s",
    "measures.sample_s": "s",
    "measures.cdf1_calls": "count",
    "measures.cdf1_s": "s",
    "measures.quad_nodes": "count",
    "models.sample_margins_s": "s",
    "models.blocks": "count",
    "models.binomial_s": "s",
    "models.exact_pmf_s": "s",
    "models.lattice_cells": "count",
    "models.brute_force_s": "s",
    "models.brute_force_configs": "count",
    "models.pair_correlation_s": "s",
    "models.csv_s": "s",
    "models.csv_bytes": "bytes",
    "quadrature.refine_s": "s",
    "quadrature.refine_calls": "count",
    "quadrature.evaluations": "count",
    "quadrature.max_level": "count",
    "quadrature.tensor_nodes": "count",
    "limits.cdf1_calls": "count",
    "limits.cdf1_s": "s",
    "verify.ks_s": "s",
    "verify.ks_points": "count",
    "verify.reports_s": "s",
    "verify.llt_s": "s",
    "verify.correlation_decay_s": "s",
    "cwm.gibbs_s": "s",
    "cwm.density_pmf_s": "s",
    "cwm.concentration_s": "s",
    "cwm.sample_s": "s",
    "cwm.samples": "count",
    "cwm.surface_requests": "count",
    "cwm.surface_builds": "count",
    "cwm.surface_hit_ratio": "ratio",
    "cli.run_s": "s",
    "cli.artifacts_s": "s",
    "cli.artifact_bytes": "bytes",
    **{f"{layer}.errors": "count" for layer in LAYERS},
}


#: counters merged by maximum rather than by sum
PEAKS = frozenset({"quadrature.max_level"})
_NO_RESULT = object()


class _ThreadState:
    """One thread's open frames, re-entry depths and accumulated values."""

    def __init__(self):
        self.stack: list[list] = []
        self.active: dict[str, int] = defaultdict(int)
        self.acc: dict[tuple[str, str], float] = defaultdict(float)


class Tracer:
    """Span recorder and counter store for one traced pass.

    Each thread accumulates into its own store, so the hot path takes no
    lock; the stores are merged when the pass reports.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stores: list[dict] = []
        self._ids = itertools.count()
        self.spans: list[tuple] = []
        self.unwrapped: list[str] = []
        self.op = "setup"

    # -- recording -------------------------------------------------------------

    def _thread(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._stores.append(state.acc)
            return state

    def add(self, key: str, value: float) -> None:
        self._thread().acc[(self.op, key)] += value

    def peak(self, key: str, value: float) -> None:
        acc = self._thread().acc
        acc[(self.op, key)] = max(acc[(self.op, key)], value)

    def totals(self, op: str | None = None) -> dict[str, float]:
        """Values merged over threads, for one operation or all of them."""
        out: dict[str, float] = defaultdict(float)
        for acc in self._stores:
            for (acc_op, key), value in list(acc.items()):
                if op is None or acc_op == op:
                    out[key] = max(out[key], value) if key in PEAKS else out[key] + value
        return out

    def per_op(self) -> dict[str, dict[str, float]]:
        ops = {op for acc in self._stores for op, _ in acc}
        return {op: dict(self.totals(op)) for op in sorted(ops)}

    def _error(self, layer: str, exc: BaseException) -> None:
        # the exception remembers which layers counted it as it propagates
        counted = exc.__dict__.setdefault("_traced_layers", set())
        if layer not in counted:
            counted.add(layer)
            self.add(f"{layer}.errors", 1)

    def call(self, entry: Entry, keys: tuple[str, str, str], fn, args, kwargs):
        """Run ``fn`` as a call of ``entry``; ``keys`` are its calls/self/total keys."""
        enter = time.perf_counter()
        state = self._thread()
        stack = state.stack
        parent = stack[-1] if stack else None
        span_id = None if entry.per_point else next(self._ids)
        frame = [0.0, span_id]
        stack.append(frame)
        outer = state.active[entry.name] == 0
        state.active[entry.name] += 1
        if entry.prepare is not None and outer:
            args, kwargs = entry.prepare(self, args, kwargs)
        result = _NO_RESULT
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            self._error(entry.layer, exc)
            raise
        finally:
            end = time.perf_counter()
            state.active[entry.name] -= 1
            stack.pop()
            duration = end - start
            self_time = duration - frame[0]
            op = self.op
            acc = state.acc
            acc[(op, keys[0])] += 1
            acc[(op, keys[1])] += self_time
            if outer:
                acc[(op, keys[2])] += duration
            if span_id is not None:
                self.spans.append((span_id, parent[1] if parent else None, entry.name,
                                   op, start, end, self_time))
            if entry.count is not None and outer and result is not _NO_RESULT:
                for key, value in entry.count(args, kwargs, result).items():
                    acc[(op, key)] += value
            if parent is not None:
                # the parent's self time excludes this wrapper's bookkeeping too
                parent[0] += time.perf_counter() - enter

    # -- installation ------------------------------------------------------------

    def _wrapper(self, entry: Entry, fn):
        keys = (f"{entry.name}:calls", f"{entry.name}:self_s", f"{entry.name}:s")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(entry, keys, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap every entry point; targets missing from the program are listed."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "votelim" or name.startswith("votelim."))]
        for entry in ENTRIES:
            for target in entry.targets:
                module_name, _, attr = target.partition(":")
                module = sys.modules.get(module_name)
                if module is None:
                    self.unwrapped.append(target)
                    continue
                if "." in attr:
                    self._wrap_method(entry, module, target, *attr.split("."))
                else:
                    self._wrap_function(entry, module, target, attr, modules)

    def _wrap_function(self, entry, module, target, attr, modules) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.unwrapped.append(target)
            return
        traced = self._wrapper(entry, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def _wrap_method(self, entry, module, target, class_name, method) -> None:
        if class_name == "*":
            classes = [c for c in vars(module).values()
                       if inspect.isclass(c) and c.__module__ == module.__name__
                       and method in vars(c)]
        else:
            cls = getattr(module, class_name, None)
            classes = [cls] if cls is not None and method in vars(cls) else []
        if not classes:
            self.unwrapped.append(target)
        for cls in classes:
            setattr(cls, method, self._wrapper(entry, vars(cls)[method]))

    # -- reporting ---------------------------------------------------------------

    def layer_metrics(self, import_s: float) -> dict[str, float]:
        """The per-layer metrics of ``LAYER_METRICS`` from the recorded totals."""
        t = self.totals()
        requests = t["cwm.surface:calls"]
        builds = t["cwm.surface_build:calls"]
        out = {
            "setup.import_s": import_s,
            "config.load_s": t["config.load:s"],
            "measures.sample_s": t["measures.sample:s"],
            "measures.cdf1_calls": t["measures.cdf1:calls"],
            "measures.cdf1_s": t["measures.cdf1:s"],
            "measures.quad_nodes": t["measures.quad_nodes"],
            "models.sample_margins_s": t["models.sample_margins:s"],
            "models.blocks": t["models.block_rng:calls"],
            "models.binomial_s": t["models.binomial:s"],
            "models.exact_pmf_s": t["models.exact_pmf:s"],
            "models.lattice_cells": t["models.lattice_cells"],
            "models.brute_force_s": t["models.brute_force:s"],
            "models.brute_force_configs": t["models.brute_force_configs"],
            "models.pair_correlation_s": t["models.pair_correlation:s"],
            "models.csv_s": t["models.csv:s"],
            "models.csv_bytes": t["models.csv_bytes"],
            "quadrature.refine_s": t["quadrature.refine:s"],
            "quadrature.refine_calls": t["quadrature.refine:calls"],
            "quadrature.evaluations": t["quadrature.evaluations"],
            "quadrature.max_level": t["quadrature.max_level"],
            "quadrature.tensor_nodes": t["quadrature.tensor_nodes"],
            "limits.cdf1_calls": t["limits.cdf1:calls"],
            "limits.cdf1_s": t["limits.cdf1:s"],
            "verify.ks_s": t["verify.ks:self_s"],
            "verify.ks_points": t["verify.ks_points"],
            "verify.reports_s": t["verify.reports:s"],
            "verify.llt_s": t["verify.llt:s"],
            "verify.correlation_decay_s": t["verify.correlation_decay:s"],
            "cwm.gibbs_s": t["cwm.gibbs:s"],
            "cwm.density_pmf_s": t["cwm.density_pmf:s"],
            "cwm.concentration_s": t["cwm.concentration:s"],
            "cwm.sample_s": t["cwm.sample:s"],
            "cwm.samples": t["cwm.samples"],
            "cwm.surface_requests": requests,
            "cwm.surface_builds": builds,
            "cwm.surface_hit_ratio": (requests - builds) / requests if requests else 0.0,
            "cli.run_s": t["cli.run:s"],
            "cli.artifacts_s": sum(t[f"{w}:s"] for w in ARTIFACT_WRITERS),
            "cli.artifact_bytes": t["cli.artifact_bytes"],
        }
        for layer in LAYERS:
            out[f"{layer}.errors"] = t[f"{layer}.errors"]
        return {key: float(value) for key, value in out.items()}

    def span_tree(self) -> dict[str, dict]:
        """Spans folded by call path: count, inclusive and self seconds."""
        by_id = {span[0]: span for span in self.spans}

        def path(span):
            names = []
            while span is not None:
                names.append(span[2])
                span = by_id.get(span[1])
            return "/".join(reversed(names))

        tree: dict[str, dict] = defaultdict(lambda: {"count": 0, "s": 0.0, "self_s": 0.0})
        for span in self.spans:
            node = tree[path(span)]
            node["count"] += 1
            node["s"] += span[5] - span[4]
            node["self_s"] += span[6]
        return dict(sorted(tree.items()))
