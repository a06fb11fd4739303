"""Span tracing of the program's layers, from outside the program.

``Tracer`` replaces each traced function with a timing wrapper in every
cfarmismatch module that binds it, so calls made through names imported at
module load (``mcengine`` and ``cli`` bind ``sample_pairs``, ``stat_values``,
the writers and more) are seen too. Spans are kept in memory; a layer's self
time is its spans' durations minus the time of their child spans.

``PoolProbe`` times the parent-process side of worker pools and counts the
bytes their tasks and results would pickle to.
"""

from __future__ import annotations

import functools
import os
import pickle
import sys
import time
from collections import defaultdict

# (layer, attribute) of every traced function; a dotted attribute is a method.
# scenario and matkit are helpers: their time stays with the calling layer.
TARGETS = (
    ("cli", "main"),
    ("config", "load_user_dict"), ("config", "from_dict"),
    ("randkit", "StreamKey.child"), ("randkit", "StreamKey.generator"),
    ("randkit", "wilson_ci"), ("randkit", "beta_cdf"), ("randkit", "cf1_survival"),
    ("storep", "make_sampler"), ("storep", "sample_pairs"),
    ("detect", "gen_data_batch"), ("detect", "raw_stats_batch"),
    ("detect", "pairs_from_raw"), ("detect", "stat_values"),
    ("mismatch", "gen_sigma_t"), ("mismatch", "omega_decompose"),
    ("mcengine", "calibrate_entry"), ("mcengine", "calibrate_threshold"),
    ("mcengine", "calibrate_snr"), ("mcengine", "count_exceedances"),
    ("mcengine", "sweep"), ("mcengine", "ecdf"), ("mcengine", "kelly_threshold"),
    ("report", "write_csv"), ("report", "write_json"), ("report", "svg_plot"),
    ("report", "step_curve"),
)

LAYERS = ("cli", "config", "randkit", "storep", "detect", "mismatch", "mcengine", "report")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Per-span counts, from the call's arguments or its result.
COUNTERS = {
    "storep.sample_pairs": lambda a, kw, res: _arg(a, kw, 2, "size"),
    "detect.gen_data_batch": lambda a, kw, res: _arg(a, kw, 6, "n_batch"),
    "mcengine.sweep": lambda a, kw, res: len(res.errors),
    "report.write_csv": lambda a, kw, res: os.path.getsize(_arg(a, kw, 0, "path")),
    "report.svg_plot": lambda a, kw, res: os.path.getsize(_arg(a, kw, 0, "path")),
}

# Metric: span names whose self times it sums.
SELF_TIMES = {
    "config.load_s": ("config.load_user_dict", "config.from_dict"),
    "randkit.stream_s": ("randkit.StreamKey.child", "randkit.StreamKey.generator"),
    "storep.sample_s": ("storep.sample_pairs", "storep.make_sampler"),
    "detect.gen_s": ("detect.gen_data_batch",),
    "detect.reduce_s": ("detect.raw_stats_batch", "detect.pairs_from_raw"),
    "detect.score_s": ("detect.stat_values",),
    "mismatch.gen_s": ("mismatch.gen_sigma_t",),
    "mismatch.omega_s": ("mismatch.omega_decompose",),
    "mcengine.calibrate_s": ("mcengine.calibrate_entry", "mcengine.calibrate_threshold"),
    "mcengine.snr_s": ("mcengine.calibrate_snr", "mcengine.count_exceedances"),
    "mcengine.sweep_s": ("mcengine.sweep",),
    "report.csv_s": ("report.write_csv",),
    "report.svg_s": ("report.svg_plot",),
    "report.json_s": ("report.write_json",),
}

# Metric: span name whose counts it sums.
COUNT_SUMS = {
    "storep.pairs": "storep.sample_pairs",
    "detect.direct_trials": "detect.gen_data_batch",
    "mcengine.draws_failed": "mcengine.sweep",
    "report.csv_bytes": "report.write_csv",
    "report.svg_bytes": "report.svg_plot",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "count", "error")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.count = 0
        self.error = False

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def has_ancestor(self, name: str) -> bool:
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False


def _package_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "cfarmismatch" or key.startswith("cfarmismatch."))]


class _Patches:
    """Attribute replacements, undone in reverse order on exit."""

    def __init__(self):
        self._undo = []

    def set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def rebind(self, original, replacement):
        """Point every package-module name bound to ``original`` at ``replacement``."""
        for mod in _package_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self.set(mod, key, replacement)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)


class Tracer(_Patches):
    """Wraps every function in TARGETS for the duration of a ``with`` block."""

    def __init__(self):
        super().__init__()
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def __enter__(self):
        for layer, attr in TARGETS:
            mod = sys.modules[f"cfarmismatch.{layer}"]
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self.set(cls, meth, self._wrap(name, getattr(cls, meth)))
            else:
                original = getattr(mod, attr)
                self.rebind(original, self._wrap(name, original))
        return self

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                spans.append(span)
            span.count = counter(args, kwargs, result) if counter else 1
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        self_by_name: dict[str, float] = defaultdict(float)
        count_by_name: dict[str, int] = defaultdict(int)
        for s in self.spans:
            self_by_name[s.name] += s.self_s
            count_by_name[s.name] += s.count
        out: dict[str, float] = {}
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(self_by_name[n] for n in names)
        for metric, name in COUNT_SUMS.items():
            out[metric] = count_by_name[name]
        out["randkit.streams"] = count_by_name["randkit.StreamKey.generator"]
        out["mismatch.draws"] = count_by_name["mismatch.gen_sigma_t"]
        out["mismatch.failures"] = sum(
            1 for s in self.spans if s.error and s.name.startswith("mismatch."))
        out["mcengine.snr_evals"] = sum(
            1 for s in self.spans
            if s.name == "mcengine.count_exceedances" and s.has_ancestor("mcengine.calibrate_snr"))
        out["storep.pairs_per_s"] = _rate(out["storep.pairs"], out["storep.sample_s"])
        out["detect.direct_trials_per_s"] = _rate(
            out["detect.direct_trials"], out["detect.gen_s"] + out["detect.reduce_s"])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for n, t in self_by_name.items() if n.startswith(layer + "."))
        return out


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


class PoolProbe(_Patches):
    """Times pool start, task submission and shutdown in the parent process,
    and adds up the pickled size of every task and result a pool carries."""

    def __init__(self):
        super().__init__()
        self.pool_starts = 0
        self.pool_s = 0.0
        self.ipc_bytes = 0

    def __enter__(self):
        mcengine = sys.modules["cfarmismatch.mcengine"]
        probe = self

        class TimedPool(mcengine.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                t0 = time.perf_counter()
                super().__init__(*args, **kwargs)
                probe.pool_starts += 1
                probe.pool_s += time.perf_counter() - t0

            def map(self, *args, **kwargs):
                t0 = time.perf_counter()
                results = super().map(*args, **kwargs)
                probe.pool_s += time.perf_counter() - t0
                return results

            def shutdown(self, *args, **kwargs):
                t0 = time.perf_counter()
                super().shutdown(*args, **kwargs)
                probe.pool_s += time.perf_counter() - t0

        map_chunks = mcengine._map_chunks

        def counted_map_chunks(fn, args_list, workers):
            results = map_chunks(fn, args_list, workers)
            if workers > 1:
                probe.ipc_bytes += sum(len(pickle.dumps(x)) for x in list(args_list) + results)
            return results

        self.set(mcengine, "ProcessPoolExecutor", TimedPool)
        self.set(mcengine, "_map_chunks", counted_map_chunks)
        return self

    def metrics(self) -> dict[str, float]:
        return {"mcengine.pool_starts": self.pool_starts, "mcengine.pool_s": self.pool_s,
                "mcengine.ipc_bytes": self.ipc_bytes}
