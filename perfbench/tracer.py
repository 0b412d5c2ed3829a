"""Spans around enrq's public functions, installed from outside the package.

``Tracer.installed()`` rebinds every name under which an ``enrq`` module holds
a traced function (``madd`` bound into ``enrq.series``, ``product_expand``
imported into ``qfunc``, ``perverse`` and ``enriques``, both ``Series.__mul__``
and its alias ``__rmul__``, the entries of ``enrq.checks.CHECKS``) and restores
them on exit.  Spans are kept in memory: name, start, end, parent span and
job id.  A wrapper records nothing while ``tracer.job`` is None, so code run
between jobs (verification) stays out of the trace.
"""

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from statistics import median

from enrq import checks, config, enriques, kernel, perverse, qfunc, series
from enrq.series import Series

QFUNC = ("plethystic_exp", "plethystic_log", "theta", "eta", "theta_pair", "inv_theta_pair")
SERIES_FUNCS = ("product_expand", "divide_exact", "exp_series", "log_series")
SERIES_METHODS = (("__mul__", "mul"), ("invert", "invert"), ("specialize", "specialize"),
                  ("coefficient", "coefficient"), ("dumps", "dumps"))
SERIES_OPS = ("mul", *SERIES_FUNCS, "invert", "specialize", "coefficient", "dumps", "loads")
ENRIQUES = ("pt_fiber_full", "betti_realization", "gv_refined_extract", "pt_fiber_series",
            "local_enriques_log_pt")
PERVERSE = ("ph_main_term", "ph_main_term_jacobi", "ph_betti_term", "perverse_table",
            "check_primitive_chain", "asymptotic_ph_gf", "asymptotic_betti_gf",
            "omega_half_integral_series")
CONFIG = ("hodge_inputs", "betti_defaults")


def per_layer_metrics(check_names):
    """(name, unit, better) of every per-layer metric, in report order."""
    m = [("kernel.madd.calls", "count", "lower"), ("kernel.madd.pairs", "count", "lower"),
         ("kernel.madd.out_terms", "count", "lower"), ("kernel.madd.self_s", "s", "lower"),
         ("kernel.madd.yield", "ratio", "higher")]
    for f in QFUNC:
        m += [(f"qfunc.{f}.s", "s", "lower"), (f"qfunc.{f}.self_s", "s", "lower")]
    for f in SERIES_OPS:
        m += [(f"series.{f}.calls", "count", "lower"), (f"series.{f}.s", "s", "lower"),
              (f"series.{f}.self_s", "s", "lower")]
    m.append(("series.peak_terms", "count", "lower"))
    m += [("ring.coeff.int", "count", "higher"), ("ring.coeff.rational", "count", "lower"),
          ("ring.coeff.linexpr", "count", "lower")]
    m += [(f"enriques.{f}.s", "s", "lower") for f in ENRIQUES]
    m += [(f"perverse.{f}.s", "s", "lower") for f in PERVERSE]
    m.append(("perverse.unknown_cells", "count", "lower"))
    m += [(f"checks.{c}.s", "s", "lower") for c in check_names]
    m += [("cli.expand.cold_s", "s", "lower"), ("cli.expand.hit_ratio", "ratio", "higher"),
          ("cli.tables.s", "s", "lower"), ("cli.check.s", "s", "lower"),
          ("config.load.s", "s", "lower"), ("config.load.setup_s", "s", "lower"),
          ("trace.job_s", "s", "lower")]
    return m


def _enrq_modules():
    return [m for n, m in list(sys.modules.items()) if n == "enrq" or n.startswith("enrq.")]


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.job = None
        self.spans = []  # [name, start, end, parent index, job, outermost of its name]
        self.counts = defaultdict(int)  # (job, counter) -> value
        self._stack = []
        self._open_names = defaultdict(int)
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        outer = self._open_names[name] == 0
        self._open_names[name] += 1
        self.spans.append([name, time.perf_counter(), None, parent, self.job, outer])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        rec = self.spans[self._stack.pop()]
        rec[2] = time.perf_counter()
        self._open_names[rec[0]] -= 1

    @contextlib.contextmanager
    def span(self, name):
        if self.job is None:
            yield
            return
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if isinstance(result, Series):
                key = (self.job, "peak_terms")
                self.counts[key] = max(self.counts[key], len(result.terms))
            return result

        return traced

    def _wrap_madd(self, fn):
        @functools.wraps(fn)
        def traced(out, f, g, *rest):
            if self.job is None:
                return fn(out, f, g, *rest)
            self._open("kernel.madd")
            try:
                result = fn(out, f, g, *rest)
            finally:
                self._close()
            self.counts[(self.job, "pairs")] += len(f) * len(g)
            self.counts[(self.job, "out_terms")] += len(out)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def _rebind(self, orig, wrapper):
        """Replace ``orig`` under every name an enrq module, Series or CHECKS gives it."""
        for holder in (*_enrq_modules(), Series, checks.CHECKS):
            items = holder.items() if isinstance(holder, dict) else vars(holder).items()
            for attr, val in list(items):
                if val is orig:
                    self._undo.append((holder, attr, orig))
                    if isinstance(holder, dict):
                        holder[attr] = wrapper
                    else:
                        setattr(holder, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        targets = [(kernel.madd, self._wrap_madd(kernel.madd))]
        for prefix, mod, names in (("qfunc", qfunc, QFUNC), ("series", series, SERIES_FUNCS),
                                   ("enriques", enriques, ENRIQUES), ("perverse", perverse, PERVERSE)):
            targets += [(getattr(mod, f), self._wrap(f"{prefix}.{f}", getattr(mod, f))) for f in names]
        targets += [(getattr(config, f), self._wrap("config.load", getattr(config, f))) for f in CONFIG]
        targets += [(vars(Series)[m], self._wrap(f"series.{short}", vars(Series)[m]))
                    for m, short in SERIES_METHODS]
        targets += [(fn, self._wrap(f"checks.{name}", fn)) for name, fn in checks.CHECKS.items()]
        try:
            for orig, wrapper in targets:
                self._rebind(orig, wrapper)
            loads = vars(Series)["loads"]
            self._undo.append((Series, "loads", loads))
            Series.loads = classmethod(self._wrap("series.loads", loads.__func__))
            yield self
        finally:
            while self._undo:
                holder, attr, orig = self._undo.pop()
                if isinstance(holder, dict):
                    holder[attr] = orig
                else:
                    setattr(holder, attr, orig)

    # -- reading -----------------------------------------------------------

    def job_layers(self):
        """{job: {span name: [calls, outermost seconds, self seconds]}} plus cache hits."""
        child = defaultdict(float)
        for name, start, end, parent, job, outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        warm_builds = set()
        for i, (name, start, end, parent, job, outer) in enumerate(self.spans):
            acc = layers[job][name]
            acc[0] += 1
            if outer:
                acc[1] += end - start
            acc[2] += end - start - child[i]
            if name == "series.dumps":
                p = parent
                while p >= 0 and self.spans[p][0] != "cli.expand.warm":
                    p = self.spans[p][3]
                if p >= 0:
                    warm_builds.add(p)
        misses = defaultdict(int)
        for p in warm_builds:
            misses[self.spans[p][4]] += 1
        return layers, misses

    def metrics(self, jobs, check_names, extra):
        """Per-layer metrics: the median over ``jobs`` of each per-job value.

        ``extra`` maps job -> {metric: value} for what the runner measures
        itself (coefficient census, unknown cells, traced job time).
        """
        layers, misses = self.job_layers()
        setup = layers.get("setup", {})
        per_job = []
        for job in jobs:
            lay = layers.get(job, {})

            def calls(name):
                return lay[name][0] if name in lay else 0

            def incl(name):
                return lay[name][1] if name in lay else 0.0

            def self_s(name):
                return lay[name][2] if name in lay else 0.0

            pairs = self.counts.get((job, "pairs"), 0)
            out_terms = self.counts.get((job, "out_terms"), 0)
            v = {
                "kernel.madd.calls": calls("kernel.madd"),
                "kernel.madd.pairs": pairs,
                "kernel.madd.out_terms": out_terms,
                "kernel.madd.self_s": self_s("kernel.madd"),
                "kernel.madd.yield": out_terms / pairs if pairs else 0.0,
            }
            for f in QFUNC:
                v[f"qfunc.{f}.s"] = incl(f"qfunc.{f}")
                v[f"qfunc.{f}.self_s"] = self_s(f"qfunc.{f}")
            for f in SERIES_OPS:
                v[f"series.{f}.calls"] = calls(f"series.{f}")
                v[f"series.{f}.s"] = incl(f"series.{f}")
                v[f"series.{f}.self_s"] = self_s(f"series.{f}")
            v["series.peak_terms"] = self.counts.get((job, "peak_terms"), 0)
            for f in ENRIQUES:
                v[f"enriques.{f}.s"] = incl(f"enriques.{f}")
            for f in PERVERSE:
                v[f"perverse.{f}.s"] = incl(f"perverse.{f}")
            for c in check_names:
                v[f"checks.{c}.s"] = incl(f"checks.{c}")
            warm = calls("cli.expand.warm")
            v["cli.expand.cold_s"] = incl("cli.expand.cold")
            v["cli.expand.hit_ratio"] = (warm - misses.get(job, 0)) / warm if warm else 0.0
            v["cli.tables.s"] = incl("cli.tables")
            v["cli.check.s"] = incl("cli.check")
            v["config.load.s"] = incl("config.load")
            v["config.load.setup_s"] = setup["config.load"][1] if "config.load" in setup else 0.0
            v.update(extra.get(job, {}))
            per_job.append(v)
        return {k: median(v[k] for v in per_job) for k in per_job[0]}

    def write(self, path):
        """Spans as JSON lines, times in seconds since the tracer was made."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, _ in self.spans:
                fh.write(json.dumps([name, start - self.t0, end - self.t0, parent, job]) + "\n")
