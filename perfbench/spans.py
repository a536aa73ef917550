"""Spans around the calls into each hilbmat module, installed from outside.

``install`` wraps every public function of the layer modules and replaces
the function object under every name that refers to it in any ``hilbmat``
module: ``gaps``, ``identities``, ``symbols`` and ``cli`` import names
directly from ``spectra`` and ``matrices``, so patching the defining module
alone would miss most calls.  It also wraps ``eigsh`` wherever hilbmat
binds it, and wraps the operator handed to it, so that operator applies are
counted on whatever matvec the program uses.

A span is ``[name, start, end, parent, invocation, info]``; ``parent`` is the
index of the enclosing span (None at the root) and ``invocation`` the id of
the job that caused it.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
from collections import defaultdict
from time import perf_counter

from scipy.sparse.linalg import LinearOperator, aslinearoperator, eigsh

LAYERS = ("matrices", "spectra", "determinants", "identities", "symbols", "gaps")
DENSE_SOLVERS = ("spectra.spectral_norm", "spectra.skew_spectrum", "spectra.symmetric_eigen")
NORM_CACHES = ("toeplitz_hilbert_norm", "hankel_hilbert_norm")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans = []
        self.invocation = ""
        self.enabled = True
        self._stack = []
        self._matching_sizes = set()
        self._caches = {}

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recording one span per call.  ``before(args, kwargs)`` runs
        ahead of the call and ``after(state)`` turns its result into the
        span's info once the call has returned; both run outside the timed
        interval."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.invocation, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            state = before(args, kwargs) if before else None
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                if after:
                    span[5] = after(state)

        return traced

    def root(self, name, invocation, fn, *args):
        """Run one job as a root span with its own invocation id."""
        self.invocation = invocation
        return self.wrap(name, fn)(*args)

    # -- installation -------------------------------------------------------

    def install(self):
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"hilbmat.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                originals[obj] = self.wrap(f"{layer}.{attr}", obj,
                                           *self._hooks(layer, attr))
                if attr in NORM_CACHES:
                    self._caches[attr] = obj
        util = importlib.import_module("hilbmat._util")
        originals[util.write_csv] = self._wrap_csv(util.write_csv)
        originals[eigsh] = self._wrap_eigsh(eigsh)
        for mod in [m for n, m in sys.modules.items()
                    if n == "hilbmat" or n.startswith("hilbmat.")]:
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapped = originals.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapped is not None:
                    setattr(mod, attr, wrapped)

    def _hooks(self, layer, attr):
        if attr == "det_matching":
            def before(args, kwargs):
                R = len(args[0] if args else kwargs["B"])
                cold = R not in self._matching_sizes
                self._matching_sizes.add(R)
                return R, cold, _maxrss_kb()
            return before, lambda s: {"R": s[0], "cold": s[1],
                                      "rss_kb": _maxrss_kb() - s[2]}
        if layer == "determinants":
            return (lambda args, kwargs: _maxrss_kb(),
                    lambda s: {"rss_kb": _maxrss_kb() - s})
        return None, None

    def _wrap_csv(self, write_csv):
        """The CSV writer, as one span whose info counts the rows written."""

        @functools.wraps(write_csv)
        def counting(target, header, rows):
            if not self.enabled:
                return write_csv(target, header, rows)
            info = self.spans[self._stack[-1]][5] = {"rows": 0}

            def counted():
                for row in rows:
                    info["rows"] += 1
                    yield row

            return write_csv(target, header, counted())

        return self.wrap("cli.csv_write", counting)

    def _wrap_eigsh(self, eigsh):
        traced = self.wrap("spectra.lanczos", eigsh)

        @functools.wraps(eigsh)
        def eigsh_counting(A, *args, **kwargs):
            if self.enabled:
                A = aslinearoperator(A)
                A = LinearOperator(A.shape, dtype=A.dtype,
                                   matvec=self.wrap("spectra.op_apply", A.matvec))
            return traced(A, *args, **kwargs)

        return eigsh_counting

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] is not None:
                child[s[3]] += dur[i]

        def layer(i):
            return spans[i][0].split(".", 1)[0]

        by_name = defaultdict(lambda: [0, 0.0, 0.0])   # count, time, self time
        entry = defaultdict(lambda: [0, 0.0])           # calls into a layer, time
        self_by_layer = defaultdict(float)
        rss_kb = 0
        cold = warm = 0.0
        rows = 0
        for i, s in enumerate(spans):
            name, lay = s[0], layer(i)
            agg = by_name[name]
            agg[0] += 1
            agg[1] += dur[i]
            agg[2] += dur[i] - child[i]
            self_by_layer[lay] += dur[i] - child[i]
            outer = s[3] is None or layer(s[3]) != lay
            if outer:
                entry[lay][0] += 1
                entry[lay][1] += dur[i]
            info = s[5] or {}
            if lay == "determinants" and outer:
                rss_kb += info.get("rss_kb", 0)
            if name == "determinants.det_matching":
                if info.get("cold"):
                    cold += dur[i]
                else:
                    warm += dur[i]
            if name == "cli.csv_write":
                rows += info.get("rows", 0)

        hits = misses = 0
        for fn in self._caches.values():
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                hits += info.hits
                misses += info.misses

        def n(name):
            return by_name[name][0] if name in by_name else 0

        def t(*names):
            return sum(by_name[x][1] for x in names if x in by_name)

        def self_t(*names):
            return sum(by_name[x][2] for x in names if x in by_name)

        lanczos_s, op_s = t("spectra.lanczos"), t("spectra.op_apply")
        m = {
            "spectra.lanczos_solves": n("spectra.lanczos"),
            "spectra.lanczos_s": lanczos_s,
            "spectra.op_applies": n("spectra.op_apply"),
            "spectra.op_apply_s": op_s,
            "spectra.arpack_overhead_s": lanczos_s - op_s,
            "spectra.dense_solves": sum(n(x) for x in DENSE_SOLVERS),
            "spectra.dense_s": t(*DENSE_SOLVERS),
            "spectra.norm_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "matrices.calls": entry["matrices"][0],
            "matrices.s": entry["matrices"][1],
            "identities.checks": sum(v[0] for k, v in by_name.items()
                                     if k.startswith(("identities.check_",
                                                      "identities.probe_"))),
            "identities.battery_s": t("identities.run_suite"),
            "determinants.matching_calls": n("determinants.det_matching"),
            "determinants.matching_cold_s": cold,
            "determinants.matching_warm_s": warm,
            "determinants.rss_growth_mb": rss_kb / 1024.0,
            "determinants.pfaffian_s": t("determinants.pfaffian"),
            "determinants.lu_s": t("determinants.det_lu"),
            "determinants.minor_sum_s": t("determinants.principal_minor_sum"),
            "symbols.calls": entry["symbols"][0],
            "symbols.s": entry["symbols"][1],
            "gaps.witness_self_s": self_t("gaps.build_witness"),
            "cli.csv_rows": rows,
            "cli.csv_write_s": t("cli.csv_write"),
        }
        for lay in LAYERS + ("cli",):
            m[f"{lay}.self_s"] = self_by_layer[lay]
        return m
