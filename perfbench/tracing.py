"""Spans for the traced benchmark run, recorded from the benchmark's side.

Nothing under ``src/`` is instrumented.  Instead, :func:`install` replaces
voikit's public functions with timing wrappers at every module attribute
that holds them (``voikit.regression.gam_fit_detail``,
``voikit.cli.so_choose_bins``, ...), which are the names callers look up at
call time.  Nested Monte Carlo gets a timing proxy for its
``GenerativeModel``, so the inner-loop model calls are spans of their own.

Spans live in memory: ``[name, start, end, parent]`` with ``parent`` the
index of the enclosing span.  A span's self time is its duration minus the
union of its children's intervals, so child spans that overlap in worker
threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

# (name, unit) of every per-layer metric, in report order.  Counts and
# seconds are per pass over the workload's job list, except the models.*
# rows, which are per set-up.
PER_LAYER = (
    ("single_param.order_by_param.calls", "count"),
    ("single_param.order_by_param_s", "s"),
    ("single_param.so_bias.calls", "count"),
    ("single_param.so_bias_s", "s"),
    ("single_param.so_choose_bins_s", "s"),
    ("single_param.so_evppi_s", "s"),
    ("single_param.sad_d1_s", "s"),
    ("single_param.sad_d2_s", "s"),
    ("single_param.sad_d3_s", "s"),
    ("single_param.cumsum_curve_s", "s"),
    ("single_param.so_fallback", "count"),
    ("psa.take.calls", "count"),
    ("psa.take_s", "s"),
    ("psa.at_wtp.calls", "count"),
    ("psa.at_wtp_s", "s"),
    ("gam.fit.calls", "count"),
    ("gam.fit_s", "s"),
    ("gam.fits_per_estimate", "1"),
    ("gp.search_fit.calls", "count"),
    ("gp.search_fit_s", "s"),
    ("gp.fixed_fit.calls", "count"),
    ("gp.fixed_fit_s", "s"),
    ("gp.fallback", "count"),
    ("regression.fit_regression.calls", "count"),
    ("regression.fit_regression_s", "s"),
    ("regression.bootstrap.replicates", "count"),
    ("regression.bootstrap.failures", "count"),
    ("regression.bootstrap_replicate_s", "s"),
    ("regression.bootstrap_self_s", "s"),
    ("nested_mc.outer_draws", "count"),
    ("nested_mc.sample_conditional_s", "s"),
    ("nested_mc.net_benefit_s", "s"),
    ("nested_mc.self_s", "s"),
    ("io.read.calls", "count"),
    ("io.read_s", "s"),
    ("io.read_mb_per_s", "MB/s"),
    ("io.write.calls", "count"),
    ("io.write_s", "s"),
    ("io.write_mb_per_s", "MB/s"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.simulate_s", "s"),
    ("cli.vistool_s", "s"),
    ("cli.evppi_s", "s"),
    ("cli.sweep_s", "s"),
    ("cli.compare_s", "s"),
    ("models.generate_psa_s", "s"),
    ("models.brute_force_evppi_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span and counter store for one traced pass or set-up."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        # Span that root spans of worker threads attach to (the bootstrap
        # span while its thread pool runs).
        self._adopt: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self._adopt
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(idx)
        try:
            yield idx
        finally:
            stack.pop()
            self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def adopting(self, idx: int):
        previous, self._adopt = self._adopt, idx
        try:
            yield
        finally:
            self._adopt = previous

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def merge(self, dump: dict) -> None:
        """Add the spans and counters a child process wrote with :meth:`dump`."""
        base = len(self.spans)
        for name, start, end, parent in dump["spans"]:
            self.spans.append([name, start, end, None if parent is None else parent + base])
        self.counts.update(dump["counts"])
        for name, values in dump["samples"].items():
            self.samples.setdefault(name, []).extend(values)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "samples": self.samples}

    # --- aggregation -------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def busy(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_time(self, name: str) -> float:
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s[3] is not None:
                children.setdefault(s[3], []).append((s[1], s[2]))
        total = 0.0
        for idx, (span_name, start, end, _) in enumerate(self.spans):
            if span_name == name:
                total += (end - start) - _covered(children.get(idx, []), start, end)
        return total


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but models.* and trace.*)."""
    t = tracer
    c = t.counts
    out = {
        "single_param.order_by_param.calls": t.calls("single_param.order_by_param"),
        "single_param.order_by_param_s": t.busy("single_param.order_by_param"),
        "single_param.so_bias.calls": t.calls("single_param.so_bias"),
        "single_param.so_bias_s": t.busy("single_param.so_bias"),
        "single_param.so_choose_bins_s": t.busy("single_param.so_choose_bins"),
        "single_param.so_evppi_s": t.busy("single_param.so_evppi"),
        "single_param.sad_d1_s": t.busy("single_param.sad_d1"),
        "single_param.sad_d2_s": t.busy("single_param.sad_d2"),
        "single_param.sad_d3_s": t.busy("single_param.sad_d3"),
        "single_param.cumsum_curve_s": t.busy("single_param.cumsum_curve"),
        "single_param.so_fallback": c["single_param.so_fallback"],
        "psa.take.calls": t.calls("psa.take"),
        "psa.take_s": t.busy("psa.take"),
        "psa.at_wtp.calls": t.calls("psa.at_wtp"),
        "psa.at_wtp_s": t.busy("psa.at_wtp"),
        "gam.fit.calls": t.calls("gam.fit"),
        "gam.fit_s": t.busy("gam.fit"),
        "gam.fits_per_estimate": _ratio(t.calls("gam.fit"), c["gam.estimates"]),
        "gp.search_fit.calls": t.calls("gp.search_fit"),
        "gp.search_fit_s": t.busy("gp.search_fit"),
        "gp.fixed_fit.calls": t.calls("gp.fixed_fit"),
        "gp.fixed_fit_s": t.busy("gp.fixed_fit"),
        "gp.fallback": c["gp.fallback"],
        "regression.fit_regression.calls": t.calls("regression.fit_regression"),
        "regression.fit_regression_s": t.busy("regression.fit_regression"),
        "regression.bootstrap.replicates": c["regression.bootstrap.replicates"],
        "regression.bootstrap.failures": c["regression.bootstrap.failures"],
        "regression.bootstrap_replicate_s": t.busy("regression.bootstrap_replicate"),
        "regression.bootstrap_self_s": t.self_time("regression.bootstrap"),
        "nested_mc.outer_draws": t.calls("nested_mc.sample_conditional"),
        "nested_mc.sample_conditional_s": t.busy("nested_mc.sample_conditional"),
        "nested_mc.net_benefit_s": t.busy("nested_mc.net_benefit"),
        "nested_mc.self_s": t.self_time("nested_mc.evppi"),
        "io.read.calls": t.calls("io.read"),
        "io.read_s": t.busy("io.read"),
        "io.read_mb_per_s": _ratio(c["io.read.bytes"] / 1e6, t.busy("io.read")),
        "io.write.calls": t.calls("io.write"),
        "io.write_s": t.busy("io.write"),
        "io.write_mb_per_s": _ratio(c["io.write.bytes"] / 1e6, t.busy("io.write")),
        "cli.interpreter_s": _median(t.samples.get("cli.interpreter_s")),
        "cli.import_s": _median(t.samples.get("cli.import_s")),
    }
    for command in ("simulate", "vistool", "evppi", "sweep", "compare"):
        out[f"cli.{command}_s"] = c[f"cli.{command}_s"]
    return out


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    return {
        "models.generate_psa_s": tracer.busy("models.generate_psa"),
        "models.brute_force_evppi_s": tracer.busy("models.brute_force_evppi"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


# --- wrappers -----------------------------------------------------------


class TimedModel:
    """``GenerativeModel`` proxy that records a span around each model call."""

    def __init__(self, model, tracer: Tracer):
        self._model = model
        self._tracer = tracer
        self.param_names = model.param_names
        self.n_treatments = model.n_treatments

    def sample_joint(self, n, rng):
        with self._tracer.span("nested_mc.sample_joint"):
            return self._model.sample_joint(n, rng)

    def sample_conditional(self, indices, values, n, rng):
        with self._tracer.span("nested_mc.sample_conditional"):
            return self._model.sample_conditional(indices, values, n, rng)

    def net_benefit(self, theta, k):
        with self._tracer.span("nested_mc.net_benefit"):
            return self._model.net_benefit(theta, k)


def _spanned(tracer: Tracer, name: str, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return orig(*args, **kwargs)

    return wrapper


def _arguments(orig, args, kwargs) -> dict:
    bound = inspect.signature(orig).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _sad(tracer, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        n_changes = _arguments(orig, args, kwargs)["n_changes"]
        with tracer.span(f"single_param.sad_d{n_changes}"):
            return orig(*args, **kwargs)

    return wrapper


def _choose_bins(tracer, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        threshold = _arguments(orig, args, kwargs)["threshold"]
        with tracer.span("single_param.so_choose_bins"):
            n_bins, bias = orig(*args, **kwargs)
        # the fallback is the only way to return one bin at or above the cap
        if n_bins == 1 and bias >= threshold:
            tracer.count("single_param.so_fallback")
        return n_bins, bias

    return wrapper


def _gp_fit(tracer, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        fixed = _arguments(orig, args, kwargs)["hyperparameters"] is not None
        with tracer.span("gp.fixed_fit" if fixed else "gp.search_fit"):
            fitted, info = orig(*args, **kwargs)
        if info.get("fallback_median_heuristic"):
            tracer.count("gp.fallback")
        return fitted, info

    return wrapper


def _gam_evppi(tracer, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        tracer.count("gam.estimates")
        return orig(*args, **kwargs)

    return wrapper


def _bootstrap(tracer, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        arguments = _arguments(orig, args, kwargs)
        estimator = arguments["estimator"]

        def replicate(sample):
            with tracer.span("regression.bootstrap_replicate"):
                return estimator(sample)

        arguments["estimator"] = replicate
        with tracer.span("regression.bootstrap") as idx, tracer.adopting(idx):
            values, failures = orig(**arguments)
        tracer.count("regression.bootstrap.replicates", arguments["config"].n_replicates)
        tracer.count("regression.bootstrap.failures", failures)
        return values, failures

    return wrapper


def _nested_mc(tracer, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        arguments = _arguments(orig, args, kwargs)
        arguments["model"] = TimedModel(arguments["model"], tracer)
        with tracer.span("nested_mc.evppi"):
            return orig(**arguments)

    return wrapper


def _io(kind):
    def factory(tracer, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            path = _arguments(orig, args, kwargs)["path"]
            with tracer.span(f"io.{kind}"):
                out = orig(*args, **kwargs)
            tracer.count(f"io.{kind}.bytes", os.path.getsize(path))
            return out

        return wrapper

    return factory


def _plain(name):
    return lambda tracer, orig: _spanned(tracer, name, orig)


# (defining module, attribute, wrapper factory).  "Class.method" patches
# the class attribute, which every instance looks up.
_TARGETS = (
    ("voikit.single_param", "order_by_param", _plain("single_param.order_by_param")),
    ("voikit.single_param", "so_bias", _plain("single_param.so_bias")),
    ("voikit.single_param", "so_choose_bins", _choose_bins),
    ("voikit.single_param", "so_evppi", _plain("single_param.so_evppi")),
    ("voikit.single_param", "sad_evppi", _sad),
    ("voikit.single_param", "cumsum_curve", _plain("single_param.cumsum_curve")),
    ("voikit.psa", "PsaSample.take", _plain("psa.take")),
    ("voikit.psa", "PsaSample.at_wtp", _plain("psa.at_wtp")),
    ("voikit.gam", "gam_fit_detail", _plain("gam.fit")),
    ("voikit.gp", "gp_fit_detail", _gp_fit),
    ("voikit.regression", "fit_regression", _plain("regression.fit_regression")),
    ("voikit.regression", "bootstrap_estimates", _bootstrap),
    ("voikit.regression", "gam_evppi", _gam_evppi),
    ("voikit.nested_mc", "nested_mc_evppi", _nested_mc),
    ("voikit.io", "read_psa_csv", _io("read")),
    ("voikit.io", "write_psa_csv", _io("write")),
    ("voikit.models", "generate_psa", _plain("models.generate_psa")),
    ("voikit.models", "brute_force_evppi", _plain("models.brute_force_evppi")),
)


def install(tracer: Tracer):
    """Wrap every target at each loaded voikit module attribute bound to it.

    Returns a function that puts the original objects back.
    """
    patches = []
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "voikit" or name.startswith("voikit."))
    ]
    for module_name, attr, factory in _TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[method]
            patches.append((cls, method, orig))
            setattr(cls, method, factory(tracer, orig))
            continue
        orig = getattr(owner, attr)
        wrapper = factory(tracer, orig)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is orig:
                    patches.append((module, name, value))
                    setattr(module, name, wrapper)

    def uninstall():
        for obj, name, value in reversed(patches):
            setattr(obj, name, value)

    return uninstall
