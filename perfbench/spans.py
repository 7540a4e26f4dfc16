"""In-memory spans and the wrappers that record them around trigjac's layers.

A traced run patches the public functions of each numeric layer (periods and
its tanh-sinh quadrature, theta, rconst, fsdet, divisor) with thin wrappers that
open a span on entry and close it on return.  Nothing inside ``src/trigjac``
changes: the wrappers replace module attributes and ``PeriodEngine`` methods,
and ``instrument`` puts the originals back when it exits.  Untraced runs
install nothing, so their timings carry no tracing cost.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  The benchmark is single-threaded, so the
children of a span never overlap and its self time is its duration minus the
sum of its children's durations.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
from collections import defaultdict


class Tracer:
    """Spans and counters of one traced run, kept in memory until the end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.overhead_s = 0.0

    def begin(self, name: str) -> int:
        t = self.clock()
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        sid = len(self.spans) - 1
        self.stack.append(sid)
        now = self.clock()
        self.spans[sid][1] = now
        self.overhead_s += now - t
        return sid

    def end(self, sid: int) -> float:
        t = self.clock()
        span = self.spans[sid]
        span[2] = t
        self.stack.pop()
        self.overhead_s += self.clock() - t
        return span[2] - span[1]

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def total_times(self) -> dict[str, float]:
        """Total duration per span name; no wrapped function calls itself."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)


def band_margin_digits(value_abs, scale, vanish_tol, nonvanish_floor) -> float:
    """Digits between |theta|/scale and the edge of the grey band.

    Positive for a decided verdict (how far past its threshold), negative for
    a value inside the band (how deep), infinite for an exact zero.
    """
    if value_abs == 0:
        return math.inf
    rel = float(value_abs / scale)
    lo = math.log10(float(vanish_tol))
    hi = math.log10(float(nonvanish_floor))
    x = math.log10(rel)
    if x <= lo:
        return lo - x
    if x >= hi:
        return x - hi
    return -min(x - lo, hi - x)


def _trigjac_modules():
    return [m for n, m in list(sys.modules.items())
            if (n == "trigjac" or n.startswith("trigjac.")) and m is not None]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap trigjac's layer functions so calls record spans into ``tracer``."""
    from trigjac import divisor, fsdet, periods, rconst, theta
    from trigjac.periods import PeriodEngine

    saved: list[tuple] = []

    def patch_function(owner, attr, make):
        # replace every module-level reference (cli and rconst import by name)
        orig = getattr(owner, attr)
        wrapped = make(orig)
        for mod in _trigjac_modules():
            if getattr(mod, attr, None) is orig:
                saved.append((mod, attr, orig))
                setattr(mod, attr, wrapped)

    def patch_method(attr, make):
        orig = getattr(PeriodEngine, attr)
        saved.append((PeriodEngine, attr, orig))
        setattr(PeriodEngine, attr, make(orig))

    def spanned(name, on_return=None, samples=False):
        def make(fn):
            def wrapper(*args, **kwargs):
                sid = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = tracer.end(sid)
                    if samples:
                        tracer.samples[name].append(dur)
                if on_return is not None:
                    on_return(result)
                return result
            return wrapper
        return make

    # -- quadrature: one span per tanh_sinh_batch, a child per eval_batch --
    def make_quad(fn):
        def wrapper(eval_batch, n_integrands, tol, max_level, *args, **kwargs):
            def timed_batch(nodes):
                sid = tracer.begin("periods.integrand")
                try:
                    return eval_batch(nodes)
                finally:
                    tracer.end(sid)

            sid = tracer.begin("quadrature")
            try:
                res = fn(timed_batch, n_integrands, tol, max_level, *args, **kwargs)
            finally:
                tracer.end(sid)
            sing = kwargs.get("sing_order", args[1] if len(args) > 1 else 0)
            tracer.count("quadrature.calls")
            tracer.count("quadrature.endpoint_calls" if sing else "quadrature.plain_calls")
            tracer.count("quadrature.nodes", res.nodes_used)
            tracer.count("quadrature.integrand_evals", res.nodes_used * n_integrands)
            tracer.samples["quadrature.level"].append(res.level)
            if res.level >= max_level and res.last_delta >= tol:
                tracer.count("quadrature.capped")
            return res
        return wrapper

    # -- periods ------------------------------------------------------------
    def make_compute(fn):
        def wrapper(engine, *args, **kwargs):
            if engine.data is not None:
                return fn(engine, *args, **kwargs)
            quad_before = tracer.counters["quadrature.calls"]
            sid = tracer.begin("periods.compute")
            try:
                data = fn(engine, *args, **kwargs)
            finally:
                dur = tracer.end(sid)
            # a cold compute that ran no quadrature was served from the cache
            if tracer.counters["quadrature.calls"] > quad_before:
                tracer.count("periods.cache_misses")
                tracer.count("periods.compute_s", dur)
            else:
                tracer.count("periods.cache_hits")
                tracer.count("periods.cache_load_s", dur)
            if data.precision > engine.config.precision:
                tracer.count("periods.escalations")
            return data
        return wrapper

    # -- theta: verdicts and their distance from the grey band --------------
    def make_classify(fn):
        def wrapper(value_abs, scale, config):
            verdict = fn(value_abs, scale, config)
            key = {True: "true", False: "false", None: "none"}[verdict]
            tracer.count(f"theta.verdicts_{key}")
            tracer.samples["theta.band_margin"].append(
                band_margin_digits(value_abs, scale, config.vanish_tol, config.nonvanish_floor))
            return verdict
        return wrapper

    # -- rconst ---------------------------------------------------------------
    def make_draws(fn):
        def wrapper(*args, **kwargs):
            if tracer.current() == "rconst.riemann_constant":
                tracer.count("rconst.draws")
            return fn(*args, **kwargs)
        return wrapper

    draws_seen = [0.0]

    def on_rconst(result):
        # the memoized second call draws nothing and must not count twice
        if tracer.counters["rconst.draws"] > draws_seen[0]:
            tracer.count("rconst.decisive_rounds", result.decisive_rounds)
            draws_seen[0] = tracer.counters["rconst.draws"]

    # -- fsdet and the exact layer ------------------------------------------
    def on_mu(report):
        tracer.count("fsdet.complementary_zeros", report["complementary_count"])

    try:
        patch_function(periods, "tanh_sinh_batch", make_quad)
        patch_method("compute", make_compute)
        patch_method("abel_point", spanned("periods.abel_point", samples=True))
        patch_method("lattice_reduce", spanned("periods.lattice_reduce"))
        patch_function(theta, "theta_value", spanned("theta", samples=True))
        patch_function(theta, "classify_vanishing", make_classify)
        patch_function(rconst, "random_effective_points", make_draws)
        patch_function(rconst, "riemann_constant", spanned("rconst.riemann_constant", on_rconst))
        patch_function(rconst, "shifted_constant", spanned("rconst.shifted_constant"))
        patch_function(rconst, "verify_shifted", spanned("rconst.verify_shifted"))
        patch_function(fsdet, "mu_divisor_check", spanned("fsdet.mu_divisor_check", on_mu))
        patch_function(divisor, "verify_semicanonical", spanned("divisor.verify_semicanonical"))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


# name -> (unit, better) of every per-layer metric a traced run prints
PER_LAYER = {
    "quadrature.calls": ("count", "lower"),
    "quadrature.plain_calls": ("count", "lower"),
    "quadrature.endpoint_calls": ("count", "lower"),
    "quadrature.nodes": ("count", "lower"),
    "quadrature.integrand_evals": ("count", "lower"),
    "quadrature.level_max": ("level", "lower"),
    "quadrature.level_mean": ("level", "lower"),
    "quadrature.capped": ("count", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "periods.abel_point.calls": ("count", "lower"),
    "periods.abel_point.s": ("s", "lower"),
    "periods.abel_point.p50_s": ("s", "lower"),
    "periods.integrand_s": ("s", "lower"),
    "periods.compute_s": ("s", "lower"),
    "periods.cache_load_s": ("s", "lower"),
    "periods.cache_hits": ("count", "higher"),
    "periods.cache_misses": ("count", "lower"),
    "periods.escalations": ("count", "lower"),
    "periods.lattice_reduce.s": ("s", "lower"),
    "theta.calls": ("count", "lower"),
    "theta.s": ("s", "lower"),
    "theta.p50_ms": ("ms", "lower"),
    "theta.verdicts_true": ("count", "higher"),
    "theta.verdicts_false": ("count", "higher"),
    "theta.verdicts_none": ("count", "lower"),
    "theta.min_band_margin_digits": ("digits", "higher"),
    "rconst.draws": ("count", "lower"),
    "rconst.decisive_rounds": ("count", "higher"),
    "rconst.ambiguous_draws": ("count", "lower"),
    "rconst.self_s": ("s", "lower"),
    "rconst.verify_shifted_s": ("s", "lower"),
    "fsdet.mu_divisor_check.s": ("s", "lower"),
    "fsdet.self_s": ("s", "lower"),
    "fsdet.complementary_zeros": ("count", "lower"),
    "divisor.verify_semicanonical_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.glue_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# span name prefix -> layer, for the shares of a traced round
LAYERS = (
    ("quadrature", "quadrature"),
    ("periods.", "periods"),
    ("theta", "theta"),
    ("rconst.", "rconst"),
    ("fsdet.", "fsdet"),
    ("divisor.", "divisor"),
    ("op", "benchmark"),
)


def _sums(tracer: Tracer, wall: float) -> dict[str, float]:
    """The additive metrics of one tracer, as totals."""
    c = tracer.counters
    selfs = tracer.self_times()
    totals = tracer.total_times()
    return {
        "quadrature.calls": c["quadrature.calls"],
        "quadrature.plain_calls": c["quadrature.plain_calls"],
        "quadrature.endpoint_calls": c["quadrature.endpoint_calls"],
        "quadrature.nodes": c["quadrature.nodes"],
        "quadrature.integrand_evals": c["quadrature.integrand_evals"],
        "quadrature.capped": c["quadrature.capped"],
        "quadrature.self_s": selfs.get("quadrature", 0.0),
        "periods.abel_point.calls": len(tracer.samples["periods.abel_point"]),
        "periods.abel_point.s": totals.get("periods.abel_point", 0.0),
        "periods.integrand_s": totals.get("periods.integrand", 0.0),
        "periods.compute_s": c["periods.compute_s"],
        "periods.cache_load_s": c["periods.cache_load_s"],
        "periods.cache_hits": c["periods.cache_hits"],
        "periods.cache_misses": c["periods.cache_misses"],
        "periods.escalations": c["periods.escalations"],
        "periods.lattice_reduce.s": totals.get("periods.lattice_reduce", 0.0),
        "theta.calls": len(tracer.samples["theta"]),
        "theta.s": totals.get("theta", 0.0),
        "theta.verdicts_true": c["theta.verdicts_true"],
        "theta.verdicts_false": c["theta.verdicts_false"],
        "theta.verdicts_none": c["theta.verdicts_none"],
        "rconst.draws": c["rconst.draws"],
        "rconst.decisive_rounds": c["rconst.decisive_rounds"],
        "rconst.ambiguous_draws": c["rconst.draws"] - c["rconst.decisive_rounds"],
        "rconst.self_s": sum(v for k, v in selfs.items() if k.startswith("rconst.")),
        "rconst.verify_shifted_s": totals.get("rconst.verify_shifted", 0.0),
        "fsdet.mu_divisor_check.s": totals.get("fsdet.mu_divisor_check", 0.0),
        "fsdet.self_s": selfs.get("fsdet.mu_divisor_check", 0.0),
        "fsdet.complementary_zeros": c["fsdet.complementary_zeros"],
        "divisor.verify_semicanonical_s": totals.get("divisor.verify_semicanonical", 0.0),
        "trace.glue_s": layer_seconds(tracer, wall)["benchmark"],
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": tracer.overhead_s,
    }


def layer_seconds(tracer: Tracer, wall: float) -> dict[str, float]:
    """Self time per layer; time outside every span counts as benchmark glue."""
    out = {layer: 0.0 for _, layer in LAYERS}
    for name, secs in tracer.self_times().items():
        layer = next(lay for prefix, lay in LAYERS if name.startswith(prefix))
        out[layer] += secs
    out["benchmark"] += wall - sum(e - s for _, s, e, p in tracer.spans if p < 0)
    return out


def layer_metrics(parts) -> dict[str, float]:
    """Per-layer metrics from (tracer, wall seconds, repetitions) parts.

    Sums are per repetition of each part and added across parts, so with the
    set-up part and the rounds part they read "per set-up plus one round".
    """
    out: dict[str, float] = defaultdict(float)
    samples: dict[str, list] = defaultdict(list)
    for tracer, wall, reps in parts:
        for k, v in _sums(tracer, wall).items():
            out[k] += v / reps
        for k, v in tracer.samples.items():
            samples[k].extend(v)
    levels = samples["quadrature.level"]
    finite = [m for m in samples["theta.band_margin"] if math.isfinite(m)]
    out.update({
        "quadrature.level_max": max(levels) if levels else 0,
        "quadrature.level_mean": sum(levels) / len(levels) if levels else 0.0,
        "periods.abel_point.p50_s": _median(samples["periods.abel_point"]),
        "theta.p50_ms": 1000 * _median(samples["theta"]),
        # no decision taken reads as 0: the band was never approached
        "theta.min_band_margin_digits": min(finite) if finite else 0.0,
    })
    return dict(out)
