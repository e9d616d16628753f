"""In-memory span tracer for the benchmark's traced pass.

The tracer wraps library functions at every module binding that holds
them (``convolve`` is bound in ``grids``, ``construct`` and ``analyze``,
for instance), so each call records one span: name, start, end, parent
span and operation id.  Calls into the FFT transforms are counted, not
spanned.  Spans stay in memory while a pass runs; ``layer_metrics``
reduces one pass to the per-layer metrics and ``dump`` writes the raw
spans when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

# Library functions recorded as spans, by defining module.
TRACED = {
    "grids": ("sample", "convolve", "dft", "idft", "to_csv", "to_json"),
    "coeffs": ("build_coeffs", "dump_csv"),
    "families": ("heavy_tail_sampler",),
    "construct": ("build_series", "build_spectral", "crosscheck"),
    "analyze": ("verify", "recovered_residual", "moment_scan"),
    "clt": ("rescaled_density", "ball_mass", "phi_functional", "run_experiment"),
    "cli": ("main",),
}

FFT_TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)

# Untraced time per operation group, as the benchmark's operations name them.
OP_GROUPS = (
    "solve_1d_s", "solve_2d_s", "cmd_coeffs_s", "cmd_verify_s", "cmd_light_s",
    "clt_infinite_s", "clt_finite_s",
)

# The CLI subcommands; each gets its own cli.<command>.* metrics.
CLI_COMMANDS = ("coeffs", "family", "construct", "verify", "moments", "clt")

_MB = 1e6
_F64 = 8


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Span attributes needed by the metrics, taken from arguments or result.
# Byte figures are computed from array sizes (8 bytes per float64 value).
def _attrs_build_series(fn, args, kwargs, result):
    return {"terms": result.n_terms}


def _attrs_rescaled_density(fn, args, kwargs, result):
    return {"n": int(_bound(fn, args, kwargs)["n"])}


def _attrs_run_experiment(fn, args, kwargs, result):
    arg = _bound(fn, args, kwargs)
    return {"mc_draws": int(arg["mc_samples"]) * sum(int(n) for n in arg["n_list"])}


def _attrs_dump_csv(fn, args, kwargs, result):
    table = _bound(fn, args, kwargs)["table"]
    return {"bytes": 3 * table.n_max * _F64}


def _attrs_to_csv(fn, args, kwargs, result):
    g = _bound(fn, args, kwargs)["g"]
    return {"bytes": (g.spec.dim + 1) * g.values.size * _F64}


def _attrs_cli_main(fn, args, kwargs, result):
    argv = _bound(fn, args, kwargs)["argv"]
    return {"command": argv[0] if argv else None}


_ATTRS = {
    "construct.build_series": _attrs_build_series,
    "clt.rescaled_density": _attrs_rescaled_density,
    "clt.run_experiment": _attrs_run_experiment,
    "coeffs.dump_csv": _attrs_dump_csv,
    "grids.to_csv": _attrs_to_csv,
    "cli.main": _attrs_cli_main,
}


class Tracer:
    """Spans and FFT counters of one traced pass.

    Wrappers record only while ``op`` is set, so output checks that call
    the library between operations leave no spans.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.fft = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._open = Counter()

    @contextlib.contextmanager
    def operation(self, op_id: int, name: str):
        """Root span of one benchmark operation."""
        self.op = op_id
        index = self._enter(f"op.{name}")
        try:
            yield
        finally:
            self._exit(index)
            self.op = None

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        self._open[name] += 1
        return index

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        self._open[span.name] -= 1

    def span_wrapper(self, name: str, fn):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if attrs is not None:
                self.spans[index].attrs.update(attrs(fn, args, kwargs, result))
            return result

        return wrapper

    def fft_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.op is not None:
                points = int(result.size)
                self.fft["transforms"] += 1
                self.fft["points"] += points
                data = args[0] if args else kwargs["a"]
                self.fft["bytes"] += np.asarray(data).nbytes + result.nbytes
                if self._open["construct.build_series"]:
                    self.fft["series_points"] += points
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into every module that binds a traced function."""
        targets = {}
        for short, names in TRACED.items():
            module = sys.modules[f"autoconv.{short}"]
            for name in names:
                fn = getattr(module, name)
                targets[id(fn)] = (fn, self.span_wrapper(f"{short}.{name}", fn))
        fft_modules = [np.fft] + [sys.modules[m] for m in ("scipy.fft",) if m in sys.modules]
        for module in fft_modules:
            for name in FFT_TRANSFORMS:
                fn = getattr(module, name, None)
                if fn is not None:
                    targets[id(fn)] = (fn, self.fft_wrapper(fn))
        modules = [m for n, m in list(sys.modules.items()) if n == "autoconv" or n.startswith("autoconv.")]
        patched = []
        for module in modules + fft_modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [
        ("grids.convolve.calls", "count"),
        ("grids.convolve.self_s", "s"),
        ("grids.convolve.p50_ms", "ms"),
        ("grids.convolve.p99_ms", "ms"),
        ("fft.transforms", "count"),
        ("fft.points", "count"),
        ("fft.mb_computed", "MB"),
        ("fft.points_per_series_term", "points/term"),
        ("construct.build_series.terms", "count"),
        ("construct.build_series.self_s", "s"),
        ("construct.series_ms_per_term", "ms"),
        ("construct.build_spectral.self_s", "s"),
        ("construct.crosscheck.self_s", "s"),
        ("construct.bound_miss_1d", "mass"),
        ("construct.bound_miss_2d", "mass"),
        ("analyze.verify.self_s", "s"),
        ("analyze.recovered_residual.calls", "count"),
        ("analyze.recovered_residual.per_verify", "calls/verify"),
        ("analyze.moment_scan.self_s", "s"),
        ("coeffs.build_coeffs.self_s", "s"),
        ("coeffs.dump_csv.self_s", "s"),
        ("coeffs.dump_csv.mb", "MB"),
        ("grids.to_csv.self_s", "s"),
        ("grids.to_csv.mb", "MB"),
        ("grids.to_json.self_s", "s"),
        ("grids.dft.self_s", "s"),
        ("grids.idft.self_s", "s"),
        ("grids.sample.self_s", "s"),
        ("cli.main.self_s", "s"),
    ]
    for command in CLI_COMMANDS:
        names += [
            (f"cli.{command}.s", "s"),
            (f"cli.{command}.self_s", "s"),
            (f"cli.{command}.artifact_mb", "MB"),
        ]
    names += [
        ("clt.rescaled_density.calls", "count"),
        ("clt.rescaled_density.self_s", "s"),
        ("clt.rescaled_density.per_distinct_n", "calls/n"),
        ("clt.ball_mass.self_s", "s"),
        ("clt.phi_functional.self_s", "s"),
        ("clt.monte_carlo_s", "s"),
        ("clt.mc_draws", "count"),
        ("clt.mc_mdraws_per_s", "Mdraws/s"),
        ("families.heavy_tail_sampler.calls", "count"),
        ("families.heavy_tail_sampler.self_s", "s"),
        ("proc.import_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    names += [(f"op.{group}", "s") for group in OP_GROUPS]
    return names


def dump(tracers: list[Tracer], path) -> None:
    """Write the spans of every traced pass, one list per pass."""
    passes = [
        [[s.name, s.start, s.end, s.parent, s.op, s.attrs] for s in tracer.spans]
        for tracer in tracers
    ]
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "attrs"], "passes": passes}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    Self time is a span's duration minus the durations of its direct
    children.  Figures for a layer the workload never calls are 0.
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    calls = Counter()
    total = defaultdict(float)
    self_s = defaultdict(float)
    attr = defaultdict(float)
    durations = defaultdict(list)
    cli_total = defaultdict(float)
    cli_self = defaultdict(float)
    density_n = defaultdict(set)
    density_calls = Counter()
    for index, span in enumerate(spans):
        duration = span.end - span.start
        own = duration - child_time[index]
        calls[span.name] += 1
        total[span.name] += duration
        self_s[span.name] += own
        durations[span.name].append(duration)
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                attr[f"{span.name}.{key}"] += value
        if span.name == "cli.main":
            cli_total[span.attrs.get("command")] += duration
            cli_self[span.attrs.get("command")] += own
        if span.name == "clt.rescaled_density":
            density_n[span.op].add(span.attrs["n"])
            density_calls[span.op] += 1

    def pct(name, q):
        d = durations.get(name)
        return float(np.percentile(d, q)) * 1e3 if d else 0.0

    terms = attr["construct.build_series.terms"]
    mc_time = self_s["clt.run_experiment"] + self_s["families.heavy_tail_sampler"]
    out = {
        "grids.convolve.calls": calls["grids.convolve"],
        "grids.convolve.p50_ms": pct("grids.convolve", 50),
        "grids.convolve.p99_ms": pct("grids.convolve", 99),
        "fft.transforms": tracer.fft["transforms"],
        "fft.points": tracer.fft["points"],
        "fft.mb_computed": tracer.fft["bytes"] / _MB,
        "fft.points_per_series_term": _ratio(tracer.fft["series_points"], terms),
        "construct.build_series.terms": int(terms),
        "construct.series_ms_per_term": _ratio(total["construct.build_series"] * 1e3, terms),
        "analyze.recovered_residual.calls": calls["analyze.recovered_residual"],
        "analyze.recovered_residual.per_verify": _ratio(
            calls["analyze.recovered_residual"], calls["analyze.verify"]
        ),
        "coeffs.dump_csv.mb": attr["coeffs.dump_csv.bytes"] / _MB,
        "grids.to_csv.mb": attr["grids.to_csv.bytes"] / _MB,
        "cli.main.self_s": self_s["cli.main"],
        "clt.rescaled_density.calls": calls["clt.rescaled_density"],
        "clt.rescaled_density.per_distinct_n": max(
            (_ratio(density_calls[op], len(ns)) for op, ns in density_n.items()), default=0.0
        ),
        "clt.monte_carlo_s": self_s["clt.run_experiment"],
        "clt.mc_draws": int(attr["clt.run_experiment.mc_draws"]),
        "clt.mc_mdraws_per_s": _ratio(attr["clt.run_experiment.mc_draws"] / _MB, mc_time),
        "families.heavy_tail_sampler.calls": calls["families.heavy_tail_sampler"],
    }
    for name in (
        "grids.convolve", "construct.build_series", "construct.build_spectral",
        "construct.crosscheck", "analyze.verify", "analyze.moment_scan",
        "coeffs.build_coeffs", "coeffs.dump_csv", "grids.to_csv", "grids.to_json",
        "grids.dft", "grids.idft", "grids.sample", "clt.rescaled_density",
        "clt.ball_mass", "clt.phi_functional", "families.heavy_tail_sampler",
    ):
        out[f"{name}.self_s"] = self_s[name]
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = cli_total[command]
        out[f"cli.{command}.self_s"] = cli_self[command]
    return out
