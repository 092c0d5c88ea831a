"""Outside-in tracing of the fcir layers, and the per-layer metrics built on it.

`Tracer` replaces every public function of the traced fcir modules, at every
fcir module attribute that binds it (both `fcir.scheme.simulate_batch` and
`fcir.experiments.simulate_batch`, say), with a wrapper that records one span
per call.  Leaving the `with` block puts the original functions back, so no
program file changes.  Spans stay in memory until `dump` writes them out.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

LAYERS = ("fbm", "scheme", "model", "malliavin", "experiments", "io", "cli")

CIRCULANT = "fbm.sample_fbm_circulant"
CHOLESKY = "fbm.sample_fbm_cholesky"
SIMULATE_BATCH = "scheme.simulate_batch"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    error: str | None = None
    work: tuple[int, ...] | None = None


def _circulant_work(args, kwargs) -> tuple[int, ...]:
    grid = kwargs["grid"] if "grid" in kwargs else args[0]
    return (grid.steps + 1,)


def _batch_work(args, kwargs) -> tuple[int, ...]:
    shape = getattr(kwargs["increments"] if "increments" in kwargs else args[0], "shape", ())
    return (math.prod(shape[:-1]), shape[-1]) if shape else (1, 0)


# Work recorded per call: grid nodes sampled, and (batch width, steps) solved.
_WORK = {CIRCULANT: _circulant_work, SIMULATE_BATCH: _batch_work}


def public_functions(module) -> dict[str, object]:
    """Functions a module defines and exports (its `__all__`, else no leading `_`)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    return {
        name: obj
        for name in names
        if inspect.isfunction(obj := getattr(module, name))
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Records spans around calls into the fcir layers while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fcir.{layer}")
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "fcir" and not module_name.startswith("fcir."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock, work = self.spans, self._stack, time.perf_counter, _WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if work is not None:
                    span.work = work(args, kwargs)

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    result = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for start, end in sorted(
            (max(spans[k].start, span.start), min(spans[k].end, span.end)) for k in kids
        ):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


def layer_metrics(spans: list[Span], passes: int, io_bytes: float) -> dict[str, tuple[float, str]]:
    """Per-pass per-layer metrics from the spans of `passes` traced passes."""
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        for key in (span.name, span.name.split(".", 1)[0]):
            calls[key] += 1
            seconds[key] += own
            errors[key] += span.error is not None

    nodes = sum(s.work[0] for s in spans if s.name == CIRCULANT and s.work)
    fallbacks = sum(
        1 for s in spans if s.name == CHOLESKY and s.parent is not None
        and spans[s.parent].name == CIRCULANT
    )
    batches = [s.work for s in spans if s.name == SIMULATE_BATCH and s.work]
    path_steps = sum(width * steps for width, steps in batches)
    weighted_width = sum(width * width * steps for width, steps in batches)

    def count(value: float) -> tuple[float, str]:
        return value / passes, "count"

    def secs(key: str) -> tuple[float, str]:
        return seconds[key] / passes, "s"

    batch_s = seconds[SIMULATE_BATCH]
    return {
        "fbm.circulant.calls": count(calls[CIRCULANT]),
        "fbm.circulant.s": secs(CIRCULANT),
        "fbm.circulant.nodes": count(nodes),
        "fbm.circulant.fallbacks": count(fallbacks),
        "fbm.cholesky.calls": count(calls[CHOLESKY]),
        "fbm.cholesky.s": secs(CHOLESKY),
        "fbm.holder.s": secs("fbm.holder_statistic"),
        "scheme.simulate_batch.calls": count(calls[SIMULATE_BATCH]),
        "scheme.simulate_batch.s": secs(SIMULATE_BATCH),
        "scheme.simulate_batch.path_steps": count(path_steps),
        "scheme.simulate_batch.path_steps_per_s": (
            path_steps / batch_s if batch_s > 0 else 0.0, "1/s"
        ),
        "scheme.simulate_batch.mean_width": (
            weighted_width / path_steps if path_steps else 0.0, "paths"
        ),
        "scheme.simulate_path.calls": count(calls["scheme.simulate_path"]),
        "scheme.simulate_path.s": secs("scheme.simulate_path"),
        "model.check_moment_condition.calls": count(calls["model.check_moment_condition"]),
        "model.check_moment_condition.s": secs("model.check_moment_condition"),
        "model.check_moment_condition.errors": count(errors["model.check_moment_condition"]),
        "model.kernel_integral.calls": count(calls["model.weighted_kernel_integral"]),
        "model.kernel_integral.s": secs("model.weighted_kernel_integral"),
        "model.drift_derivative.calls": count(calls["model.drift_derivative"]),
        "model.drift_derivative.s": secs("model.drift_derivative"),
        "malliavin.calls": count(calls["malliavin"]),
        "malliavin.s": secs("malliavin"),
        "experiments.calls": count(calls["experiments"]),
        "experiments.self_s": secs("experiments"),
        "io.calls": count(calls["io"]),
        "io.s": secs("io"),
        "io.bytes": (io_bytes, "B"),
        "cli.self_s": secs("cli"),
    }


def dump(path: Path, spans: list[Span], op_names: list[str]) -> None:
    """Write the spans as JSON lines, after one header line naming the ops."""
    with open(path, "w") as handle:
        handle.write(json.dumps({"ops": op_names}) + "\n")
        for span in spans:
            handle.write(json.dumps(asdict(span)) + "\n")
