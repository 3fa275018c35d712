"""In-memory span tracer that wraps phantomdf's public functions from outside.

Nothing under ``src/`` knows about tracing: ``install`` replaces each public
function of the traced modules, wherever a module namespace binds it (a
``from .x import y`` copies the binding, so every copy is replaced), plus a
few class methods. Each call records one span: name, start, end, parent, and
the work counts that run.py's per-layer metrics need. Spans stay in memory
until ``Tracer.spans`` is read at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "config", "processes", "estimate", "phantom", "reporting",
          "distributions", "seeding", "acceptance")

# Public helpers called once per table cell or per chain time step: a span
# per call would cost more than the work it measures, so their time stays
# in the caller's self time.
UNTRACED = {"reporting.fmt_float", "processes.metropolis_accept"}

# (module, class, method, span name)
METHODS = (
    ("distributions", "DistFn", "draw", "distributions.draw"),
    ("phantom", "PhantomDistFn", "pow", "phantom.pow"),
    ("phantom", "PhantomDistFn", "to_text", "phantom.to_text"),
    ("phantom", "PhantomDistFn", "from_text", "phantom.from_text"),
)


def _markov_burn(spec) -> int | None:
    """Burn-in of a Markov spec, or None for kinds sampled without a chain."""
    from phantomdf.processes import LindleySpec, MetropolisSpec, default_burn_in

    if isinstance(spec, (LindleySpec, MetropolisSpec)):
        return default_burn_in(spec)
    return None


def _block_maxima_steps(a, result) -> dict:
    burn = _markov_burn(a["spec"])
    if burn is None:
        return {"chain_steps": 0}
    return {"chain_steps": int(a["R"]) * (burn + max(int(n) for n in a["block_sizes"]))}


def _check_bt_steps(a, result) -> dict:
    burn = _markov_burn(a["spec"])
    if result.method != "monte-carlo" or burn is None:
        return {"chain_steps": 0}
    # one (burn + L_n)-step path per replica and block size, with
    # L_n = max(p + q) over the (p, q) pairs the report lists
    lengths = sum(burn + max(pr.p + pr.q for pr in row.pairs) for row in result.rows)
    return {"chain_steps": int(a["R"]) * lengths}


def _generate_steps(a, result) -> dict:
    return {"steps": (_markov_burn(a["spec"]) or 0) + int(a["length"])}


COUNTERS = {
    "estimate.block_maxima_table": _block_maxima_steps,
    "estimate.check_BT": _check_bt_steps,
    "estimate.decompose_regenerative": lambda a, r: {"cycles": int(r.cycle_count)},
    "processes.generate": _generate_steps,
    "phantom.verify_phantom": lambda a, r: {
        "levels": sum(int(row.levels.size) for row in a["maxlaw"].rows)},
    "distributions.draw": lambda a, r: {"values": int(a["size"])},
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1, counts or None)
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        is_reporting = name.startswith("reporting.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, time.perf_counter_ns(), parent, None)
                raise
            finally:
                stack.pop()
            end = time.perf_counter_ns()
            counts = None
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments, result)
            elif is_reporting and isinstance(result, str):
                counts = {"bytes": len(result.encode("utf-8"))}
            spans[index] = (name, start, end, parent, counts)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every public function of LAYERS where it is bound, and METHODS."""
    modules = {name: importlib.import_module(f"phantomdf.{name}") for name in LAYERS}
    wrapped = {}
    for short, mod in modules.items():
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                    and f"{short}.{attr}" not in UNTRACED):
                wrapped[value] = tracer.wrap(f"{short}.{attr}", value)
    for mod in list(modules.values()) + [importlib.import_module("phantomdf")]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
    for short, cls_name, method, span in METHODS:
        cls = getattr(modules[short], cls_name)
        raw = inspect.getattr_static(cls, method)
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(tracer.wrap(span, raw.__func__)))
        else:
            setattr(cls, method, tracer.wrap(span, raw))
