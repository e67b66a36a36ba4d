"""Per-layer spans around fwcsim's public functions, installed from outside.

Every public module-level function of each layer module is wrapped, plus a
few named methods. A wrapper replaces every reference the fwcsim modules
hold to the original function, including references inside module-level
tables such as the CLI's subcommand map, so calls made through
``from .geometry import ...`` bindings are seen too. A target that no
longer exists is simply not wrapped, and the caller reports it as absent.

Each span's self time is its duration minus the time of the spans it
encloses; a stack links a span to its parent. Spans are aggregated in
memory and handed back by :meth:`Tracer.summary` when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

PACKAGE = "fwcsim"
LAYERS = ("geometry", "wireless", "optics", "power", "beamform", "tables", "config", "sweeps")

# Metric name -> attribute path inside the package, wrapped when it exists.
METHOD_TARGETS = {
    "geometry.distance_matrix": "geometry.NetworkLayout.distance_matrix",
    "tables.write_csv": "tables.ResultTable.write_csv",
    "tables.write_meta": "tables.ResultTable.write_meta",
}

# Per-cell helpers called about a million times per planning run. Wrapping
# them would multiply the traced time; their cost stays in the caller's
# self time (format_cell's in tables.write_csv).
EXCLUDED = frozenset({"tables.format_cell"})

# A drop's time is the sum of these spans when no other stage span encloses
# them; each generate_layout call opens a new drop.
DROP_OPENER = "geometry.generate_layout"
DROP_STAGES = frozenset({
    "geometry.generate_layout",
    "geometry.distance_matrix",
    "geometry.udn_association",
    "wireless.draw_channels",
    "wireless.udn_sinr_components",
    "wireless.cellfree_sinr_components",
})


def _gram_flops(counters, args, kwargs, result):
    """Cell-free Gram product g^T (eta g*): J x M times M x J, complex."""
    realization = args[0] if args else kwargs["realization"]
    m, j = getattr(realization, "gains", realization).shape
    counters["wireless.cellfree_gram.flops"] = (
        counters.get("wireless.cellfree_gram.flops", 0) + 8 * m * j * j
    )


def _pattern_evals(counters, args, kwargs, result):
    """Element-angle evaluations N * T of one array_factor_pattern call."""
    geom = args[0] if args else kwargs["geom"]
    key = "beamform.array_factor_pattern.evals"
    counters[key] = counters.get(key, 0) + geom.num_elements * len(result)


def _csv_written(counters, args, kwargs, result):
    table = args[0]
    path = args[1] if len(args) > 1 else kwargs["path"]
    counters["tables.write_csv.rows"] = counters.get("tables.write_csv.rows", 0) + len(table.rows)
    counters["tables.write_csv.bytes"] = (
        counters.get("tables.write_csv.bytes", 0) + os.path.getsize(path)
    )


PROBES = {
    "wireless.cellfree_sinr_components": _gram_flops,
    "beamform.array_factor_pattern": _pattern_evals,
    "tables.write_csv": _csv_written,
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, time spent in child spans]
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counters: dict[str, int] = {}
        self.probe_errors: dict[str, str] = {}
        self.drops_s: list[float] = []
        self.stage_depth = 0
        self.wrapped: dict[str, list[str]] = {}

    def _close(self, name: str, dt: float, child_s: float) -> None:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - child_s
        if self.stack:  # the enclosing span's child time
            self.stack[-1][1] += dt

    def wrap(self, name: str, fn):
        stack = self.stack
        clock = time.perf_counter
        probe = PROBES.get(name)
        stage = name in DROP_STAGES
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A call into the same metric from inside it (a method that
            # delegates to a same-named function) stays one span.
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            outer_stage = stage and tracer.stage_depth == 0
            if stage:
                tracer.stage_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stage:
                    tracer.stage_depth -= 1
                tracer._close(name, dt, frame[1])
                if outer_stage:
                    if name == DROP_OPENER:
                        tracer.drops_s.append(0.0)
                    if tracer.drops_s:
                        tracer.drops_s[-1] += dt
            if probe is not None and name not in tracer.probe_errors:
                try:
                    probe(tracer.counters, args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError, ValueError,
                        OSError) as exc:
                    tracer.probe_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        wrapper.__wrapped_by_layertrace__ = True
        return wrapper

    def summary(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
            "probe_errors": self.probe_errors,
            "drops_s": self.drops_s,
            "wrapped": self.wrapped,
        }


def _package_modules() -> list:
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


def _rebind(value, mapping: dict, depth: int = 0):
    """``value`` with wrapped functions substituted; dicts and lists change in place."""
    if callable(value) and id(value) in mapping:
        return mapping[id(value)][1]
    if depth > 3:
        return value
    if isinstance(value, dict):
        for key, item in list(value.items()):
            value[key] = _rebind(item, mapping, depth + 1)
    elif isinstance(value, list):
        value[:] = [_rebind(item, mapping, depth + 1) for item in value]
    elif type(value) is tuple:
        items = tuple(_rebind(item, mapping, depth + 1) for item in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value


def _resolve(path: str):
    """(owner, attribute, function) for ``layer.Name[.method]``, or None."""
    parts = path.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    except ImportError:
        return None
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(parts[-1])
    if not inspect.isfunction(fn):
        return None
    return owner, parts[-1], fn


def install() -> Tracer:
    """Wrap every layer's public functions and the named methods."""
    tracer = Tracer()
    mapping: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    def add(metric: str, owner, attr: str, fn) -> None:
        if getattr(fn, "__wrapped_by_layertrace__", False) or id(fn) in mapping:
            return
        wrapper = tracer.wrap(metric, fn)
        mapping[id(fn)] = (fn, wrapper)
        setattr(owner, attr, wrapper)
        tracer.wrapped.setdefault(metric, []).append(f"{fn.__module__}.{fn.__qualname__}")

    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            continue
        for attr, fn in list(vars(module).items()):
            metric = f"{layer}.{attr}"
            if (attr.startswith("_") or metric in EXCLUDED or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            add(metric, module, attr, fn)
    for metric, path in METHOD_TARGETS.items():
        found = _resolve(path)
        if found is not None:
            add(metric, *found)

    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if not attr.startswith("__"):
                new = _rebind(value, mapping)
                if new is not value:
                    setattr(module, attr, new)
    return tracer
