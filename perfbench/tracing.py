"""Outside-in tracing of hypervol's layers.

`Tracer.install` replaces every binding of each traced function -- the
defining module's global, every importer's global (``from .x import f``
copies the reference), the values of ``cli._FORMS`` and the methods of
``RadialPowerStack`` -- with a wrapper that records a span.  `uninstall`
puts every original back.  Nothing inside the program changes.

A span is (name, request, parent, start, end).  Each thread keeps its own
stack of open spans and its own records, merged after the pass.  A span opened on a worker thread with an empty
stack takes as parent the innermost open span of the installing thread,
which is where the pool was started from.  A span with no parent, or a
span of a fan-out unit (one sweep row), starts a new request.

Self time is a span's duration minus the part of it covered by its child
spans, taken as a union because children on pool threads overlap.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

# (layer.name, module, attribute); the module is the defining one
FUNCTIONS = [
    ("geometry.ladder", "hypervol.geometry", "ladder"),
    ("geometry.halfspace_embedding", "hypervol.geometry", "halfspace_embedding"),
    ("geometry.simplex_vertices", "hypervol.geometry", "simplex_vertices"),
    ("geometry.unit_simplex_vertices", "hypervol.geometry", "unit_simplex_vertices"),
    ("geometry.circumradius", "hypervol.geometry", "circumradius"),
    ("geometry.edge_length", "hypervol.geometry", "edge_length"),
    ("geometry.cross_ratio_distance", "hypervol.geometry", "cross_ratio_distance"),
    ("quadrature.adaptive", "hypervol.quadrature", "integrate_adaptive"),
    ("quadrature.nested", "hypervol.quadrature", "integrate_nested"),
    ("quadrature.radialpow", "hypervol.quadrature", "integrate_simplex_radialpow"),
    ("quadrature.monte_carlo", "hypervol.quadrature", "monte_carlo_simplex"),
    ("volume_forms.projective", "hypervol.volume_forms", "volume_projective"),
    ("volume_forms.facet_projective", "hypervol.volume_forms", "facet_volume_projective"),
    ("volume_forms.orthoscheme", "hypervol.volume_forms", "volume_orthoscheme"),
    ("volume_forms.halfspace", "hypervol.volume_forms", "volume_halfspace"),
    ("volume_forms.halfspace_general", "hypervol.volume_forms", "volume_halfspace_general"),
    ("volume_forms.alpha_chain", "hypervol.volume_forms", "alpha_chain"),
    ("bounds.growth_ratio", "hypervol.bounds", "growth_ratio"),
    ("bounds.growth_bounds", "hypervol.bounds", "growth_bounds"),
    ("bounds.lower_bound", "hypervol.bounds", "lower_bound"),
    ("bounds.upper_bound", "hypervol.bounds", "upper_bound"),
    ("bounds.hm_bounds", "hypervol.bounds", "hm_bounds"),
    ("bounds.limit_audit", "hypervol.bounds", "limit_audit"),
    ("cli.main", "hypervol.cli", "main"),
    ("cli.cmd_volume", "hypervol.cli", "cmd_volume"),
    ("cli.cmd_ratio", "hypervol.cli", "cmd_ratio"),
    ("cli.cmd_sweep", "hypervol.cli", "cmd_sweep"),
    ("cli.cmd_check", "hypervol.cli", "cmd_check"),
    ("cli.cmd_ladder", "hypervol.cli", "cmd_ladder"),
    ("cli.sweep_row", "hypervol.cli", "_sweep_row"),
]

# (layer.name, attribute) on hypervol.quadrature.RadialPowerStack
METHODS = [
    ("quadrature.stack_build", "__init__"),
    ("quadrature.level_value", "level_value"),
    ("quadrature.top_integral", "top_integral"),
]

REQUEST_ROOTS = {"cli.sweep_row"}

FORM_SPANS = ("projective", "facet_projective", "orthoscheme", "halfspace")


class _ThreadState:
    """What one thread records; merged after the pass, so no lock is taken."""

    __slots__ = ("stack", "spans", "counts", "stack_keys", "errors")

    def __init__(self):
        self.stack: list[list] = []     # open spans, innermost last
        self.spans: list[list] = []     # [id, name, request, parent id, start, end]
        self.counts: Counter = Counter()
        self.stack_keys: set = set()
        self.errors: list = []          # exception objects already counted


class Tracer:
    """Records spans and counts at the boundaries of hypervol's layers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._owner = threading.get_ident()
        self._owner_state = self._state()
        self._restore: list = []

    # -- spans ---------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._states.append(state)
        return state

    def open(self, name: str) -> list:
        state = self._state()
        if state.stack:
            parent = state.stack[-1]
        elif state is not self._owner_state and self._owner_state.stack:
            parent = self._owner_state.stack[-1]
        else:
            parent = None
        if parent is None or name in REQUEST_ROOTS:
            request = next(self._requests)
        else:
            request = parent[2]
        span = [next(self._ids), name, request, parent and parent[0], self.clock(), None]
        state.spans.append(span)
        state.stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = self.clock()
        self._state().stack.pop()

    def error(self, exc: BaseException) -> None:
        """Count an exception once, at the innermost quadrature span it left."""
        state = self._state()
        if not any(e is exc for e in state.errors):
            state.errors.append(exc)
            state.counts["quadrature.errors"] += 1

    @property
    def spans(self) -> list[list]:
        """All spans in opening order as [name, request, parent index, start, end]."""
        merged = sorted((s for state in self._states for s in state.spans), key=lambda s: s[0])
        index = {s[0]: i for i, s in enumerate(merged)}
        return [[name, request, None if parent is None else index[parent], start, end]
                for _, name, request, parent, start, end in merged]

    @property
    def counts(self) -> Counter:
        total = Counter()
        for state in self._states:
            total.update(state.counts)
        return total

    @property
    def stack_keys(self) -> set:
        return set().union(*(state.stack_keys for state in self._states))

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)
        is_quadrature = name.startswith("quadrature.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if is_quadrature:
                    tracer.error(exc)
                if observe is not None:
                    observe(tracer._state(), fn, args, kwargs, getattr(exc, "estimate", None))
                raise
            finally:
                tracer.close(span)
            if observe is not None:
                observe(tracer._state(), fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of FUNCTIONS and METHODS in loaded hypervol modules."""
        import hypervol.cli
        import hypervol.quadrature

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "hypervol" or key.startswith("hypervol."))]
        forms = getattr(hypervol.cli, "_FORMS", {})
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
            for key, value in list(forms.items()):
                if value is original:
                    forms[key] = wrapper
                    self._restore.append((forms.__setitem__, key, original))
        cls = hypervol.quadrature.RadialPowerStack
        for name, attr in METHODS:
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            self._patch(cls, attr, original, self.wrap(name, original))

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((functools.partial(setattr, owner), key, original))

    def uninstall(self) -> None:
        while self._restore:
            setter, key, original = self._restore.pop()
            setter(key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- per-call counters -----------------------------------------------------

def _n_evals(estimate) -> int:
    return int(getattr(estimate, "n_evals", 0) or 0)


def _observe_stack(state, fn, args, kwargs, _result):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    key = tuple(bound[k] for k in ("levels", "p", "theta_min", "settings"))
    state.stack_keys.add(key)
    state.counts["quadrature.stack_build.levels"] += key[0]


def _observe_level_value(state, _fn, args, kwargs, _result):
    self, k, w = (*args, *kwargs.values())[:3]
    points = int(getattr(w, "size", 1))
    state.counts["quadrature.level_value.points"] += points
    if k > 0:
        state.counts["quadrature.level_value.node_ops"] += points * (self.settings.ncheb + 1)


def _observe_nested(state, _fn, _args, _kwargs, result):
    state.counts["quadrature.nested.n_evals"] += _n_evals(result)


def _observe_form(state, _fn, _args, _kwargs, result):
    state.counts["volume_forms.n_evals"] += _n_evals(result)


_OBSERVERS = {
    "quadrature.stack_build": _observe_stack,
    "quadrature.level_value": _observe_level_value,
    "quadrature.nested": _observe_nested,
    **{f"volume_forms.{form}": _observe_form for form in FORM_SPANS},
}


# -- reduction -------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the span)."""
    children = defaultdict(list)
    for span in spans:
        if span[2] is not None:
            children[span[2]].append((span[3], span[4]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[3], span[4]
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(index, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of a finished trace (times in seconds).

    cli.cpu_per_wall and trace.overhead_share need the whole pass and are
    added by the caller."""
    spans = tracer.spans
    calls, total, self_s = Counter(), Counter(), Counter()
    layer_self = Counter()
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        calls[name] += 1
        total[name] += span[4] - span[3]
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
    c = tracer.counts
    builds = calls["quadrature.stack_build"]
    out = {
        "quadrature.level_value.calls": calls["quadrature.level_value"],
        "quadrature.level_value.self_s": self_s["quadrature.level_value"],
        "quadrature.level_value.points": c["quadrature.level_value.points"],
        "quadrature.level_value.node_ops": c["quadrature.level_value.node_ops"],
        "quadrature.stack_build.count": builds,
        "quadrature.stack_build.self_s": self_s["quadrature.stack_build"],
        "quadrature.stack_build.levels": c["quadrature.stack_build.levels"],
        "quadrature.stack_build.unique_share": len(tracer.stack_keys) / builds if builds else 0.0,
        "quadrature.top_integral.self_s": self_s["quadrature.top_integral"],
        "quadrature.radialpow.calls": calls["quadrature.radialpow"],
        "quadrature.radialpow.self_s": self_s["quadrature.radialpow"],
        "quadrature.nested.calls": calls["quadrature.nested"],
        "quadrature.nested.self_s": self_s["quadrature.nested"],
        "quadrature.nested.n_evals": c["quadrature.nested.n_evals"],
        "quadrature.errors": c["quadrature.errors"],
    }
    for form in FORM_SPANS:
        out[f"volume_forms.{form}.calls"] = calls[f"volume_forms.{form}"]
        out[f"volume_forms.{form}.s"] = total[f"volume_forms.{form}"]
    out["volume_forms.halfspace.self_s"] = self_s["volume_forms.halfspace"]
    out["volume_forms.n_evals"] = c["volume_forms.n_evals"]
    out["bounds.growth_ratio.calls"] = calls["bounds.growth_ratio"]
    out["bounds.self_s"] = layer_self["bounds"]
    out["cli.self_s"] = layer_self["cli"]
    out["geometry.self_s"] = layer_self["geometry"]
    return out
