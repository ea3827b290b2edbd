"""In-memory span tracing installed from outside the package.

Every wrapped function is replaced on each ``cycfit.*`` module that binds
it (the package imports with ``from .x import y``, so patching the defining
module alone would miss most call sites); methods are replaced on their
class.  A call with no traced caller opens a new trace id, so in a scan
each field verification is one trace.

Functions called once per derivative multi-index (``hot``) are not kept as
individual spans: their calls, time and self time are folded into the
nearest kept ancestor span, which bounds memory on the long expansions
while keeping per-field attribution.  Self time is a span's duration minus
the time covered by its traced children.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (defining module, attribute or Class.method, hot, generator)
TARGETS = (
    ("cycfit.cli", "run_verify", False, False),
    ("cycfit.cli", "main", False, False),
    ("cycfit.ideals", "sample_cyclotomic_ideal", False, False),
    ("cycfit.units", "evaluate_kappa", False, False),
    ("cycfit.units", "EvalContext.__init__", False, False),
    ("cycfit.units", "EvalContext.norm_set_d", True, False),
    ("cycfit.units", "EvalContext.symbol_value", True, False),
    ("cycfit.units", "EvalContext.factor_value", True, False),
    ("cycfit.units", "EvalContext.dlog", True, False),
    ("cycfit.classgroup", "narrow_class_group", False, False),
    ("cycfit.classgroup", "ideal_class_of_prime", False, False),
    ("cycfit.fields", "build_field", False, False),
    ("cycfit.fields", "kolyvagin_primes", False, True),
    ("cycfit.fields", "evaluation_primes", False, True),
    ("cycfit.arith", "make_field", False, False),
    ("cycfit.groupring", "chi_project", False, False),
    ("cycfit.groupring", "ideal_normal_form", False, False),
    ("cycfit.groupring", "ideal_join", False, False),
    ("cycfit.fitting", "fitting_of_p_group", False, False),
    ("cycfit.fitting", "fitting_ideal", False, False),
    ("cycfit.maps", "annihilation_suite", False, False),
    ("cycfit.combined", "check_combined_identities", False, False),
)

LAYERS = ("cli", "ideals", "units", "classgroup", "fields", "arith",
          "groupring", "fitting", "maps", "combined")


def cache_misses(module) -> int:
    """Misses summed over the functools caches a module defines."""
    return sum(obj.cache_info().misses for obj in vars(module).values()
               if hasattr(obj, "cache_info"))


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


class _Frame:
    __slots__ = ("name", "span_id", "hot", "child", "folded", "start")

    def __init__(self, name, span_id, hot):
        self.name = name
        self.span_id = span_id
        self.hot = hot
        self.child = 0
        self.folded = None
        self.start = time.perf_counter_ns()


class Tracer:
    """Span stack, kept spans, per-name totals and counters."""

    def __init__(self):
        self.stack: list[_Frame] = []
        # (trace id, span id, parent span id, name, start ns, end ns,
        #  self ns, folded hot children {name: [calls, ns, self ns]})
        self.spans: list[tuple] = []
        # name -> [calls, inclusive ns of outermost calls, self ns]
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counters: Counter = Counter()
        self._active: Counter = Counter()
        self._trace_id = 0
        self._span_id = 0
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, hot: bool = False, before=None, after=None):
        """``before(args, kwargs)`` returns a token handed to
        ``after(args, kwargs, result, exc, dur_ns, token)``."""

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            if not self.stack:
                self._trace_id += 1
            self._span_id += 1
            frame = _Frame(name, self._span_id, hot)
            self.stack.append(frame)
            self._active[name] += 1
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dur = self._close(frame)
                if after:
                    after(args, kwargs, result, exc, dur, token)

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: _Frame) -> int:
        dur = time.perf_counter_ns() - frame.start
        self.stack.pop()
        self._active[frame.name] -= 1
        own = dur - frame.child
        st = self.stats[frame.name]
        st[0] += 1
        st[2] += own
        if not self._active[frame.name]:
            st[1] += dur
        if self.stack:
            self.stack[-1].child += dur
        parent = next((f for f in reversed(self.stack) if not f.hot), None)
        if frame.hot:
            if parent is not None:
                if parent.folded is None:
                    parent.folded = defaultdict(lambda: [0, 0, 0])
                agg = parent.folded[frame.name]
                agg[0] += 1
                agg[1] += dur
                agg[2] += own
        else:
            self.spans.append((
                self._trace_id, frame.span_id,
                parent.span_id if parent else None, frame.name,
                frame.start, frame.start + dur, own,
                dict(frame.folded) if frame.folded else None,
            ))
        return dur

    def wrap_generator(self, name: str, fn, after=None):
        """One span per ``next()`` on the generator ``fn`` returns."""
        step = self.wrap(name, next, after=after)

        def traced_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    value = step(it)
                except StopIteration:
                    return
                yield value

        traced_gen.__wrapped__ = fn
        return traced_gen

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every TARGETS entry on all cycfit modules that bind it."""
        for module_name in sorted({t[0] for t in TARGETS}):
            importlib.import_module(module_name)
        hooks = self._hooks()
        bindings = [mod for key, mod in sys.modules.items()
                    if mod is not None and (key == "cycfit" or key.startswith("cycfit."))]
        for module_name, attr, hot, is_gen in TARGETS:
            module = sys.modules[module_name]
            name = module_name.split(".", 1)[1] + "." + attr
            before, after = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, orig, hot, before, after))
                continue
            orig = getattr(module, attr)
            wrapped = (self.wrap_generator(name, orig, after) if is_gen
                       else self.wrap(name, orig, hot, before, after))
            for mod in bindings:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _hooks(self) -> dict:
        """Counters taken at the same boundaries as the spans."""
        arith = sys.modules["cycfit.arith"]
        units = sys.modules["cycfit.units"]
        BudgetExhausted = sys.modules["cycfit.errors"].BudgetExhausted
        norm_set_d = units.EvalContext.norm_set_d
        norm_set_a = units.EvalContext.norm_set_a
        c = self.counters

        def factor_value(args, kwargs, result, exc, dur, token):
            ev, kind = args[0], _arg(args, kwargs, 1, "kind")
            if kind == "d":
                c["units.terms"] += len(norm_set_d(ev, _arg(args, kwargs, 2, "param")))
            else:
                c["units.terms"] += 2 * len(norm_set_a(ev))

        def evaluate_kappa(args, kwargs, result, exc, dur, token):
            if isinstance(exc, BudgetExhausted):
                c["ideals.pruned_chains"] += 1
            elif exc is None:
                ctx, cls = args[0], _arg(args, kwargs, 1, "cls")
                c["units.multi_indices"] += cls.operator().expansion_size() * ctx.group.order

        def sample(args, kwargs, result, exc, dur, token):
            if exc is None:
                base = _arg(args, kwargs, 5, "base_run")
                c["ideals.samples"] += len(result.samples) - (len(base.samples) if base else 0)

        def ideal_join(args, kwargs, result, exc, dur, token):
            if exc is None and self.stack and self.stack[-1].name == "ideals.sample_cyclotomic_ideal":
                c["ideals.useful"] += result != args[0]

        def kolyvagin(args, kwargs, result, exc, dur, token):
            if exc is None:
                c["fields.aux_primes_yielded"] += 1

        def make_field_after(args, kwargs, result, exc, dur, misses):
            if cache_misses(arith) > misses:
                c["arith.make_field_misses"] += 1
                if _arg(args, kwargs, 1, "k", 1) > 1:
                    c["arith.make_field_ext_ns"] += dur

        return {
            "units.EvalContext.factor_value": (None, factor_value),
            "units.evaluate_kappa": (None, evaluate_kappa),
            "ideals.sample_cyclotomic_ideal": (None, sample),
            "groupring.ideal_join": (None, ideal_join),
            "fields.kolyvagin_primes": (None, kolyvagin),
            "arith.make_field": (lambda a, k: cache_misses(arith), make_field_after),
        }

    # -- output -------------------------------------------------------------

    def dump(self) -> dict:
        return {"stats": dict(self.stats), "counters": dict(self.counters),
                "spans": self.spans}

    def merge(self, dump: dict) -> None:
        """Add a child process's dump, renumbering its trace ids."""
        for name, values in dump["stats"].items():
            st = self.stats[name]
            for i, v in enumerate(values):
                st[i] += v
        self.counters.update(dump["counters"])
        offset = self._trace_id
        for span in dump["spans"]:
            self.spans.append((span[0] + offset, *span[1:]))
            self._trace_id = max(self._trace_id, span[0] + offset)

    def write(self, path) -> None:
        """One JSON object per kept span."""
        keys = ("trace", "span", "parent", "name", "start_ns", "end_ns", "self_ns", "folded")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- derived metrics ----------------------------------------------------

    def inclusive_s(self, *names) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats) / 1e9

    def calls(self, name) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def self_s(self, name) -> float:
        return self.stats[name][2] / 1e9 if name in self.stats else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(v[2] for n, v in self.stats.items() if n.split(".")[0] == layer) / 1e9

    def top_self(self, count: int = 5) -> list[tuple[str, float]]:
        ranked = sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        return [(n, v[2] / 1e9) for n, v in ranked[:count]]
