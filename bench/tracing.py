"""Spans around the program's public functions, for the traced run only.

`Tracer.install` wraps every public function of the porism modules in every
module namespace that holds it (modules bind each other's functions with
`from .plane import join`, so patching the defining module alone would miss
most calls), patches a few methods on their classes, and wraps the suite
generators and checks. `uninstall` restores every binding. Nothing here runs
in an untraced run.

Per span: name, start, end, parent span and the op it belongs to. Per name:
calls, calls that raised, inclusive time and self time (the span's duration
minus the time of its child spans). Aggregates cover every span; raw spans
are kept in memory up to a cap and written out when the run ends.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
import time
import types

SPAN_CAP = 20000


class _ThreadState:
    __slots__ = ("stack", "agg")

    def __init__(self):
        self.stack = []  # [child_ns, span_id] per open span
        self.agg = {}  # name -> [calls, errors, total_ns, self_ns]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._aggs = []  # one dict per thread that ever recorded
        self._ids = itertools.count(1)
        self._patches = []  # (owner, attribute, had_own_attribute, original)
        self.spans = []  # (op, thread, id, parent, name, start_ns, end_ns)
        self.op = -1

    # ---------------------------------------------------------- recording

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._aggs.append(st.agg)
        return st

    def wrap(self, name: str, fn, classify=None):
        """fn with a span named `name`; classify(args) may name a second
        aggregate the call also counts under, read after the call returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            span_id = next(tracer._ids)
            parent = st.stack[-1][1] if st.stack else 0
            frame = [0, span_id]
            st.stack.append(frame)
            raised = False
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter_ns()
                st.stack.pop()
                duration = end - start
                if st.stack:
                    st.stack[-1][0] += duration
                names = (name, classify(args)) if classify else (name,)
                for key in names:
                    rec = st.agg.get(key)
                    if rec is None:
                        rec = st.agg[key] = [0, 0, 0, 0]
                    rec[0] += 1
                    rec[1] += raised
                    rec[2] += duration
                    rec[3] += duration - frame[0]
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (tracer.op, threading.get_ident(), span_id, parent, name, start, end)
                    )

        return traced

    def aggregate(self) -> dict:
        """name -> [calls, errors, total_ms, self_ms], merged over threads."""
        merged = {}
        for agg in list(self._aggs):
            for name, (calls, errors, total, own) in agg.items():
                rec = merged.setdefault(name, [0, 0, 0, 0])
                rec[0] += calls
                rec[1] += errors
                rec[2] += total
                rec[3] += own
        return {k: [c, e, t / 1e6, s / 1e6] for k, (c, e, t, s) in merged.items()}

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr, value):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules):
        """Wrap the public functions of `modules` wherever they are bound."""
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_porism_function(obj):
                    continue
                if id(obj) not in wrappers:
                    home = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = self.wrap(
                        f"{home}.{obj.__name__}", obj, _CLASSIFY.get(obj.__name__)
                    )
                self._patch(module, attr, wrappers[id(obj)])
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        fields, plane = by_name["fields"], by_name["plane"]
        algebra, involution = by_name["algebra"], by_name["involution"]
        self._patch(fields.QuadExt, "__init__", self.wrap("fields.QuadExt", fields.QuadExt.__init__))
        for cls in (plane.ProjPoint, plane.ProjLine):
            self._patch(cls, "__init__", self.wrap("plane.triple", cls.__init__, _triple_kind))
        self._patch(plane.MobiusMap, "__init__", self.wrap("plane.MobiusMap", plane.MobiusMap.__init__))
        self._patch(algebra.Mat2, "__mul__", self.wrap("algebra.Mat2.__mul__", algebra.Mat2.__mul__))
        product = vars(involution.InvolutionChain)["product"]
        self._patch(
            involution.InvolutionChain,
            "product",
            property(self.wrap("involution.InvolutionChain.product", product.fget)),
        )
        suites = by_name["suites"]
        for key, suite in list(suites.SUITES.items()):
            wrapped = dataclasses.replace(
                suite,
                generate=self.wrap(f"suites.{key}.generate", suite.generate),
                check=self.wrap(f"suites.{key}.check", suite.check),
            )
            self._patch_item(suites.SUITES, key, wrapped)

    def _patch_item(self, mapping, key, value):
        self._patches.append((mapping, key, None, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own is None:
                owner[attr] = original
            elif had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _is_porism_function(obj) -> bool:
    cached = hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")
    if not (isinstance(obj, types.FunctionType) or cached):
        return False
    return getattr(obj, "__module__", "").startswith("porism.")


def _triple_kind(args):
    # a constructor that raised has no kind
    return "plane.float_triple" if getattr(args[0], "kind", None) == "float" else "plane.exact_triple"


def _primal_kind(args):
    return f"closure.primal_chain.{args[1].kind}"


_CLASSIFY = {"primal_chain": _primal_kind}
