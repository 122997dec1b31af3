"""Outside-in layer trace: wrappers on the public entry points of each layer.

Each wrapper is set on the class or module attribute that callers look up,
so nested calls are caught as well as the benchmark's own.  Fine boundaries
(scalar and polynomial arithmetic, tensor and series products) only feed
aggregate counters; coarse ones (the benchmark's operations, law suites,
``beta``) are also kept as spans.  Self time is a call's duration minus the
time its traced children cover; total time counts only the outermost call
of a name, so recursion is not counted twice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from rbshuffle import coeffs, distlaw, freerb, hurwitz, laws
from rbshuffle.algebra import Poly
from rbshuffle.freerb import Tensor
from rbshuffle.hurwitz import Series

SPAN_FIELDS = ("id", "name", "parent", "op", "start_s", "end_s")


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    out_terms: int = 0


def _suite_key(args) -> str:
    return f"laws.run_suite[{args[0].name}]"


# (owner, attribute, key): calls counted only
COUNTED = (
    (coeffs.Scalar, "__mul__", "coeffs.scalar_mul"),
    (coeffs.Scalar, "__add__", "coeffs.scalar_add"),
    (Poly, "__add__", "algebra.poly_add"),
    (Tensor, "from_factors", "freerb.from_factors"),
)
# (owner, attribute, key, kept as a span): calls counted and timed; the key
# of a law suite names the suite
TIMED = (
    (Poly, "__mul__", "algebra.poly_mul", False),
    (Tensor, "__mul__", "freerb.tensor_mul", False),
    (freerb, "free_derivation_apply", "freerb.free_derivation_apply", False),
    (freerb, "induced_rb_hom", "freerb.induced_rb_hom", False),
    (freerb, "sha_map", "freerb.sha_map", False),
    (Series, "__mul__", "hurwitz.series_mul", False),
    (hurwitz, "higher_leibniz", "hurwitz.higher_leibniz", True),
    (distlaw, "beta", "distlaw.beta", True),
    (laws, "run_suite", _suite_key, True),
)


class Tracer:
    """Install with ``with Tracer() as t:``; leaving the block restores every
    original attribute.  ``t.op(label, fn)`` runs one benchmark operation
    in its own span."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self._cells: dict[str, list] = {}
        self._stack: list[list] = []   # per open call: [child seconds, span id]
        self._active: dict[str, int] = {}
        self._saved: list[tuple] = []
        self._op_id: int | None = None
        self._t0 = time.perf_counter()

    # -- installation -------------------------------------------------------

    def __enter__(self) -> Tracer:
        try:
            for owner, attr, key in COUNTED:
                self._patch(owner, attr, self._counting(key))
            for owner, attr, key, keep in TIMED:
                self._patch(owner, attr, self._timing(key, keep))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()
        self.counts = {key: cell[0] for key, cell in self._cells.items()}

    def _patch(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- wrappers -------------------------------------------------------------

    def _counting(self, key: str):
        cell = self._cells.setdefault(key, [0])

        def make(fn):
            def counted(*args, **kw):
                cell[0] += 1
                return fn(*args, **kw)
            return counted
        return make

    def _timing(self, key, keep: bool):
        def make(fn):
            def timed(*args, **kw):
                name = key(args) if callable(key) else key
                return self._call(name, keep, fn, args, kw)
            return timed
        return make

    def _call(self, name: str, keep: bool, fn, args, kw):
        stack = self._stack
        span_id = parent = None
        if keep:
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._parent_span()
        frame = [0.0, span_id]
        stack.append(frame)
        active = self._active
        active[name] = active.get(name, 0) + 1
        start = time.perf_counter()
        try:
            out = fn(*args, **kw)
        finally:
            end = time.perf_counter()
            stack.pop()
            active[name] -= 1
            dur = end - start
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = Stat()
            st.calls += 1
            st.self_s += dur - frame[0]
            if not active[name]:
                st.total_s += dur
            if stack:
                stack[-1][0] += dur
            if keep:
                self.spans[span_id] = (span_id, name, parent, self._op_id,
                                       start - self._t0, end - self._t0)
        if isinstance(out, Tensor):
            st.out_terms += len(out.terms)
        return out

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    # -- benchmark operations -------------------------------------------------

    def op(self, label: str, fn):
        """Run one benchmark operation inside its own span; the span's id is
        the operation id of every span under it."""
        self._op_id = len(self.spans)
        try:
            return self._call(f"op[{label}]", True, fn, (), {})
        finally:
            self._op_id = None
