"""Span recorder for the traced run, installed from outside the package.

The recorder replaces each public layer function at every module-global
binding of the package (``lp2dual.verify.gahler_norm``,
``lp2dual.two_functional.gahler_norm``, ``lp2dual.g_geometry.lp_norm``, ...),
so a call is recorded whichever layer makes it, and reports any reference to
an original it could not replace (a default argument, a closure cell, a
dispatch table).  Each span holds its name, the binding it was reached
through, start and end, its parent span and the request id; spans stay in
memory until the run writes them out.  A span's self time is its duration
minus the time its child spans cover.

The elementwise helpers ``abs_pow`` and ``conjugate_exponent`` are left
unwrapped: they run inside inner loops, where a wrapper would time itself.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import lp2dual
from lp2dual import NormEstimate

#: Layer module -> public functions recorded as spans of that layer.
LAYER_FUNCTIONS = {
    "grid": ("make_rule", "sample_function", "sample_kernel", "integrate", "stable_seed"),
    "lp_core": ("lp_norm", "pairing", "holder_extremal", "require_nonzero"),
    "two_norm": ("gunawan_norm", "gahler_norm", "pairing_determinant"),
    "g_geometry": ("g", "gram_det", "g_projection", "g_orthogonalize", "volume"),
    "two_functional": (
        "apply_kernel", "eval_f", "antisym_part", "is_antisymmetric",
        "kernel_from_bilinear", "yq_norm", "fnorm_21", "fnorm_22_G", "fnorm_22_H",
    ),
}

#: n x n array passes in ``gunawan_norm``: outer product, antisymmetrization,
#: absolute value, the power (none at p = 1, one at p = 2, two at p = 1.5 and
#: p = 3, one otherwise) and the weighted double sum.
_GUNAWAN_POWER_PASSES = {1.0: 0, 2.0: 1, 1.5: 2, 3.0: 2}

#: Every metric ``layer_metrics`` reports; layers a workload never enters read 0.
LAYER_METRICS = (
    "two_functional.fnorm_22_G.self_ms", "two_functional.fnorm_22_H.self_ms",
    "two_functional.fnorm_22_G.iters_best", "two_functional.fnorm_22_H.iters_best",
    "two_functional.fnorm_22_G.nested_gahler_calls",
    "two_norm.gahler_norm.ms", "two_norm.gahler_norm.calls", "two_norm.gahler_norm.iters_best",
    "two_norm.gahler_norm.starts", "two_norm.gahler_norm.converged_frac",
    "two_norm.gunawan_norm.ms", "two_norm.gunawan_norm.calls",
    "two_norm.gunawan_norm.bytes_computed", "two_norm.other.ms",
    "two_functional.fnorm_21.ms", "two_functional.fnorm_21.iters_best",
    "two_functional.yq_norm.ms", "two_functional.yq_norm.iters_best", "two_functional.other.ms",
    "g_geometry.ms", "g_geometry.calls", "lp_core.ms", "lp_core.calls", "grid.ms", "grid.calls",
    "verify.self_ms", "verify.to_json_ms", "trace.request_ms",
)

REQUEST = "verify.request"
TO_JSON = "verify.to_json"


@dataclass
class Span:
    sid: int
    name: str
    site: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    info: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "site": self.site,
            "start": self.start, "end": self.end, "parent": self.parent,
            "request": self.request, **self.info,
        }


class SpanRecorder:
    """Collects spans from wrapped layer functions of a single-threaded pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()
        self.foreign_calls = 0

    def open(self, name: str, site: str, request: int | None = None) -> Span:
        if threading.get_ident() != self._thread:
            self.foreign_calls += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, site, 0.0,
                    parent=parent.sid if parent else None,
                    request=parent.request if parent else request)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, site: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if isinstance(result, NormEstimate):
                span.info.update(iterations=result.iterations, starts=result.starts,
                                 converged=bool(result.converged))
            elif name == "two_norm.gunawan_norm":
                p = args[2] if len(args) > 2 else kwargs["p"]
                span.info.update(n=args[0].rule.n, p=float(p))
            return result

        return traced

    def install(self) -> list[str]:
        """Replace every binding of each layer function by a recording wrapper.

        Returns the references to an original that are left unreplaced, so
        calls through them would fall into their caller's self time.
        """
        originals = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = getattr(lp2dual, layer)
            for fname in names:
                originals[id(getattr(module, fname))] = f"{layer}.{fname}"
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "lp2dual" or name.startswith("lp2dual.")]
        replaced = set()
        unwrapped = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                label = originals.get(id(value))
                if label is None:
                    continue
                self._saved.append((module, attr, value))
                wrapper = self._wrap(value, label, f"{module.__name__}.{attr}")
                setattr(module, attr, wrapper)
                unwrapped[id(wrapper)] = value
                replaced.add(label)
        missed = [f"{label}: no binding replaced" for label in originals.values()
                  if label not in replaced]
        for module in modules:
            for attr, value in vars(module).items():
                for held in _held_references(unwrapped.get(id(value), value)):
                    label = originals.get(id(held))
                    if label is not None:
                        missed.append(f"{label}: held by {module.__name__}.{attr}")
        return missed

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def _held_references(value) -> list:
    """Objects a module-level value holds where a global rebinding cannot reach."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return list(value)
    held = list(getattr(value, "__defaults__", None) or ())
    held += list((getattr(value, "__kwdefaults__", None) or {}).values())
    for cell in getattr(value, "__closure__", None) or ():
        try:
            held.append(cell.cell_contents)
        except ValueError:  # an empty cell
            pass
    return held


def check_spans(spans: list[Span]) -> list[str]:
    """Structural faults of a traced pass's span forest.

    Every span must be closed; a request span must be a root; every other
    span must have a parent on the same request, so its time is attributed
    to that request's tree.
    """
    by_id = {s.sid: s for s in spans}
    faults = []
    for s in spans:
        if s.end < s.start or s.end == 0.0:
            faults.append(f"span {s.sid} ({s.name}) not closed")
        if s.name == REQUEST:
            if s.parent is not None:
                faults.append(f"request span {s.sid} has a parent")
        elif s.parent is None:
            faults.append(f"span {s.sid} ({s.name}) outside any request")
        elif by_id[s.parent].request != s.request:
            faults.append(f"span {s.sid} ({s.name}) on another request than its parent")
    return faults


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover (seconds)."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - covered[s.sid] for s in spans}


def gunawan_bytes(n: int, p: float) -> int:
    """Bytes of n x n float64 array passes one ``gunawan_norm`` call makes."""
    return 8 * n * n * (4 + _GUNAWAN_POWER_PASSES.get(p, 1))


def layer_metrics(spans: list[Span], requests: int) -> dict[str, float]:
    """Per-request layer metrics from one traced pass of ``requests`` requests.

    Every ``.ms`` and ``.self_ms`` value is self time, so together they add
    up to ``trace.request_ms``.  ``.iters_best`` and ``.starts`` sum the
    ``NormEstimate`` fields over a request's calls.
    """
    by_id = {s.sid: s for s in spans}
    self_ms = {sid: 1e3 * t for sid, t in self_times(spans).items()}
    acc = dict.fromkeys(LAYER_METRICS, 0.0)

    def inside(span: Span, name: str) -> bool:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    gahler_calls = gahler_converged = 0
    for s in spans:
        ms = self_ms[s.sid]
        layer = s.name.split(".")[0]
        if s.name == REQUEST:
            acc["trace.request_ms"] += 1e3 * (s.end - s.start)
            acc["verify.self_ms"] += ms
        elif s.name == TO_JSON:
            acc["verify.to_json_ms"] += ms
        elif s.name == "two_norm.gahler_norm":
            acc["two_norm.gahler_norm.ms"] += ms
            acc["two_norm.gahler_norm.iters_best"] += s.info["iterations"]
            acc["two_norm.gahler_norm.starts"] += s.info["starts"]
            gahler_calls += 1
            gahler_converged += s.info["converged"]
            if inside(s, "two_functional.fnorm_22_G"):
                acc["two_functional.fnorm_22_G.nested_gahler_calls"] += 1
        elif s.name == "two_norm.gunawan_norm":
            acc["two_norm.gunawan_norm.ms"] += ms
            acc["two_norm.gunawan_norm.calls"] += 1
            acc["two_norm.gunawan_norm.bytes_computed"] += gunawan_bytes(s.info["n"], s.info["p"])
        elif s.name in ("two_functional.fnorm_22_G", "two_functional.fnorm_22_H"):
            acc[f"{s.name}.self_ms"] += ms
            acc[f"{s.name}.iters_best"] += s.info["iterations"]
        elif s.name in ("two_functional.fnorm_21", "two_functional.yq_norm"):
            acc[f"{s.name}.ms"] += ms
            acc[f"{s.name}.iters_best"] += s.info["iterations"]
        elif layer in ("two_norm", "two_functional"):
            acc[f"{layer}.other.ms"] += ms
        else:
            acc[f"{layer}.ms"] += ms
            acc[f"{layer}.calls"] += 1
    out = {name: value / requests for name, value in acc.items()}
    out["two_norm.gahler_norm.calls"] = gahler_calls / requests
    out["two_norm.gahler_norm.converged_frac"] = gahler_converged / gahler_calls if gahler_calls else 0.0
    return out
