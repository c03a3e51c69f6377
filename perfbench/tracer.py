"""Outside-in tracing of the stripfol modules for the per-layer metrics.

``Tracer.install`` replaces each traced public function by a wrapper, in its
own module and in every stripfol module that imported it by name, so the
library itself stays unchanged.  A wrapper records a span (name, start, end,
parent, op id) and adds the span's self time, its duration minus the time of
its child spans, to a per-name total.  Kernels called many thousands of
times per op keep only the totals; counted functions keep only a call count.
Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns

MODULES = ("cli", "io", "core", "leafspace", "decomposition", "homeo")

# module -> (spanned functions, self-time-only kernels, call-count-only kernels)
# for the public functions on the CLI's paths.  rectify_stages, the staged
# straightening, is the part of the realization build that grows with k.
TRACED = {
    "cli": (("main",), (), ()),
    "io": (("parse", "serialize", "render", "leafspace_json"), (), ()),
    "core": (("build_surface", "is_connected", "validate_class_f"), (), ()),
    "leafspace": (("build_leaf_space",), ("is_special",), ()),
    "decomposition": (
        ("decompose", "component_closures", "check_cycle_components", "canonicalize", "canonical_code", "is_isomorphic"),
        (),
        (),
    ),
    "homeo": (("realize_half_strip", "rectify_stages"), (), ("uk_eval",)),
}

CANON_BUCKETS = ((1, 4), (5, 8), (9, 12), (13, 16), (17, 24))


def canon_bucket(strips: int) -> str:
    for lo, hi in CANON_BUCKETS:
        if lo <= strips <= hi:
            return f"n{lo}-{hi}"
    return f"n{CANON_BUCKETS[-1][1] + 1}+"


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = None  # (op id, op bucket) of the op being run
        self.stack: list[list] = []  # [span id, name, start, child ns]
        self.spans: list[tuple] = []  # (id, name, tag, start, end, parent, op id)
        self.self_ns: Counter = Counter()  # (name, tag) -> ns
        self.calls: Counter = Counter()  # (name, tag) -> calls
        self.by_bucket: Counter = Counter()  # (name, op bucket) -> self ns
        self.fails: Counter = Counter()  # module -> calls that raised
        self.counts: Counter = Counter()  # named counters
        self._next = 0
        self._ops = 0
        self._restore: list = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, fn, name: str, module: str, tag_of=None, post=None, keep=True):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tag = tag_of(*args, **kwargs) if tag_of else ""
            tracer._next += 1
            frame = [tracer._next, name, perf_counter_ns(), 0]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.fails[module] += 1
                raise
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                dur = end - frame[2]
                if tracer.stack:
                    tracer.stack[-1][3] += dur
                own = dur - frame[3]
                tracer.self_ns[name, tag] += own
                tracer.calls[name, tag] += 1
                tracer.by_bucket[name, tracer.op[1]] += own
                if keep:
                    parent = tracer.stack[-1][0] if tracer.stack else None
                    tracer.spans.append((frame[0], name, tag, frame[2], end, parent, tracer.op[0]))
            if post is not None:
                start = perf_counter_ns()
                post(tracer, result, *args, **kwargs)
                if tracer.stack:  # keep the counters' own cost out of the caller's self time
                    tracer.stack[-1][3] += perf_counter_ns() - start
            return result

        return wrapper

    def _counted(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, original, wrapper) -> None:
        """Point every stripfol module's reference to ``original`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stripfol" or mod_name.startswith("stripfol.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self) -> None:
        import importlib

        hooks = _hooks()
        for module, (spanned, kernels, counted) in TRACED.items():
            mod = importlib.import_module(f"stripfol.{module}")
            for fname in spanned + kernels:
                name = f"{module}.{fname}"
                tag_of, post = hooks.get(name, (None, None))
                wrapper = self._span(getattr(mod, fname), name, module, tag_of, post, keep=fname not in kernels)
                self._replace(getattr(mod, fname), wrapper)
            for fname in counted:
                self._replace(getattr(mod, fname), self._counted(getattr(mod, fname), f"{module}.{fname}"))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def begin(self, op_name: str, bucket: str) -> None:
        """Start tracing one op; the caller sets ``active`` back to False."""
        self._ops += 1
        self.op = (f"{self._ops}:{op_name}", bucket)
        self.active = True

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self.stack)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("id", "name", "tag", "start_ns", "end_ns", "parent", "op"), span))) + "\n")


def _hooks():
    """Per-function span tags and post-call counters."""
    from stripfol.leafspace import is_special

    def cli_tag(argv=None):
        return argv[0] if argv else ""

    def parse_post(tracer, result, text):
        tracer.counts["io.parse.bytes"] += len(text)

    def leafspace_post(tracer, ls, surface):
        tracer.counts["leafspace.points"] += len(ls.points)
        tracer.counts["leafspace.special_points"] += sum(1 for p in ls.points if is_special(ls, p))

    def decompose_post(tracer, result, *args, **kwargs):
        tracer.counts["decomposition.components"] += len(result[0])

    def canon_tag(surface):
        return canon_bucket(len(surface.strips))

    def canon_post(tracer, result, surface):
        if tracer.inside("decomposition.is_isomorphic"):
            tracer.counts["decomposition.canonical_code.in_iso"] += 1

    def realize_tag(surface, comp, closure, *args, **kwargs):
        return f"k{len(closure.base_points)}"

    def realize_post(tracer, result, surface, comp, closure, *args, **kwargs):
        chart, eta = result
        k = f"k{len(closure.base_points)}"
        eta.apply = tracer._span(eta.apply, "homeo.eta_apply", "homeo", lambda x, y: k)
        eta.invert = tracer._span(eta.invert, "homeo.eta_invert", "homeo", lambda x, y: k)

    return {
        "cli.main": (cli_tag, None),
        "io.parse": (None, parse_post),
        "leafspace.build_leaf_space": (None, leafspace_post),
        "decomposition.decompose": (None, decompose_post),
        "decomposition.canonical_code": (canon_tag, canon_post),
        "homeo.realize_half_strip": (realize_tag, realize_post),
    }
