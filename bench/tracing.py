"""Spans and counters around wqokit's public functions, installed from outside.

The tracer replaces module attributes and class methods with wrappers, and
patches every alias another module imported (``upset.vec_leq`` is
``dickson.leq``), so a call is seen whichever name it goes through. Layer
functions record a span (name, start, end, parent span, op id); the order
predicates are only counted, because they run millions of times per pass.
Nothing is recorded unless ``on`` is set, so set-up and referee work stay
out of the figures. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# attribute path under wqokit -> span name
SPANS = {
    "upset.UpSet.__init__": "upset.normalize",
    "upset.UpSet.member": "upset.member",
    "upset.UpSet.includes": "upset.includes",
    "upset.quotient": "upset.quotient",
    "upset.intersect_dickson": "upset.intersect_dickson",
    "upset.phi_slice": "upset.phi_slice",
    "upset.format_upset_block": "upset.format_upset_block",
    "upset.parse_upset_block": "upset.parse_upset_block",
    "coverability.backward_cover": "coverability.backward_cover",
    "coverability.pre_step": "coverability.pre_step",
    "coverability.parse_net": "coverability.parse_net",
    "orders.homogeneous_subsequence": "orders.homogeneous_subsequence",
    "orders.find_good_pair": "orders.find_good_pair",
    "transport.check_quasi_embedding": "transport.check_quasi_embedding",
    "transport.transport_upset": "transport.transport_upset",
    "cli.run": "cli.run",
}
# predicates: counted, no span
COUNTED = (
    "dickson.leq",
    "dickson.join",
    "dickson.monus",
    "words.leq_e",
    "words.phi",
    "orders.classify",
)
# predicates whose inclusive time is also summed (it overlaps the caller's)
TIMED = ("words.leq_E",)


class Tracer:
    def __init__(self):
        self.on = False
        self.op = -1
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.first_pass: dict[str, float] = {}

    def bump(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap the targets in the currently imported wqokit modules."""
        mods = {
            name[len("wqokit."):]: mod
            for name, mod in sys.modules.items()
            if name.startswith("wqokit.")
        }
        namespaces = [sys.modules["wqokit"], *mods.values()]
        for path, name in SPANS.items():
            modname, _, attr = path.partition(".")
            if modname in mods:
                self._wrap(mods[modname], attr, self._span(name), namespaces)
        for path in COUNTED:
            modname, _, attr = path.partition(".")
            self._wrap(mods[modname], attr, self._count(path), namespaces)
        for path in TIMED:
            modname, _, attr = path.partition(".")
            self._wrap(mods[modname], attr, self._timed(path), namespaces)

    def _wrap(self, mod, attr: str, make, namespaces) -> None:
        owner = mod
        if "." in attr:  # Class.method
            cls_name, attr = attr.split(".")
            owner = getattr(mod, cls_name)
        orig = getattr(owner, attr)
        wrapper = make(orig)
        setattr(owner, attr, wrapper)
        if owner is mod:
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapper)

    def _count(self, name: str):
        key = name + ".calls"
        tracer = self

        def make(f):
            def wrapper(*args):
                if tracer.on:
                    tracer.bump(key)
                return f(*args)

            return wrapper

        return make

    def _timed(self, name: str):
        calls, secs = name + ".calls", name + ".s"
        tracer = self

        def make(f):
            def wrapper(*args):
                if not tracer.on:
                    return f(*args)
                t0 = perf_counter()
                try:
                    return f(*args)
                finally:
                    tracer.bump(secs, perf_counter() - t0)
                    tracer.bump(calls)

            return wrapper

        return make

    def _span(self, name: str):
        tracer = self
        pre, post = _HOOKS.get(name, (None, None))

        def make(f):
            def wrapper(*args, **kwargs):
                if not tracer.on:
                    return f(*args, **kwargs)
                if pre is not None:
                    args = pre(tracer, args)
                spans, stack = tracer.spans, tracer.stack
                parent = stack[-1] if stack else -1
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                t0 = perf_counter()
                try:
                    result = f(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    spans[idx] = (name, t0, t1, parent, tracer.op)
                    tracer.bump(name + ".calls")
                if post is not None:
                    post(tracer, args, result)
                return result

            return wrapper

        return make

    # ------------------------------------------------------------ results

    def end_first_pass(self) -> None:
        self.first_pass = dict(self.counts)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for (name, t0, t1, _, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (t1 - t0 - inner)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, op]) + "\n")


def _normalize_pre(tracer: Tracer, args):
    self, leq, *rest = args
    gens = list(rest[0]) if rest else []
    tracer.bump("upset.normalize.gens_in", len(gens))
    return (self, leq, gens)


def _normalize_post(tracer: Tracer, args, result) -> None:
    tracer.bump("upset.normalize.gens_out", len(args[0].gens))


def _pre_step_post(tracer: Tracer, args, result) -> None:
    tracer.bump("coverability.pre_step.gens_out", len(result.gens))


def _cover_post(tracer: Tracer, args, result) -> None:
    tracer.bump("coverability.backward_cover.rounds", result.iterations)


def _quasi_pre(tracer: Tracer, args):
    f, sample = args

    def counted():
        for pair in sample:
            tracer.bump("transport.check_quasi_embedding.pairs")
            yield pair

    return (f, counted())


_HOOKS = {
    "upset.normalize": (_normalize_pre, _normalize_post),
    "coverability.pre_step": (None, _pre_step_post),
    "coverability.backward_cover": (None, _cover_post),
    "transport.check_quasi_embedding": (_quasi_pre, None),
}


def layer_metrics(tracer: Tracer, passes: int, traced_ops_per_s: float, scale: float) -> dict:
    """The per-layer metrics: times per traced pass, counts of the first one.

    Times are scaled by `scale`, reference seconds per wall second over
    the run (see bench/speed.py).
    """
    selft = tracer.self_times()
    total_self = sum(selft.values())
    c = tracer.first_pass

    def s(name):
        return (selft.get(name, 0.0) * scale / passes, "s")

    def n(key):
        return (c.get(key, 0), "count")

    gens_in = c.get("upset.normalize.gens_in", 0)
    kept = c.get("upset.normalize.gens_out", 0) / gens_in if gens_in else 0.0
    share = selft.get("upset.normalize", 0.0) / total_self if total_self else 0.0
    return {
        "upset.normalize.s": s("upset.normalize"),
        "upset.normalize.calls": n("upset.normalize.calls"),
        "upset.normalize.gens_in": n("upset.normalize.gens_in"),
        "upset.normalize.kept_ratio": (kept, "ratio"),
        "upset.normalize.share": (share, "ratio"),
        "dickson.leq.calls": n("dickson.leq.calls"),
        "dickson.join.calls": n("dickson.join.calls"),
        "dickson.monus.calls": n("dickson.monus.calls"),
        "coverability.backward_cover.self_s": s("coverability.backward_cover"),
        "coverability.backward_cover.rounds": n("coverability.backward_cover.rounds"),
        "coverability.pre_step.s": s("coverability.pre_step"),
        "coverability.pre_step.calls": n("coverability.pre_step.calls"),
        "coverability.pre_step.gens_out": n("coverability.pre_step.gens_out"),
        "upset.member.s": s("upset.member"),
        "upset.member.calls": n("upset.member.calls"),
        "upset.includes.s": s("upset.includes"),
        "upset.quotient.s": s("upset.quotient"),
        "words.leq_E.s": (tracer.counts.get("words.leq_E.s", 0.0) * scale / passes, "s"),
        "words.leq_E.calls": n("words.leq_E.calls"),
        "words.phi.calls": n("words.phi.calls"),
        "words.leq_e.calls": n("words.leq_e.calls"),
        "orders.homogeneous_subsequence.s": s("orders.homogeneous_subsequence"),
        "orders.find_good_pair.s": s("orders.find_good_pair"),
        "orders.classify.calls": n("orders.classify.calls"),
        "transport.check_quasi_embedding.s": s("transport.check_quasi_embedding"),
        "transport.check_quasi_embedding.pairs": n("transport.check_quasi_embedding.pairs"),
        "transport.transport_upset.s": s("transport.transport_upset"),
        "cli.run.self_s": s("cli.run"),
        "cli.run.calls": n("cli.run.calls"),
        "coverability.parse_net.s": s("coverability.parse_net"),
        "upset.format_upset_block.s": s("upset.format_upset_block"),
        "upset.parse_upset_block.s": s("upset.parse_upset_block"),
        "upset.intersect_dickson.s": s("upset.intersect_dickson"),
        "upset.phi_slice.s": s("upset.phi_slice"),
        "trace.self_s": (total_self * scale / passes, "s"),
        "trace.ops_per_s": (traced_ops_per_s, "1/s"),
    }
