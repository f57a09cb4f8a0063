"""Per-layer tracing of crosscap from outside the library.

The tracer wraps each public function named below wherever a crosscap
module binds it (`crosscap.<module>.<name>`), so calls between modules are
seen as well as the benchmark's own calls.  Every wrapped call records a
span (name, start, end, parent span, span id, operation id) in memory; a
few functions are only counted, because they are so short that their
wrapped time would be mostly wrapper overhead.  `uninstall` puts every
original back.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from itertools import count
from time import perf_counter

SPANNED = (
    "cli.main",
    "words.parse_word",
    "words.induced_matrix",
    "words.decide_extendable",
    "gmform.preserves_q",
    "gmform.q_table",
    "groupops.subgroup_closure",
    "groupops.enumerate_orthogonal",
    "groupops.factorize",
    "groupops.verify_generation",
    "groupops.standard_generators",
    "groupops.reduce_q2_vector",
    "groupops.reduce_isotropic_pair",
    "rewrite.reduce_rseq",
    "rewrite.reduce_alpha",
    "rewrite.classify_rseq_components",
    "rewrite.verify_rule_consistency",
)

# counted only: function path -> counter name
COUNTED = {
    "f2core.compose": "f2core.compose.calls",
    "f2core.transvection": "f2core.transvection.calls",
}
# counted methods: (module, class, attribute) -> counter name.  Every
# H1Matrix construction runs its rank check, so `built` counts those too.
COUNTED_METHODS = {
    ("f2core", "H1Matrix", "__init__"): "f2core.H1Matrix.built",
    ("f2core", "H1Matrix", "inverse"): "f2core.H1Matrix.inverse.calls",
}


def _word_arg(args, kwargs):
    return args[0] if args else kwargs["word"]


# work counts read off a call's arguments and result: span -> (field, amount)
EXTRAS = {
    "words.parse_word": lambda a, k, r: (("letters", len(r.letters)),),
    "words.induced_matrix": lambda a, k, r: (("letters", len(_word_arg(a, k).letters)),),
    "gmform.preserves_q": lambda a, k, r: (
        (f"{r.mode}_calls", 1),
        ("witness_found", int(r.witness is not None)),
    ),
    "groupops.subgroup_closure": lambda a, k, r: (("elements", r.order),),
    "groupops.enumerate_orthogonal": lambda a, k, r: (("elements", r.order),),
    "groupops.factorize": lambda a, k, r: (("explored", r.explored), ("found", int(r.found))),
    "groupops.reduce_q2_vector": lambda a, k, r: (("moves", len(r.moves)),),
    "groupops.reduce_isotropic_pair": lambda a, k, r: (("moves", len(r.moves)),),
    "rewrite.reduce_rseq": lambda a, k, r: (("steps", len(r.steps)),),
    "rewrite.reduce_alpha": lambda a, k, r: (("steps", len(r.steps)),),
    "rewrite.verify_rule_consistency": lambda a, k, r: (("instances", r.instances_checked),),
}


def _metric(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, "better": better}


LAYER_METRICS = [
    _metric("cli.main.calls", "count"),
    _metric("cli.main.self_s", "s"),
    _metric("words.parse_word.calls", "count"),
    _metric("words.parse_word.self_s", "s"),
    _metric("words.parse_word.letters", "count"),
    _metric("words.parse_word.calls_per_op", "ratio"),
    _metric("words.induced_matrix.calls", "count"),
    _metric("words.induced_matrix.self_s", "s"),
    _metric("words.induced_matrix.letters", "count"),
    _metric("words.decide_extendable.calls", "count"),
    _metric("words.decide_extendable.self_s", "s"),
    _metric("gmform.preserves_q.calls", "count"),
    _metric("gmform.preserves_q.self_s", "s"),
    _metric("gmform.preserves_q.exhaustive_calls", "count"),
    _metric("gmform.preserves_q.basis_calls", "count", "higher"),
    _metric("gmform.preserves_q.witness_found", "count"),
    _metric("gmform.q_table.calls", "count"),
    _metric("gmform.q_table.self_s", "s"),
    _metric("f2core.H1Matrix.built", "count"),
    _metric("f2core.compose.calls", "count"),
    _metric("f2core.transvection.calls", "count"),
    _metric("f2core.H1Matrix.inverse.calls", "count"),
    _metric("groupops.subgroup_closure.calls", "count"),
    _metric("groupops.subgroup_closure.self_s", "s"),
    _metric("groupops.subgroup_closure.elements", "count"),
    _metric("groupops.enumerate_orthogonal.calls", "count"),
    _metric("groupops.enumerate_orthogonal.self_s", "s"),
    _metric("groupops.enumerate_orthogonal.elements", "count"),
    _metric("groupops.factorize.calls", "count"),
    _metric("groupops.factorize.self_s", "s"),
    _metric("groupops.factorize.explored", "count"),
    _metric("groupops.factorize.explored_per_found", "ratio"),
    _metric("groupops.verify_generation.calls", "count"),
    _metric("groupops.verify_generation.self_s", "s"),
    _metric("groupops.standard_generators.calls", "count"),
    _metric("groupops.standard_generators.self_s", "s"),
    _metric("groupops.reduce_q2_vector.calls", "count"),
    _metric("groupops.reduce_q2_vector.self_s", "s"),
    _metric("groupops.reduce_q2_vector.moves", "count"),
    _metric("groupops.reduce_isotropic_pair.calls", "count"),
    _metric("groupops.reduce_isotropic_pair.self_s", "s"),
    _metric("groupops.reduce_isotropic_pair.moves", "count"),
    _metric("rewrite.reduce_rseq.calls", "count"),
    _metric("rewrite.reduce_rseq.self_s", "s"),
    _metric("rewrite.reduce_rseq.steps", "count"),
    _metric("rewrite.reduce_alpha.calls", "count"),
    _metric("rewrite.reduce_alpha.self_s", "s"),
    _metric("rewrite.reduce_alpha.steps", "count"),
    _metric("rewrite.classify_rseq_components.calls", "count"),
    _metric("rewrite.classify_rseq_components.self_s", "s"),
    _metric("rewrite.verify_rule_consistency.calls", "count"),
    _metric("rewrite.verify_rule_consistency.self_s", "s"),
    _metric("rewrite.verify_rule_consistency.instances", "count"),
    _metric("trace.ops_per_s", "ops/s", "higher"),
    _metric("trace.untraced_ops_per_s", "ops/s", "higher"),
    _metric("trace.overhead_frac", "ratio"),
]


def _module(short: str):
    return sys.modules[f"crosscap.{short}"]


def _crosscap_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "crosscap" or name.startswith("crosscap."))
    ]


def installed_wrappers() -> list[str]:
    """Names of crosscap attributes that are still tracing wrappers."""
    owners = _crosscap_modules()
    owners += [getattr(_module(mod), cls) for mod, cls, _ in COUNTED_METHODS]
    return [
        f"{getattr(o, '__name__', o)}.{attr}"
        for o in owners
        for attr, value in vars(o).items()
        if getattr(value, "__perfbench_wrapper__", False)
    ]


class Tracer:
    """Spans and counters of one traced session; `op` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._ids = count()
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        wrappers = {}
        for path in SPANNED:
            mod, name = path.split(".")
            orig = getattr(_module(mod), name)
            wrappers[id(orig)] = (orig, self._span(path, orig))
        for path, key in COUNTED.items():
            mod, name = path.split(".")
            orig = getattr(_module(mod), name)
            wrappers[id(orig)] = (orig, self._count(key, orig))
        for module in _crosscap_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for (mod, cls, attr), key in COUNTED_METHODS.items():
            owner = getattr(_module(mod), cls)
            self._patch(owner, attr, self._count(key, vars(owner)[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _span(self, name: str, fn):
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counts
        extra = EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((name, start, end, parent, sid, tracer.op))
            if extra is not None:
                for field, amount in extra(args, kwargs, result):
                    counts[f"{name}.{field}"] += amount
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def layer_metrics(self, batch_ops: int) -> dict[str, float]:
        """Calls, self time and work counts for every LAYER_METRICS name
        except the trace.* overhead figures, which the caller measures.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        batch_parses = 0
        for name, start, end, _, sid, op in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
            if name == "words.parse_word" and isinstance(op, int):
                batch_parses += 1
        counts = self.counts
        found = counts["groupops.factorize.found"]
        derived = {
            "words.parse_word.calls_per_op": batch_parses / batch_ops if batch_ops else 0.0,
            "groupops.factorize.explored_per_found": (
                counts["groupops.factorize.explored"] / found if found else 0.0
            ),
        }
        out = {}
        for m in LAYER_METRICS:
            name = m["name"]
            base, _, field = name.rpartition(".")
            if name.startswith("trace."):
                continue
            if name in derived:
                out[name] = derived[name]
            elif field == "calls" and base in SPANNED:
                out[name] = calls[base]
            elif field == "self_s":
                out[name] = self_s[base]
            else:
                out[name] = counts[name]
        return out
