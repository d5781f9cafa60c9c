"""Spans around the calls into netfence's layers, recorded from outside.

`Tracer.install` wraps each listed public function in every `netfence.*`
namespace that binds it (so copies made by `from .x import f` are
wrapped too) and the listed methods on their classes.  `uninstall`
restores the originals.  A wrapped function that is already running on
the stack (recursion through its module global) gets a span only for
its outermost call.

A span has a name, a start, an end and a parent.  Self time is a span's
duration minus the time its child spans cover; it is accumulated when
the span closes, so the hot, fine-grained spans (interval operations,
invariant checks) need no record of their own and are kept as counts
and times only.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute) of each traced function; "Class.method" is wrapped
# on the class.
FUNCTIONS = [
    ("netfence.cli", "main"),
    ("netfence.cli", "analyze_pipeline"),
    ("netfence.parser", "parse_save"),
    ("netfence.semantics", "unfold"),
    ("netfence.semantics", "ctstate_specialize"),
    ("netfence.semantics", "normalize_rules"),
    ("netfence.semantics", "closure"),
    ("netfence.simplefw", "iface_rewrite"),
    ("netfence.simplefw", "prepare_for_simple"),
    ("netfence.simplefw", "translate_to_simple"),
    ("netfence.analysis", "ip_partition"),
    ("netfence.analysis", "access_matrix"),
    ("netfence.spoofing", "sp_certify_all"),
    ("netfence.invariants", "set_offending_flows"),
    ("netfence.invariants", "ConfiguredInvariant.holds"),
    ("netfence.policy", "succ_tran"),
    ("netfence.synthesis", "generate_valid_topology"),
    ("netfence.synthesis", "generate_valid_topology3"),
    ("netfence.synthesis", "minimalize_offending_overapprox"),
    ("netfence.synthesis", "policy_diff"),
    ("netfence.stateful", "alpha"),
    ("netfence.stateful", "filter_ifs"),
    ("netfence.stateful", "filter_acs"),
    ("netfence.serializer", "emit_iptables"),
    ("netfence.wordinterval", "WordInterval.intersect"),
    ("netfence.wordinterval", "WordInterval.difference"),
    ("netfence.wordinterval", "WordInterval.union"),
    ("netfence.wordinterval", "WordInterval.__contains__"),
    ("netfence.wordinterval", "WordInterval.to_cidrs"),
]

# Called thousands of times per job: counted and timed, not recorded.
HOT = {"invariants.holds", "policy.succ_tran", "stateful.alpha"}


def span_name(module, attr):
    """netfence.analysis + ip_partition -> analysis.ip_partition; class
    methods drop the class (wordinterval.intersect)."""
    short = module.split(".", 1)[1]
    return f"{short}.{attr.rsplit('.', 1)[-1].strip('_')}"


def _count_rules(name):
    return lambda tracer, args, kwargs, result: tracer.add(f"{name}.rules_out", len(result))


def _stateful_filter(tracer, args, kwargs, result):
    order = kwargs.get("order", args[2] if len(args) > 2 else ())
    tracer.add("stateful.candidates", len(set(order)))
    tracer.add("stateful.selected", len(result))


# Counts taken from a call's arguments and result.
ON_RESULT = {
    "semantics.unfold": _count_rules("semantics.unfold"),
    "semantics.normalize_rules": _count_rules("semantics.normalize_rules"),
    "simplefw.prepare_for_simple": _count_rules("simplefw.prepare_for_simple"),
    "simplefw.translate_to_simple": _count_rules("simplefw.translate_to_simple"),
    "analysis.ip_partition": lambda t, a, k, r: t.add("analysis.ip_partition.blocks", len(r)),
    "analysis.access_matrix":
        lambda t, a, k, r: t.add("analysis.access_matrix.classes", len(r.classes)),
    "serializer.emit_iptables":
        lambda t, a, k, r: t.add("serializer.emit_iptables.lines_out", r.count("\n")),
    "stateful.filter_ifs": _stateful_filter,
    "stateful.filter_acs": _stateful_filter,
}


class Tracer:
    def __init__(self, functions=FUNCTIONS):
        self.functions = functions
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []        # (id, name, start, end, parent id) of recorded spans
        self.missing = []      # listed functions this version of netfence lacks
        self._stack = []       # open spans: [id, name, start, time covered by children]
        self._next_id = 0
        self._patches = []     # (owner, attribute, original)

    def add(self, key, n):
        self.counts[key] += n

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        on_result = ON_RESULT.get(name)
        running = False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal running
            if running:
                return fn(*args, **kwargs)
            running = True
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append([span_id, name, time.perf_counter(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, _, start, covered = stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - covered
                if stack:
                    stack[-1][3] += duration
                if not name.startswith("wordinterval.") and name not in HOT:
                    tracer.spans.append((span_id, name, start, end, parent))
                running = False
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installing ------------------------------------------------------------

    def install(self):
        for module_name, attr in self.functions:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span_name(module_name, attr), original)
            if owner_name:
                self._patch(owner, method, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "netfence" or name.startswith("netfence."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def layer_metrics(tracer):
    """Per-layer numbers of a traced cycle: (value, unit) by metric name."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def per_call(key, name):
        return counts[key] / calls[name] if calls[name] else 0.0

    out = {}
    for name in ("analysis.ip_partition", "analysis.access_matrix", "semantics.normalize_rules",
                 "semantics.ctstate_specialize", "semantics.closure", "simplefw.iface_rewrite",
                 "simplefw.prepare_for_simple", "simplefw.translate_to_simple",
                 "spoofing.sp_certify_all", "parser.parse_save", "semantics.unfold", "cli.main",
                 "invariants.holds", "invariants.set_offending_flows", "policy.succ_tran",
                 "synthesis.generate_valid_topology", "synthesis.generate_valid_topology3",
                 "synthesis.policy_diff", "stateful.filter_ifs", "stateful.filter_acs",
                 "serializer.emit_iptables"):
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("analysis.ip_partition", "parser.parse_save", "semantics.unfold",
                 "cli.analyze_pipeline", "invariants.holds", "invariants.set_offending_flows",
                 "policy.succ_tran", "synthesis.minimalize_offending_overapprox",
                 "stateful.alpha"):
        out[f"{name}.calls"] = (calls[name], "count")
    for op in ("intersect", "difference", "union", "contains", "to_cidrs"):
        out[f"wordinterval.{op}.calls"] = (calls[f"wordinterval.{op}"], "count")
    out["wordinterval.self_s"] = (
        sum(v for k, v in self_s.items() if k.startswith("wordinterval.")), "s")
    for key in ("semantics.normalize_rules.rules_out", "simplefw.prepare_for_simple.rules_out",
                "simplefw.translate_to_simple.rules_out", "semantics.unfold.rules_out",
                "serializer.emit_iptables.lines_out"):
        out[key] = (counts[key], "count")
    blocks = per_call("analysis.ip_partition.blocks", "analysis.ip_partition")
    classes = per_call("analysis.access_matrix.classes", "analysis.access_matrix")
    out["analysis.ip_partition.blocks"] = (blocks, "count")
    out["analysis.access_matrix.classes"] = (classes, "count")
    out["analysis.class_ratio"] = (classes / blocks if blocks else 0.0, "ratio")
    candidates = counts["stateful.candidates"]
    out["stateful.accept_ratio"] = (
        counts["stateful.selected"] / candidates if candidates else 0.0, "ratio")
    return out
