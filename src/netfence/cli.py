"""Command line interface: `netfence analyze` and `netfence synthesize`.

analyze runs the ruleset pipeline over an iptables-save dump.  Parsing,
unfolding, state specialization, preparation (one walk over each match
into its distinct 7-tuple boxes) and interface constraining run once;
the closure with translation, partition and service matrix run once per
in-doubt tactic; spoofing certification reads the same unfolded rules.
synthesize goes the other way: verify or construct policies from an
invariant specification and serialize them as iptables rules.

Exit codes: 0 success, 1 usage, input or processing error, 2 certification
failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import analysis, parser, semantics, simplefw, spoofing
from .errors import NetfenceError, TooLargeForBruteForce, UnreadableInput, UsageError, load_json
from .invariants import all_hold, all_phi
from .policy import PolicyGraph
from .serializer import binding_from_json, emit_iptables
from .stateful import StatefulPolicy, generate_stateful
from .synthesis import ClassRows, generate_valid_topology3, policy_diff
from .templates import load_invariants
from .wordinterval import WordInterval, family_width


def _read_input(path):
    """The text of an input file; a file that cannot be read is an input error."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UnreadableInput(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise UnreadableInput(f"cannot read {path}: not a text file") from None


def _default_ipassmt(family):
    """Loopback is always known: lo carries 127.0.0.0/8 (::1 for v6)."""
    if family == "v6":
        return {"lo": WordInterval.single(1, 128)}
    return {"lo": WordInterval.range(0x7F000000, 0x7FFFFFFF, 32)}


def analyze_pipeline(
    save_text,
    family="v4",
    chain="FORWARD",
    ipassmt=None,
    routing=None,
    service="ssh",
    tactic="in_doubt_allow",
    assumed_state="NEW",
):
    """parse -> unfold -> ctstate -> prepare boxes -> interface
    constraining (in, then out from the routing table), which no tactic
    changes, then the tactic's closure and translation -> partition ->
    matrix.  Returns a result namespace dict; its `prepared` box list is
    what closure_results reads for another tactic."""
    width = family_width(family)
    svc = analysis.ServiceTemplate.preset(service)
    table = parser.parse_save(save_text, family)
    unfolded = semantics.unfold(table, chain)
    prepared = simplefw.prepare_for_simple(
        semantics.ctstate_specialize(unfolded, assumed_state), width
    )
    assignment = {**_default_ipassmt(family), **(ipassmt or {})}
    prepared = simplefw.iface_rewrite(prepared, assignment, field="in")
    if routing:
        prepared = simplefw.iface_rewrite(prepared, simplefw.routing_to_ipassmt(routing, width),
                                          field="out")
    return {
        "table": table,
        "unfolded": unfolded,
        "prepared": prepared,
        **closure_results(prepared, tactic, svc, width),
    }


def closure_results(prepared, tactic, svc, width):
    """The tactic-dependent tail of analyze_pipeline: closure and
    translation -> partition -> matrix over a prepared box list, for the
    service template `svc`."""
    simple = simplefw.translate_to_simple(prepared, tactic)
    return {
        "simple": simple,
        "matrix": analysis.access_matrix(simple, svc, width),
        "partition": analysis.ip_partition(simple, width),
    }


def _cmd_analyze(args):
    if args.spoofing and not args.ipassmt:
        raise UsageError("--spoofing requires --ipassmt")
    svc = analysis.ServiceTemplate.preset(args.service)  # a bad --service fails before parsing
    family = args.family
    save_text = _read_input(args.input)
    ipassmt = None
    if args.ipassmt:
        ipassmt = parser.parse_ipassmt(_read_input(args.ipassmt), family)
    routing = None
    if args.routing:
        routing = parser.parse_routing(_read_input(args.routing), family)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tactics = {"upper": "in_doubt_allow", "lower": "in_doubt_deny"}
    result = None
    for label in tactics if args.closure == "both" else [args.closure]:
        tactic = tactics[label]
        if result is None:
            result = analyze_pipeline(save_text, family=family, chain=args.chain,
                                      ipassmt=ipassmt, routing=routing,
                                      service=args.service, tactic=tactic)
        else:  # the second tactic reuses the first run's prepared rules
            result.update(closure_results(result["prepared"], tactic, svc, family_width(family)))
        print(f"[{label}] {len(result['unfolded'])} unfolded rules, "
              f"{len(result['simple'])} simple rules, "
              f"{len(result['partition'])} partition blocks, "
              f"{len(result['matrix'].classes)} matrix classes")
        if args.emit == "table":
            (out_dir / f"rules-{label}.txt").write_text(
                simplefw.simple_rules_table(result["simple"])
            )
        else:
            (out_dir / f"matrix-{label}.{args.emit}").write_text(
                analysis.export_matrix(result["matrix"], args.emit)
            )

    if not args.spoofing:
        return 0
    field = "out" if args.chain == "OUTPUT" else "in"
    verdicts = spoofing.sp_certify_all(result["unfolded"], ipassmt, field)
    if not verdicts:
        print("warning: the ipassmt assigns no interface; nothing to certify", file=sys.stderr)
    for v in verdicts.values():
        print(v.report_line())
    return 0 if all(v.certified for v in verdicts.values()) else 2


def _cmd_synthesize(args):
    if args.verify and not args.policy:
        raise UsageError("--verify requires --policy")
    invariants = load_invariants(_read_input(args.invariants))
    if args.policy:
        manual = PolicyGraph.from_json(_read_input(args.policy))
        nodes = manual.nodes
    else:
        manual = None
        nodes = {h for inv in invariants for h in inv.attr_map.partial}
        if not nodes:
            raise UsageError("no hosts found in the invariant specification")
    binding = None
    if args.emit_iptables:
        binding = binding_from_json(load_json(_read_input(args.emit_iptables), "host binding"),
                                    args.family)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.verify or args.construct or manual is None:
        try:
            maximum = PolicyGraph(frozenset(nodes), ClassRows(invariants, nodes))
        except TooLargeForBruteForce:
            if args.verify:
                raise
            # past the brute-force bound, one valid policy stands in for the maximum
            maximum = generate_valid_topology3(invariants, PolicyGraph.of(nodes).allow_all())
    if args.verify:
        report = all_hold(invariants, manual, maximum.edges.class_of)
        diff = policy_diff(manual, invariants, maximum.edges, report)
        (out_dir / "verify.json").write_text(report.to_json())
        (out_dir / "diff.dot").write_text(diff.to_dot(manual))
        print(f"verify: {'OK' if report.overall else 'VIOLATED'}; "
              f"{len(diff.violating)} violating, {len(diff.absent)} absent flows")
        if not report.overall:
            return 2

    graph = maximum if manual is None else manual  # later steps run on the supplied policy if any
    if args.construct or manual is None:
        if not maximum.edges:  # a non-Phi maximum may drop flows a satisfying policy keeps
            print("warning: invariants are contradictory, policy is deny-all" if all_phi(invariants)
                  else "warning: policy is deny-all; with a non-Phi invariant the invariants may "
                  "still be satisfiable", file=sys.stderr)
        (out_dir / "policy.json").write_text(maximum.to_json())
        (out_dir / "policy.dot").write_text(maximum.to_dot())
        print(f"constructed policy with {len(maximum.edges)} flows")

    stateful_policy = StatefulPolicy(graph.nodes, graph.edges, frozenset())
    if args.stateful:
        stateful_policy = generate_stateful(graph, invariants)
        (out_dir / "stateful.json").write_text(stateful_policy.to_json())
        (out_dir / "stateful.dot").write_text(stateful_policy.to_dot())
        print(f"stateful policy: {len(stateful_policy.stateful)} stateful flows")

    if binding is not None:
        (out_dir / "ruleset.iptables").write_text(emit_iptables(stateful_policy, binding))
        print(f"wrote {out_dir / 'ruleset.iptables'}")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a UsageError (one `error:` line, exit code
    1) instead of argparse's exit code 2, which means certification
    failure here."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_arg_parser():
    ap = _ArgumentParser(prog="netfence")
    sub = ap.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="analyze an iptables-save dump")
    an.add_argument("--input", required=True, help="iptables-save file")
    an.add_argument("--family", choices=("v4", "v6"), default="v4")
    an.add_argument("--chain", default="FORWARD", choices=("FORWARD", "INPUT", "OUTPUT"))
    an.add_argument("--ipassmt", help="interface address assignment file")
    an.add_argument("--routing", help="routing table file (output iface rewriting)")
    an.add_argument("--service", default="ssh", help="ssh | http | <proto>:<port>")
    an.add_argument("--spoofing", action="store_true", help="certify spoofing protection")
    an.add_argument("--emit", choices=("dot", "json", "table"), default="dot")
    an.add_argument("--closure", choices=("upper", "lower", "both"), default="upper")
    an.add_argument("--out-dir", default="out")
    an.set_defaults(func=_cmd_analyze)

    sy = sub.add_parser("synthesize", help="construct policies from invariants")
    sy.add_argument("--invariants", required=True, help="invariant spec (JSON)")
    sy.add_argument("--policy", help="manual policy graph (JSON)")
    sy.add_argument("--verify", action="store_true", help="check the manual policy")
    sy.add_argument("--construct", action="store_true", help="compute the maximum policy")
    sy.add_argument("--stateful", action="store_true", help="compute the stateful policy")
    sy.add_argument("--emit-iptables", help="host binding file (JSON); writes a ruleset")
    sy.add_argument("--family", choices=("v4", "v6"), default="v4")
    sy.add_argument("--out-dir", default="out")
    sy.set_defaults(func=_cmd_synthesize)
    return ap


@functools.cache
def _arg_parser():
    """build_arg_parser()'s parser, built on the first call to main and
    kept for every later call in the process."""
    return build_arg_parser()


def main(argv=None):
    try:
        args = _arg_parser().parse_args(argv)
        return args.func(args)
    except NetfenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
