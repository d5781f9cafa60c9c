"""Emit an iptables ruleset that implements a stateful policy.

Every flow becomes one ACCEPT rule matching input interface + source
range and output interface + destination range; every stateful flow
additionally permits its reverse direction behind an ESTABLISHED state
match.  The chain's default policy is DROP, so rule order is irrelevant
and the ESTABLISHED rules can go on top for performance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IllformedSpec, UnboundHost
from .stateful import StatefulPolicy
from .wordinterval import WordInterval, ip_format


@dataclass(frozen=True)
class HostBinding:
    iface: str
    addrs: WordInterval


def _addr_args(flag, module_flag, wi, family):
    """-s/-d when the range is one CIDR, the iprange module otherwise."""
    cidrs = wi.to_cidrs()
    if len(cidrs) == 1:
        return [f"{flag} {cidrs[0]}"]
    out = []
    for lo, hi in wi.parts:
        out.append(f"-m iprange {module_flag} {ip_format(lo, family)}-{ip_format(hi, family)}")
    return out


def emit_iptables(
    t: StatefulPolicy,
    binding: dict,
    chain: str = "FORWARD",
    established_first: bool = True,
    family: str = "v4",
) -> str:
    """Serialize a stateful policy as iptables-save text.

    `binding` maps each policy host with flows to a HostBinding.  Reflexive
    flows of hosts bound to a single address are in-host traffic and are
    skipped; for one-to-many bindings they become intra-range rules.
    """
    for s, r in sorted(t.flows):
        for h in (s, r):
            if h not in binding:
                raise UnboundHost(h)

    def rule_lines(src_host, dst_host, established):
        src, dst = binding[src_host], binding[dst_host]
        state = "-m state --state ESTABLISHED " if established else ""
        lines = []
        for s_arg in _addr_args("-s", "--src-range", src.addrs, family):
            for d_arg in _addr_args("-d", "--dst-range", dst.addrs, family):
                lines.append(
                    f"-i {src.iface} {s_arg} -o {dst.iface} {d_arg} {state}-j ACCEPT"
                )
        return lines

    plain = []
    for s, r in sorted(t.flows):
        if s == r and binding[s].addrs.size() == 1:
            continue  # reflexive rule of a one-to-one binding: in-host traffic
        plain.extend(rule_lines(s, r, established=False))
    answers = []
    for s, r in sorted(t.stateful):
        if s == r:
            continue
        answers.extend(rule_lines(r, s, established=True))

    lines = ["*filter", f":{chain} DROP [0:0]"]
    if established_first:
        lines += [f"-A {chain} {body}" for body in answers]
        lines += [f"-A {chain} {body}" for body in plain]
    else:
        lines += [f"-A {chain} {body}" for body in plain]
        lines += [f"-A {chain} {body}" for body in answers]
    lines.append("COMMIT")
    return "\n".join(lines) + "\n"


def binding_from_json(data, family="v4") -> dict:
    """Binding file format: {"Host": {"iface": "eth0", "ips": ["10.0.0.1"]}}.
    The ips list accepts CIDRs and lo-hi ranges; "all_but" complements."""
    from .wordinterval import family_width, parse_address_set

    width = family_width(family)
    out = {}
    try:
        for host, spec in data.items():
            entries = spec.get("ips", [])
            if isinstance(entries, str):
                entries = [entries]
            wi = WordInterval.empty(width)
            for entry in entries:
                wi = wi.union(parse_address_set(entry, family))
            if spec.get("all_but"):
                wi = wi.complement()
            out[host] = HostBinding(spec["iface"], wi)
    except (AttributeError, KeyError, TypeError) as exc:
        raise IllformedSpec(f"host binding: expected iface and ips per host ({exc!r})") from None
    return out
