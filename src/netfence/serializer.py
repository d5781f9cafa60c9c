"""Emit an iptables ruleset that implements a stateful policy.

Every flow becomes one ACCEPT rule matching input interface + source
range and output interface + destination range; every stateful flow
additionally permits its reverse direction behind an ESTABLISHED state
match.  The FORWARD chain's default policy is DROP, so rule order is
irrelevant; the ESTABLISHED rules go on top for performance.  Every match
is spelled by `ruleset.prim_to_args`, the printer `parse_save` reads back.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import ruleset as rs
from .errors import IllformedSpec, ParseError, UnboundHost
from .stateful import StatefulPolicy
from .wordinterval import WordInterval, family_width, parse_address_set

# the longest interface name the kernel accepts (IFNAMSIZ - 1)
MAX_IFACE_LEN = 15


@dataclass(frozen=True)
class HostBinding:
    iface: str
    addrs: WordInterval


def emit_iptables(t: StatefulPolicy, binding: dict) -> str:
    """Serialize a stateful policy as iptables-save text for FORWARD.

    `binding` maps each policy host with flows to a HostBinding, whose
    addresses are written in the family of their set's width.  Reflexive
    flows of hosts bound to a single address are in-host traffic and are
    skipped; for one-to-many bindings they become intra-range rules.  A
    fragmented address set gets one rule per part.
    """
    for s, r in sorted(t.flows):
        for h in (s, r):
            if h not in binding:
                raise UnboundHost(h)

    @functools.cache
    def args(host, as_source):
        """The interface and address match of each address part, as text."""
        b = binding[host]
        iface, addr = (rs.IIface, rs.Src) if as_source else (rs.OIface, rs.Dst)
        head = rs.prim_to_args(iface(b.iface))
        parts = (WordInterval((part,), b.addrs.width) for part in b.addrs.parts)
        return [f"{head} {rs.prim_to_args(addr(p))}" for p in parts]

    accept = rs.action_to_args(rs.ACCEPT)
    established = rs.prim_to_args(rs.CtState(frozenset({"ESTABLISHED"}))) + " "

    def rule_lines(src_host, dst_host, state=""):
        return [f"-A FORWARD {s} {d} {state}{accept}"
                for s in args(src_host, True) for d in args(dst_host, False)]

    lines = ["*filter", ":FORWARD DROP [0:0]"]
    for s, r in sorted(t.stateful):
        if s != r:
            lines += rule_lines(r, s, established)
    for s, r in sorted(t.flows):
        if s == r and binding[s].addrs.size() == 1:
            continue  # in-host traffic
        lines += rule_lines(s, r)
    lines.append("COMMIT")
    return "\n".join(lines) + "\n"


def _check_iface(host, iface):
    """Refuse an interface name that `-i` cannot carry back through parse_save."""
    if not (isinstance(iface, str) and 0 < len(iface) <= MAX_IFACE_LEN) or (
        iface[0] in "-!" or any(c.isspace() or c in "'\"\\" for c in iface)
    ):
        raise IllformedSpec(
            f"host binding {host!r}: interface {iface!r} is not a name of 1-"
            f"{MAX_IFACE_LEN} characters without whitespace, quotes or backslashes, "
            "not starting with '-' or '!'")


def binding_from_json(data, family="v4") -> dict:
    """Binding file format: {"Host": {"iface": "eth0", "ips": ["10.0.0.1"]}}.
    The ips list accepts addresses, CIDRs and lo-hi ranges; "all_but"
    complements.  Each host needs a valid interface name and a non-empty
    address set."""
    width = family_width(family)
    out = {}
    try:
        for host, spec in data.items():
            entries = spec.get("ips", [])
            if isinstance(entries, str):
                entries = [entries]
            wi = WordInterval.empty(width)
            for entry in entries:
                try:
                    wi = wi.union(parse_address_set(entry, family))
                except ParseError as exc:
                    raise IllformedSpec(f"host binding {host!r}: {exc}") from None
            if spec.get("all_but"):
                wi = wi.complement()
            _check_iface(host, spec["iface"])
            if wi.is_empty():
                raise IllformedSpec(f"host binding {host!r}: empty address set")
            out[host] = HostBinding(spec["iface"], wi)
    except (AttributeError, KeyError, TypeError) as exc:
        raise IllformedSpec(f"host binding: expected iface and ips per host ({exc!r})") from None
    return out
