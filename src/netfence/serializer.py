"""Emit an iptables ruleset that implements a stateful policy.

The sources are grouped by their set of receivers, the rows of the
policy.  Each distinct row, a row class, gets one user chain that
ACCEPTs each receiver's output interface and destination address part,
and FORWARD jumps each source's input interface and source address part
to its row's chain.  The backflows of the stateful flows get the same
layout inside one chain, `backflows`, which FORWARD enters first behind
one ESTABLISHED state match.  FORWARD's policy is DROP and every
terminal rule is an ACCEPT, so a packet is accepted exactly when some
flow's two bindings match it, and it walks the source jumps and the row
chains they enter instead of one rule per flow.  Every match is spelled
by `ruleset.prim_to_args`, the printer `parse_save` reads back, and the
chains are in `ruleset.table_to_save`'s order: FORWARD, then the user
chains sorted by name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import ruleset as rs
from .errors import IllformedSpec, ParseError, UnboundHost
from .policy import EdgeRows
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
    addresses are written in the family of their set's width.  Every flow
    is written, a reflexive one too.  The row chains of the flows are
    `row-<k>` and those of the backflows `backflow-row-<k>`, numbered in
    the order of their first source in sorted order and zero-padded, so
    that the chains print sorted by number.  A fragmented address set
    gets one rule per part.
    """

    @functools.cache
    def args(host, as_source):
        """The interface and address match of each address part, as text."""
        b = binding[host]
        iface, addr = (rs.IIface, rs.Src) if as_source else (rs.OIface, rs.Dst)
        head = rs.prim_to_args(iface(b.iface))
        parts = (WordInterval((part,), b.addrs.width) for part in b.addrs.parts)
        return [f"{head} {rs.prim_to_args(addr(p))}" for p in parts]

    accept = rs.action_to_args(rs.ACCEPT)
    chains = {}  # the rule bodies of each chain

    def jumps(flows, prefix):
        """The bodies of one rule per address part of each source of
        `flows`, jumping to its row class's chain, which goes in `chains`;
        UnboundHost names the first unbound endpoint in sorted flow order."""
        edges, rows = EdgeRows.of(flows), {}
        for s in edges.sources:
            if row := tuple(edges.row(s)):
                for h in (s, *row):
                    if h not in binding:
                        raise UnboundHost(h)
                rows[s] = row
        targets = dict.fromkeys(rows.values())
        digits = len(str(len(targets) - 1))
        for k, row in enumerate(targets):
            name = f"{prefix}{k:0{digits}}"
            targets[row] = rs.action_to_args(rs.call(name))
            chains[name] = [f"{d} {accept}" for r in row for d in args(r, False)]
        return [f"{a} {targets[row]}" for s, row in rows.items() for a in args(s, True)]

    forward = jumps(t.flows, "row-")
    backflows = {(r, s) for s, r in t.stateful if s != r}  # a reflexive one is its flow
    if backflows:
        chains["backflows"] = jumps(backflows, "backflow-row-")
        established = rs.prim_to_args(rs.CtState(frozenset({"ESTABLISHED"})))
        forward.insert(0, f"{established} {rs.action_to_args(rs.call('backflows'))}")
    order = sorted(chains)
    lines = ["*filter", ":FORWARD DROP [0:0]", *(f":{c} - [0:0]" for c in order)]
    lines += [f"-A FORWARD {body}" for body in forward]
    lines += [f"-A {c} {body}" for c in order for body in chains[c]]
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
