"""IP address space partitioning and per-service access matrices.

The partition splits the address universe so that all addresses in one
block are treated identically by a simple-firewall ruleset, as source and
as destination.  The service matrix then merges behaviorally equal blocks
for one fixed service and records which classes may reach which.  Both
ignore interfaces: a rule applies whatever its in and out interface, as
in a simple firewall without interfaces.

Neither step splits intervals pairwise.  The partition is one sweep over
the sorted boundary points of the rule address sets, grouping elementary
intervals by membership bitmask.  The matrix keeps every address set, row
and column as a Python-int bitset over block indices, so one rule costs a
few big-int operations per block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import ConsistencyError, IllformedService
from .ruleset import PROTO_NUMBERS
from .semantics import ALLOW, Packet
from .simplefw import SimpleRule, simple_fw_eval
from .wordinterval import WordInterval, block_mask, format_interval, ip_format

SERVICE_PRESETS = {
    # protocol, destination port, representative client source port
    "ssh": (6, 22, 10000),
    "http": (6, 80, 10000),
}


@dataclass(frozen=True)
class ServiceTemplate:
    """The fixed packet shape a matrix is computed for; only src and dst
    addresses are left free."""

    protocol: int = 6
    dport: int = 22
    sport: int = 10000

    @classmethod
    def preset(cls, name):
        """A named preset (ssh, http) or <proto>:<port>, e.g. udp:53."""
        if ":" not in name:
            if name not in SERVICE_PRESETS:
                raise IllformedService(f"unknown service {name!r}; use ssh, http or proto:port")
            return cls(*SERVICE_PRESETS[name])
        proto_name, _, port = name.partition(":")
        if proto_name not in PROTO_NUMBERS:
            raise IllformedService(f"unknown protocol {proto_name!r} in service {name!r}")
        if not port.isdecimal() or int(port) > 65535:
            raise IllformedService(f"port {port!r} in service {name!r} is not in 0-65535")
        return cls(PROTO_NUMBERS[proto_name], int(port))

    def packet(self, src, dst):
        return Packet(src=src, dst=dst, protocol=self.protocol, sport=self.sport, dport=self.dport)


def ip_partition(rules, width=32) -> list:
    """Partition the address universe by every src/dst set in the ruleset.

    Two addresses share a block iff they lie in the same rule address
    sets, so every block is treated uniformly by the ruleset.  One sweep:
    each distinct set gets one bit, XORed into a toggle map at each part's
    lo and hi + 1; walking the sorted boundary points keeps the running
    membership mask and groups the elementary intervals by mask.  For P
    boundary points and S distinct sets this is O(P log P) plus P mask
    updates of S bits.  The blocks are those of folding "split every block
    into its parts inside and outside the set" over all sets, in another
    order.
    """
    bits = {}
    toggles = {0: 0}
    for r in rules:
        for cidr in (r.match.src, r.match.dst):
            if cidr in bits:
                continue
            bit = bits[cidr] = 1 << len(bits)
            for lo, hi in cidr.interval().parts:
                toggles[lo] = toggles.get(lo, 0) ^ bit
                toggles[hi + 1] = toggles.get(hi + 1, 0) ^ bit
    end = 1 << width
    points = sorted(p for p in toggles if p < end)
    groups = {}
    mask = 0
    for lo, nxt in zip(points, points[1:] + [end]):
        mask ^= toggles[lo]
        groups.setdefault(mask, []).append((lo, nxt - 1))
    return [WordInterval(parts, width) for parts in groups.values()]


def _service_applies(m, svc: ServiceTemplate):
    """Does the simple match accept the service's fixed fields (protocol,
    ports), whatever the addresses and interfaces?"""
    return (
        m.proto in (None, svc.protocol)
        and m.sports[0] <= svc.sport <= m.sports[1]
        and m.dports[0] <= svc.dport <= m.dports[1]
    )


def _accepted(masks, i, side, everything):
    """One first-match pass for block i as source (side 0: the accepted
    destination blocks) or as destination (side 1: the accepted source
    blocks).  None when some blocks stay undecided (no default rule)."""
    accepted, remaining = 0, everything
    for m in masks:
        if not remaining:
            break
        if m[side] >> i & 1:
            covered = m[1 - side] & remaining
            if m[2]:
                accepted |= covered
            remaining &= ~covered
    return None if remaining else accepted


def _fast_rows(rules, svc, reps):
    """Rows (accepted destinations of each block) and columns (accepted
    sources) as bitsets over block indices, or None without a default
    rule.  reps are the sorted block minima; since the blocks refine every
    rule address set, a block lies in a set iff its representative does."""
    masks = {}

    def mask(cidr):
        if cidr not in masks:
            masks[cidr] = block_mask(cidr.interval(), reps)
        return masks[cidr]

    applicable = [
        (mask(r.match.src), mask(r.match.dst), r.accept)
        for r in rules
        if _service_applies(r.match, svc)
    ]
    everything = (1 << len(reps)) - 1
    rows = [_accepted(applicable, i, 0, everything) for i in range(len(reps))]
    cols = [_accepted(applicable, i, 1, everything) for i in range(len(reps))]
    return None if None in rows or None in cols else (rows, cols)


@dataclass
class AccessMatrix:
    """Minimal behavior classes plus the directed reachability between them
    for one fixed service.  classes maps the representative (minimum)
    address of each class to its full interval."""

    classes: dict
    edges: set
    service: ServiceTemplate
    width: int = 32

    def class_of(self, address):
        for rep, wi in self.classes.items():
            if address in wi:
                return rep
        raise KeyError(address)

    def allows(self, src, dst):
        return (self.class_of(src), self.class_of(dst)) in self.edges

    def family(self):
        return "v6" if self.width == 128 else "v4"

    def to_dot(self):
        fam = self.family()
        lines = ["digraph access {"]
        for rep in sorted(self.classes):
            label = format_interval(self.classes[rep], fam)
            lines.append(f'  "{ip_format(rep, fam)}" [label="{label}"];')
        for a, b in sorted(self.edges):
            lines.append(f'  "{ip_format(a, fam)}" -> "{ip_format(b, fam)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        fam = self.family()
        return json.dumps(
            {
                "service": {
                    "protocol": self.service.protocol,
                    "dport": self.service.dport,
                    "sport": self.service.sport,
                },
                "classes": {
                    ip_format(rep, fam): [
                        f"{ip_format(lo, fam)}-{ip_format(hi, fam)}"
                        for lo, hi in self.classes[rep].parts
                    ]
                    for rep in sorted(self.classes)
                },
                "edges": [
                    [ip_format(a, fam), ip_format(b, fam)] for a, b in sorted(self.edges)
                ],
            },
            indent=2,
        )


def access_matrix(rules, svc: ServiceTemplate, width=32) -> AccessMatrix:
    """Build the minimal service matrix.

    The blocks of ip_partition, sorted by minimum, are numbered, and each
    rule address set becomes an int bitset over block indices (bisect over
    the minima, once per distinct set).  Each block's row and column is one
    first-match pass over the rules that match the service's fixed fields,
    so B blocks and R rules cost O(B·R) operations on B-bit ints.  Without
    a default rule the rows come from _slow_rows, O(B²·R).  Blocks with
    equal (row, column) merge into one class, and the edges are read off
    the rows.
    """
    blocks = sorted(ip_partition(rules, width), key=WordInterval.min)
    reps = [b.min() for b in blocks]
    rows, cols = _fast_rows(rules, svc, reps) or _slow_rows(rules, svc, reps)
    groups = {}
    for i, signature in enumerate(zip(rows, cols)):
        groups.setdefault(signature, []).append(i)
    classes = {
        reps[members[0]]: WordInterval([p for i in members for p in blocks[i].parts], width)
        for members in groups.values()
    }
    if not WordInterval([p for wi in classes.values() for p in wi.parts], width).is_universe():
        raise ConsistencyError("matrix classes do not cover the address space")
    if sum(wi.size() for wi in classes.values()) != 1 << width:
        raise ConsistencyError("matrix classes overlap")
    firsts = [members[0] for members in groups.values()]
    edges = {(reps[a], reps[b]) for a in firsts for b in firsts if rows[a] >> b & 1}
    return AccessMatrix(classes, edges, svc, width)


def _slow_rows(rules, svc, reps):
    """Rows and columns as in _fast_rows, from simple_fw_eval on every pair
    of representatives with the rules' interfaces wildcarded: O(B²·R), for
    rulesets without a default rule."""
    rules = [SimpleRule(replace(r.match, iiface="+", oiface="+"), r.accept) for r in rules]
    rows, cols = [0] * len(reps), [0] * len(reps)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            # an Undecided verdict counts as deny here
            if simple_fw_eval(rules, svc.packet(a, b)) == ALLOW:
                rows[i] |= 1 << j
                cols[j] |= 1 << i
    return rows, cols


def export_matrix(matrix: AccessMatrix, fmt="dot") -> str:
    if fmt == "dot":
        return matrix.to_dot()
    if fmt == "json":
        return matrix.to_json()
    raise ValueError(f"unknown matrix format {fmt!r}")
