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
and column as a Python-int bitset over block indices.  One rule-major
first-match pass walks each rule's blocks on the side whose rules cover
fewer blocks in all, so a rule costs one big-int operation per block it
covers there; the other side is the transpose of that pass's result, and
the edges are the set bits of the classes' rows.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import xor

from .errors import ConsistencyError, IllformedService, json_block, json_pairs
from .ruleset import PROTO_NUMBERS
from .semantics import Packet
from .wordinterval import WordInterval, format_interval, ip_format

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


def ip_partition(rules, width) -> list:
    """Partition the `width`-bit address universe by every src/dst set in
    the ruleset; the width has no default, since rules of either family
    would be read without complaint in a wrong one.

    Two addresses share a block iff they lie in the same rule address
    sets, so every block is treated uniformly by the ruleset.  One sweep:
    each distinct CIDR gets one bit, XORed into a toggle map at its base
    and one past its top; walking the sorted boundary points keeps the
    running membership mask and groups the elementary intervals by mask.
    For P boundary points and S distinct sets this is O(P log P) plus P
    mask updates of S bits.  The blocks are those of folding "split every
    block into its parts inside and outside the set" over all sets, in
    ascending order of their minimum: the sweep meets each group first at
    its lowest interval.
    """
    bits = {}
    toggles = {0: 0}
    for r in rules:
        for cidr in (r.match.src, r.match.dst):
            if cidr in bits:
                continue
            bit = bits[cidr] = 1 << len(bits)
            lo, after = cidr.base, (cidr.base | cidr.hostmask()) + 1
            toggles[lo] = toggles.get(lo, 0) ^ bit
            toggles[after] = toggles.get(after, 0) ^ bit
    end = 1 << width
    points = sorted(p for p in toggles if p < end)
    groups = {}
    mask = 0
    for lo, nxt in zip(points, points[1:] + [end]):
        mask ^= toggles[lo]
        groups.setdefault(mask, []).append((lo, nxt - 1))
    # a group's parts come out sorted, and two neighbouring elementary
    # intervals differ in mask, so they are apart as well
    return [WordInterval._canonical(parts, width) for parts in groups.values()]


def _service_applies(m, svc: ServiceTemplate):
    """Does the simple match accept the service's fixed fields (protocol,
    ports), whatever the addresses and interfaces?"""
    return (
        m.proto in (None, svc.protocol)
        and m.sports[0] <= svc.sport <= m.sports[1]
        and m.dports[0] <= svc.dport <= m.dports[1]
    )


def _bits(x):
    """The positions of the set bits of x, in ascending order."""
    return [m.start() for m in re.finditer("1", format(x, "b")[::-1])]


def _first_match(rules, n):
    """One rule-major first-match pass over n blocks on one side.  rules are
    (lo, hi, mask, accept): the rule covers the blocks [lo, hi) of this side
    and the blocks in mask of the other.  Each block keeps the other side's
    blocks still undecided (rem) and accepted (acc), so a rule costs one
    step per block it covers.  Returns acc: a pair that no rule decides
    stays denied."""
    rem, acc = [(1 << n) - 1] * n, [0] * n
    for lo, hi, mask, accept in rules:
        for i in range(lo, hi):
            c = mask & rem[i]
            if c:
                rem[i] ^= c
                if accept:
                    acc[i] |= c
    return acc


def _transpose(lines, n):
    """The columns of the n×n bit matrix with rows `lines`.  The rows are
    grouped by value; each distinct row XORs its group of row indices into
    a difference array at the start and at the end of each of its runs of
    1s, and a prefix XOR adds them up.  The groups are disjoint, so XOR is
    union, and the cost is O(runs + n) big-int operations."""
    groups = {}
    for i, line in enumerate(lines):
        groups[line] = groups.get(line, 0) | 1 << i
    diff = [0] * (n + 1)
    for line, group in groups.items():
        for p in _bits(line ^ line << 1):
            diff[p] ^= group
    return list(accumulate(diff[:n], xor))


def _fast_rows(rules, svc, reps):
    """Rows (accepted destinations of each block) and columns (accepted
    sources) as bitsets over block indices; a pair that no rule decides
    is denied.  reps are the sorted block minima; since the blocks refine
    every rule address set, a CIDR covers the index range [bisect_left of
    its base, bisect_right of its top) of them.

    The first-match pass runs on the side whose rule ranges are shorter in
    total, and the other side is the transpose of its result.  For R rules
    over B blocks this costs the sum, over the rules, of the blocks their
    source (or destination) covers, plus O(runs + B) for the transpose, in
    big-int operations on B-bit ints."""
    spans = {}

    def span(cidr):
        got = spans.get(cidr)
        if got is None:
            lo = bisect_left(reps, cidr.base)
            hi = bisect_right(reps, cidr.base | cidr.hostmask())
            got = spans[cidr] = (lo, hi, (1 << hi) - (1 << lo))
        return got

    applicable = [
        (span(r.match.src), span(r.match.dst), r.accept)
        for r in rules
        if _service_applies(r.match, svc)
    ]
    by_src = sum(s[1] - s[0] for s, _, _ in applicable) <= sum(
        d[1] - d[0] for _, d, _ in applicable)
    walked = [(s, d, a) if by_src else (d, s, a) for s, d, a in applicable]
    lines = _first_match([(lo, hi, mask, a) for (lo, hi, _), (_, _, mask), a in walked],
                         len(reps))
    other = _transpose(lines, len(reps))
    return (lines, other) if by_src else (other, lines)


@dataclass
class AccessMatrix:
    """Minimal behavior classes plus the directed reachability between them
    for one fixed service.  classes maps the representative (minimum)
    address of each class to its full interval; the writers print
    addresses in the family of `width`."""

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

    def to_dot(self):
        width = self.width
        lines = ["digraph access {"]
        for rep in sorted(self.classes):
            label = format_interval(self.classes[rep])
            lines.append(f'  "{ip_format(rep, width)}" [label="{label}"];')
        for a, b in sorted(self.edges):
            lines.append(f'  "{ip_format(a, width)}" -> "{ip_format(b, width)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        """The text of json.dumps(..., indent=2) of the service, the classes
        and the edges, written in one pass.  Its strings are addresses and
        address ranges, which JSON writes without escapes; the edges are
        sorted by integer representative."""
        width = self.width
        name = {rep: ip_format(rep, width) for rep in sorted(self.classes)}
        classes = [
            f'"{text}": ' + json_block(
                [f'"{ip_format(lo, width)}-{ip_format(hi, width)}"'
                 for lo, hi in self.classes[rep].parts], 2)
            for rep, text in name.items()
        ]
        svc = self.service
        return json_block([
            '"service": ' + json_block([f'"protocol": {svc.protocol}', f'"dport": {svc.dport}',
                                        f'"sport": {svc.sport}'], 1, "{}"),
            '"classes": ' + json_block(classes, 1, "{}"),
            '"edges": ' + json_pairs([(name[a], name[b]) for a, b in sorted(self.edges)], 1),
        ], 0, "{}")


def access_matrix(rules, svc: ServiceTemplate, width) -> AccessMatrix:
    """Build the minimal service matrix over the `width`-bit addresses.

    The blocks of ip_partition (ascending by minimum) are numbered, and rows
    and columns are bitsets over block indices (_fast_rows): the cost is
    what the rules cover on the cheaper side, not blocks × rules.  Blocks
    with equal (row, column) merge into one class, and the edges are the
    set bits of each class's first row restricted to the classes' first
    blocks, so K classes and E edges cost K big-int operations plus O(E).
    """
    blocks = ip_partition(rules, width)
    reps = [b.min() for b in blocks]
    rows, cols = _fast_rows(rules, svc, reps)
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
    first_mask = sum(1 << a for a in firsts)
    edges = {(reps[a], reps[b]) for a in firsts for b in _bits(rows[a] & first_mask)}
    return AccessMatrix(classes, edges, svc, width)


def export_matrix(matrix: AccessMatrix, fmt="dot") -> str:
    if fmt == "dot":
        return matrix.to_dot()
    if fmt == "json":
        return matrix.to_json()
    raise ValueError(f"unknown matrix format {fmt!r}")
