"""The 7-tuple simple firewall model and the translation into it.

A simple match is (in, out, src, dst, protocol, src ports, dst ports)
with Accept/Drop rules and first-match semantics.  Negations are gone;
the conjunction of two simple matches is again one simple match, which
is what makes all later analyses tractable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from . import ruleset as rs
from .errors import (
    ConsistencyError,
    IllformedRuleset,
    UnsupportedResidue,
    ZoneSpanningInterfaces,
)
from .ruleset import (
    MNot,
    MPrim,
    Rule,
    conjuncts,
    iface_conj,
    mand,
    match_iface,
)
from .semantics import ALLOW, DENY, UNDECIDED, Packet, normalize_rules
from .wordinterval import Cidr, WordInterval

log = logging.getLogger(__name__)

PORT_UNIV = (0, 65535)
PORT_PROTOCOLS = (6, 17, 132)  # tcp, udp, sctp


@dataclass(frozen=True)
class SimpleMatch:
    width: int = 32
    iiface: str = "+"
    oiface: str = "+"
    src: Cidr = None
    dst: Cidr = None
    proto: Optional[int] = None  # None matches any protocol
    sports: tuple = PORT_UNIV
    dports: tuple = PORT_UNIV

    def __post_init__(self):
        if self.src is None:
            object.__setattr__(self, "src", Cidr(0, 0, self.width))
        if self.dst is None:
            object.__setattr__(self, "dst", Cidr(0, 0, self.width))
        if (self.sports != PORT_UNIV or self.dports != PORT_UNIV) and (
            self.proto not in PORT_PROTOCOLS
        ):
            raise IllformedRuleset(
                f"port intervals require a tcp/udp/sctp protocol, got {self.proto!r}"
            )

    def is_empty(self):
        return self.sports[0] > self.sports[1] or self.dports[0] > self.dports[1]

    def matches(self, p: Packet) -> bool:
        if self.iiface != "+" and not match_iface(self.iiface, p.iiface):
            return False
        if self.oiface != "+" and not match_iface(self.oiface, p.oiface):
            return False
        # in the block iff no bit above the host bits differs from the base
        src, dst = self.src, self.dst
        if (p.src ^ src.base) >> (src.width - src.prefix):
            return False
        if (p.dst ^ dst.base) >> (dst.width - dst.prefix):
            return False
        if self.proto is not None and p.protocol != self.proto:
            return False
        if not self.sports[0] <= p.sport <= self.sports[1]:
            return False
        return self.dports[0] <= p.dport <= self.dports[1]

    def __str__(self):
        proto = "*" if self.proto is None else rs.PROTO_NAMES.get(self.proto, str(self.proto))
        sp = "*" if self.sports == PORT_UNIV else f"{self.sports[0]}:{self.sports[1]}"
        dp = "*" if self.dports == PORT_UNIV else f"{self.dports[0]}:{self.dports[1]}"
        src = "*" if self.src.prefix == 0 else str(self.src)
        dst = "*" if self.dst.prefix == 0 else str(self.dst)
        return f"({self.iiface}, {self.oiface}, {src}, {dst}, {proto}, {sp}, {dp})"


@dataclass(frozen=True)
class SimpleRule:
    match: SimpleMatch
    accept: bool

    def __str__(self):
        return f"{self.match} {'ACCEPT' if self.accept else 'DROP'}"


def simple_fw_eval(rules, p: Packet) -> str:
    """First-match semantics; Undecided only when no rule matched."""
    for r in rules:
        if r.match.matches(p):
            return ALLOW if r.accept else DENY
    return UNDECIDED


def simple_match_any(width=32) -> SimpleMatch:
    return SimpleMatch(width=width)


def simple_match_conj(a: SimpleMatch, b: SimpleMatch) -> Optional[SimpleMatch]:
    """Conjunction of two simple matches: one match or None (unsatisfiable)."""
    iif = iface_conj(a.iiface, b.iiface)
    oif = iface_conj(a.oiface, b.oiface)
    if iif is None or oif is None:
        return None
    src = a.src.interval().intersect(b.src.interval())
    dst = a.dst.interval().intersect(b.dst.interval())
    if src.is_empty() or dst.is_empty():
        return None
    src_c = src.to_cidrs()
    dst_c = dst.to_cidrs()
    # CIDR intersection is empty or the smaller block of the two
    if len(src_c) != 1 or len(dst_c) != 1:
        raise ConsistencyError(f"CIDR intersection split into {src_c} and {dst_c}")
    if a.proto is None:
        proto = b.proto
    elif b.proto is None or a.proto == b.proto:
        proto = a.proto
    else:
        return None
    sports = (max(a.sports[0], b.sports[0]), min(a.sports[1], b.sports[1]))
    dports = (max(a.dports[0], b.dports[0]), min(a.dports[1], b.dports[1]))
    if sports[0] > sports[1] or dports[0] > dports[1]:
        return None
    return SimpleMatch(a.width, iif, oif, src_c[0], dst_c[0], proto, sports, dports)


# -- preparing real-world rules for translation -------------------------------


_NEG_PROTO_MARK = "~unrepresentable-negated-protocols"
_NEG_IFACE_MARK = "~unrepresentable-negated-interface"
_FLAGS_MARK = "~tcp-flags"


def _compress_rule(m, width):
    """Exact per-rule rewrites plus abstraction of the inexpressible.

    Negated address sets become complements (exact).  Protocol conjuncts
    are merged: several distinct positive protocols kill the rule, one
    positive protocol absorbs compatible negative ones, only-negative
    protocols are inexpressible and become an Unknown marker.  Negated
    interfaces and surviving TCP flag matches also become Unknown markers.
    Returns the rewritten match or None when unsatisfiable.
    """
    pos_protos = set()
    neg_protos = set()
    leaves = []
    for leaf in conjuncts(m):
        negated = isinstance(leaf, MNot)
        node = leaf.inner if negated else leaf
        if not isinstance(node, MPrim):
            raise UnsupportedResidue(f"match is not a flat NNF conjunction: {leaf!r}")
        prim = node.prim
        if isinstance(prim, rs.Protocol):
            (neg_protos if negated else pos_protos).add(prim.number)
            continue
        if isinstance(prim, (rs.SrcPorts, rs.DstPorts, rs.MultiportSrc, rs.MultiportDst)):
            if negated:
                raise UnsupportedResidue("negated ports must be expanded by NNF first")
            pos_protos.add(prim.proto)
            leaves.append(leaf)
            continue
        if isinstance(prim, (rs.Src, rs.Dst)) and negated:
            leaves.append(MPrim(type(prim)(prim.addrs.complement())))
            continue
        if isinstance(prim, (rs.IIface, rs.OIface)) and negated:
            leaves.append(MPrim(rs.Extra(f"{_NEG_IFACE_MARK} {prim.name}")))
            continue
        if isinstance(prim, rs.TcpFlags):
            # flag matches always ride along a -p tcp conjunct in parsed
            # rules; the flags themselves become Unknown for the closure
            leaves.append(MPrim(rs.Extra(_FLAGS_MARK)))
            continue
        if isinstance(prim, rs.CtState):
            raise UnsupportedResidue("conntrack state must be specialized before translation")
        leaves.append(leaf)
    if len(pos_protos) > 1 or (pos_protos & neg_protos):
        return None
    if pos_protos:
        leaves.insert(0, MPrim(rs.Protocol(next(iter(pos_protos)))))
    elif neg_protos:
        names = ",".join(str(n) for n in sorted(neg_protos))
        leaves.insert(0, MPrim(rs.Extra(f"{_NEG_PROTO_MARK} {names}")))
    return mand(*leaves)


def prepare_for_simple(rules, width=32) -> list:
    """NNF-normalize and rewrite an unfolded rule list so that everything
    the simple model cannot express is marked Unknown; run a closure over
    the result before calling translate_to_simple."""
    out = []
    for r in normalize_rules(rules):
        m = _compress_rule(r.match, width)
        if m is None:
            continue
        out.append(Rule(m, r.action, r.raw))
    return out


def translate_to_simple(rules, width=32) -> list:
    """Turn a prepared, closed rule list into simple firewall rules.

    The input is prepare_for_simple's output after a closure, which
    leaves flat conjunctions of positive primitives.  Address sets are
    rebuilt as word intervals and re-split into CIDRs, one output rule
    per CIDR/port-part combination.  Anything left that the simple model
    cannot express raises UnsupportedResidue.
    """
    out = []
    for r in rules:
        if r.action.kind not in ("accept", "drop"):
            raise IllformedRuleset("translation needs an Accept/Drop list")
        out.extend(
            SimpleRule(sm, r.action.kind == "accept") for sm in _collect_simple(r.match, width)
        )
    log.info("translated %d rules into %d simple rules", len(rules), len(out))
    return out


def _collect_simple(m, width):
    iif, oif = "+", "+"
    src = WordInterval.universe(width)
    dst = WordInterval.universe(width)
    proto = None
    sports = WordInterval.universe(16)
    dports = WordInterval.universe(16)
    for leaf in conjuncts(m):
        if not isinstance(leaf, MPrim):
            raise UnsupportedResidue(f"negation survived to translation: {leaf!r}")
        prim = leaf.prim
        if isinstance(prim, rs.Src):
            src = src.intersect(prim.addrs)
        elif isinstance(prim, rs.Dst):
            dst = dst.intersect(prim.addrs)
        elif isinstance(prim, rs.IIface):
            iif = iface_conj(iif, prim.name)
        elif isinstance(prim, rs.OIface):
            oif = iface_conj(oif, prim.name)
        elif isinstance(prim, rs.Protocol):
            if proto is not None and proto != prim.number:
                return
            proto = prim.number
        elif isinstance(prim, rs.PORT_PRIMITIVES):
            if proto is not None and proto != prim.proto:
                return
            proto = prim.proto
            if isinstance(prim, (rs.SrcPorts, rs.MultiportSrc)):
                sports = sports.intersect(prim.ports)
            else:
                dports = dports.intersect(prim.ports)
        else:
            raise UnsupportedResidue(f"cannot express {prim!r} in the simple model")
        if iif is None or oif is None:
            return
    if src.is_empty() or dst.is_empty() or sports.is_empty() or dports.is_empty():
        return
    for src_cidr in src.to_cidrs():
        for dst_cidr in dst.to_cidrs():
            for sp in sports.parts:
                for dp in dports.parts:
                    yield SimpleMatch(width, iif, oif, src_cidr, dst_cidr, proto, sp, dp)


# -- interface / IP correlation ------------------------------------------------


def check_ipassmt_disjoint(ipassmt):
    overlapping = []
    names = sorted(ipassmt)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if not ipassmt[a].isdisjoint(ipassmt[b]):
                overlapping.append((a, b))
    return overlapping


def _ipassmt_range_for(pattern, ipassmt):
    """Union of ranges of all assignment entries the pattern can match."""
    matching = [wi for name, wi in ipassmt.items() if match_iface(pattern, name)]
    if not matching:
        return None
    out = matching[0]
    for wi in matching[1:]:
        out = out.union(wi)
    return out


def iface_rewrite(rules, ipassmt, mode="constrain", field="in") -> list:
    """Replace or constrain interface matches by their assigned IP ranges.

    replace: every interface match becomes the corresponding address
    constraint; requires pairwise-disjoint ranges (no zone-spanning
    interfaces) and a mapping for every interface that occurs.
    constrain: the address constraint is conjoined and the interface match
    kept; a partial ipassmt is fine.  `field` selects whether input or
    output interfaces are rewritten (output rewriting uses an assignment
    derived from the routing table).
    """
    if mode not in ("replace", "constrain"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "replace":
        overlapping = check_ipassmt_disjoint(ipassmt)
        if overlapping:
            raise ZoneSpanningInterfaces(overlapping)
    iface_type = rs.IIface if field == "in" else rs.OIface
    addr_type = rs.Src if field == "in" else rs.Dst

    out = []
    for r in rules:
        new_leaves = []
        for leaf in conjuncts(r.match):
            negated = isinstance(leaf, MNot)
            node = leaf.inner if negated else leaf
            if not (isinstance(node, MPrim) and isinstance(node.prim, iface_type)):
                new_leaves.append(leaf)
                continue
            pattern = node.prim.name
            assigned = _ipassmt_range_for(pattern, ipassmt)
            if mode == "constrain":
                new_leaves.append(leaf)
                if assigned is not None and not negated:
                    new_leaves.append(MPrim(addr_type(assigned)))
                continue
            if assigned is None:
                raise IllformedRuleset(
                    f"replace mode needs an ipassmt entry covering {pattern!r}"
                )
            if negated:
                new_leaves.append(MPrim(addr_type(assigned.complement())))
            else:
                new_leaves.append(MPrim(addr_type(assigned)))
        out.append(Rule(mand(*new_leaves), r.action, r.raw))
    return out


def routing_to_ipassmt(routes, width=32) -> dict:
    """Invert a routing table: per interface, the addresses whose
    longest-prefix-match lookup selects that interface (strict reverse
    path filter semantics)."""
    out = {}
    assigned = WordInterval.empty(width)
    # longest prefix first; ties keep file order
    ordered = sorted(enumerate(routes), key=lambda t: (-t[1][0].prefix, t[0]))
    for _, (cidr, iface) in ordered:
        mine = cidr.interval().difference(assigned)
        out[iface] = out.get(iface, WordInterval.empty(width)).union(mine)
        assigned = assigned.union(cidr.interval())
    return out


# -- emission -------------------------------------------------------------------


def simple_rules_to_save(rules, chain="FORWARD") -> str:
    """Emit simple rules as loadable iptables-save text, default policy DROP."""
    family = "v6" if rules and rules[0].match.width == 128 else "v4"
    table = rs.Table({chain: [_as_rule(r) for r in rules]}, {chain: rs.DROP}, family)
    return rs.table_to_save(table)


def _as_rule(r: SimpleRule) -> Rule:
    """A simple rule as the conjunction of its non-wildcard primitives."""
    m = r.match
    prims = [
        m.iiface != "+" and rs.IIface(m.iiface),
        m.oiface != "+" and rs.OIface(m.oiface),
        m.src.prefix and rs.Src(m.src.interval()),
        m.dst.prefix and rs.Dst(m.dst.interval()),
        m.proto is not None and rs.Protocol(m.proto),
        m.sports != PORT_UNIV and rs.SrcPorts(m.proto, WordInterval.range(*m.sports, 16)),
        m.dports != PORT_UNIV and rs.DstPorts(m.proto, WordInterval.range(*m.dports, 16)),
    ]
    return Rule(mand(*(MPrim(p) for p in prims if p)), rs.ACCEPT if r.accept else rs.DROP)


def simple_rules_table(rules) -> str:
    """The (in, out, src, dst, proto, sports, dports) ACTION text form."""
    return "\n".join(str(r) for r in rules) + ("\n" if rules else "")
