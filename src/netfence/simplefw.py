"""The 7-tuple simple firewall model and the translation into it.

A simple match is (in, out, src, dst, protocol, src ports, dst ports)
with Accept/Drop rules and first-match semantics.  Negations are gone;
the conjunction of two simple matches is again one simple match, which
is what makes all later analyses tractable.

Translation reads every NNF disjunct of an unfolded rule once, into a
Box: the same 7 fields with word-interval address and port sets, plus a
flag for the literals the model cannot express.  Interface constraining
narrows the boxes, and translate_to_simple closes them under an in-doubt
tactic and splits them into CIDRs.
"""

from __future__ import annotations

import logging
import dataclasses
from dataclasses import dataclass, replace
from typing import Optional

from . import ruleset as rs
from .errors import ConsistencyError, IllformedRuleset, UnsupportedResidue
from .ruleset import MNot, MPrim, Rule, conjuncts, iface_conj, mand, match_iface
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


# -- prepared rules as 7-tuple boxes ---------------------------------------------


@dataclass(frozen=True)
class Box:
    """One NNF disjunct of an unfolded rule, read as a 7-tuple wildcard box.

    iiface/oiface are the conjoined positive interface patterns; src, dst
    and the port sets are word intervals, so a box splits into CIDRs only
    when it is translated.  `unknown` marks a disjunct with a literal the
    box cannot express (an Extra, TCP flags, a negated interface, negated
    protocols with no positive one); the closure keeps or drops such a box
    whole.  `known` marks a disjunct with at least one literal the box does
    express: a box without one is a catch-all once its unknowns are gone.
    """

    iiface: str
    oiface: str
    src: WordInterval
    dst: WordInterval
    proto: Optional[int]
    sports: WordInterval
    dports: WordInterval
    accept: bool
    unknown: bool
    known: bool
    raw: Optional[str] = dataclasses.field(default=None, compare=False)


def _read_box(lits, accept, raw, width) -> Optional[Box]:
    """The box of one NNF literal tuple, or None when it matches no packet.

    Negated address sets become complements (exact).  Several distinct
    positive protocols, or a positive one that is also negated, empty the
    box; a positive protocol absorbs the other negated ones.
    """
    iif = oif = "+"  # None once two interface names conflict
    src, dst = WordInterval.universe(width), WordInterval.universe(width)
    sports = dports = WordInterval.universe(16)
    pos_protos, neg_protos = set(), set()
    unknown = known = False
    for lit in lits:
        negated = isinstance(lit, MNot)
        prim = (lit.inner if negated else lit).prim
        if isinstance(prim, (rs.Extra, rs.TcpFlags)) or (
                negated and isinstance(prim, (rs.IIface, rs.OIface))):
            unknown = True
            continue
        # every other literal outlives the closure, but a negated protocol
        # only inside a positive one
        known = known or not (negated and isinstance(prim, rs.Protocol))
        if isinstance(prim, (rs.Src, rs.Dst)):
            addrs = prim.addrs.complement() if negated else prim.addrs
            if isinstance(prim, rs.Src):
                src = src.intersect(addrs)
            else:
                dst = dst.intersect(addrs)
        elif isinstance(prim, rs.IIface):
            iif = iif and iface_conj(iif, prim.name)
        elif isinstance(prim, rs.OIface):
            oif = oif and iface_conj(oif, prim.name)
        elif isinstance(prim, rs.Protocol):
            (neg_protos if negated else pos_protos).add(prim.number)
        elif isinstance(prim, rs.PORT_PRIMITIVES):  # normalize_nnf leaves them positive
            pos_protos.add(prim.proto)
            if isinstance(prim, (rs.SrcPorts, rs.MultiportSrc)):
                sports = sports.intersect(prim.ports)
            else:
                dports = dports.intersect(prim.ports)
        else:
            raise UnsupportedResidue(f"{prim!r} must be specialized before translation")
    if (iif is None or oif is None or len(pos_protos) > 1 or pos_protos & neg_protos
            or any(wi.is_empty() for wi in (src, dst, sports, dports))):
        return None
    proto = next(iter(pos_protos), None)
    return Box(iif, oif, src, dst, proto, sports, dports, accept,
               unknown or (proto is None and bool(neg_protos)), known, raw)


def prepare_for_simple(rules, width=32) -> list:
    """Read an unfolded Accept/Drop rule list into boxes, one per NNF
    disjunct that matches some packet, in rule order."""
    out = []
    for r in normalize_rules(rules):
        if r.action.kind not in ("accept", "drop"):
            raise IllformedRuleset("translation needs an Accept/Drop list")
        box = _read_box(conjuncts(r.match), r.action.kind == "accept", r.raw, width)
        if box is not None:
            out.append(box)
    return out


def translate_to_simple(boxes, tactic="in_doubt_allow", width=32) -> list:
    """The closure of a box list under an in-doubt tactic, as simple rules.

    A box with an unknown literal is kept whole when the tactic lets its
    unknowns match (Accepts under in_doubt_allow, Drops under
    in_doubt_deny) and dropped otherwise; the list ends after the first
    kept box without a known literal, which matches every packet.  Each
    kept box becomes one simple rule per CIDR/port-part combination.
    """
    if tactic not in ("in_doubt_allow", "in_doubt_deny"):
        raise ValueError(f"unknown tactic {tactic!r}")
    allow = tactic == "in_doubt_allow"
    out = []
    for b in boxes:
        if b.unknown and b.accept != allow:
            continue
        out.extend(
            SimpleRule(SimpleMatch(width, b.iiface, b.oiface, s, d, b.proto, sp, dp), b.accept)
            for s in b.src.to_cidrs() for d in b.dst.to_cidrs()
            for sp in b.sports.parts for dp in b.dports.parts
        )
        if not b.known:
            break
    log.info("translated %d boxes into %d simple rules", len(boxes), len(out))
    return out


# -- interface / IP correlation ------------------------------------------------


def iface_rewrite(boxes, ipassmt, field="in") -> list:
    """Narrow each box's source (field "in") or destination ("out") to the
    range assigned to its interface pattern.  Names are exact: only a box
    whose pattern is an assigned name is narrowed, so `eth+` is not.
    Output assignments come from routing_to_ipassmt."""
    out = []
    for b in boxes:
        assigned = ipassmt.get(b.iiface if field == "in" else b.oiface)
        if assigned is None:
            out.append(b)
        elif field == "in":
            out.append(replace(b, src=b.src.intersect(assigned)))
        else:
            out.append(replace(b, dst=b.dst.intersect(assigned)))
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
