"""The 7-tuple simple firewall model and the translation into it.

A simple match is (in, out, src, dst, protocol, src ports, dst ports)
with Accept/Drop rules and first-match semantics.  Negations are gone;
the conjunction of two simple matches is again one simple match, which
is what makes all later analyses tractable.

Preparation walks each unfolded rule's match once into its distinct
Boxes (7 fields with word-interval sets, plus flags for what the model
cannot express), meeting them as Header Space Analysis meets wildcard
cubes.  Interface constraining narrows the boxes; translate_to_simple
closes them under an in-doubt tactic and splits them into CIDRs, each
distinct address set once, so that rules share their Cidr objects.

Its output is a SimpleRules tuple.  The first simple_fw_eval on it
builds the tuple space index that semantics.IndexedRules shares with
unfold's rules (Srinivasan, Suri & Varghese, SIGCOMM 1999): the rules
grouped by their source and destination host bits, each group keyed by
the address prefixes, so that a packet is tested only against the rules
whose address blocks hold it.  Walking any other sequence stays the
definitional first-match evaluation.
"""

from __future__ import annotations

import logging
import dataclasses
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Optional

from . import ruleset as rs
from .errors import IllformedRuleset, TooManyBoxes, UnsupportedResidue
from .ruleset import MNot, MPrim, MTrue, Rule, iface_conj, mand
from .semantics import ALLOW, DENY, UNDECIDED, IndexedRules, Packet, address_block
from .wordinterval import Cidr, WordInterval

log = logging.getLogger(__name__)

PORT_UNIV = (0, 65535)
PORT_PROTOCOLS = (6, 17, 132)  # tcp, udp, sctp
# the distinct boxes one rule may split into; past it preparation fails fast
MAX_BOXES = 1024


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

    def matches(self, p: Packet) -> bool:
        """Whether p lies in the 7-tuple.  The first call compiles the test
        (ruleset.predicate) and caches it on the match, where it shadows
        this method.  The address and port tests are kept for wildcards
        too, so that integers outside the word width never match."""
        c = rs.Params()
        terms = [rs.iface_source(f"p.{name}", pattern, c)
                 for name, pattern in (("iiface", self.iiface), ("oiface", self.oiface))
                 if pattern != "+"]
        terms += [rs.in_set("p.src", self.src.interval(), c),
                  rs.in_set("p.dst", self.dst.interval(), c)]
        if self.proto is not None:
            terms.append(f"p.protocol == {c(self.proto)}")
        terms += [f"{c(lo)} <= p.{name} <= {c(hi)}"
                  for name, (lo, hi) in (("sport", self.sports), ("dport", self.dports))]
        fn = rs.predicate(terms, c)
        object.__setattr__(self, "matches", fn)
        return fn(p)

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


class SimpleRules(IndexedRules):
    """An immutable first-match list of simple rules; a rule's blocks are
    its source and destination Cidrs."""

    def blocks(self, rule):
        return tuple(address_block(c.base, c.base | c.hostmask())
                     for c in (rule.match.src, rule.match.dst))


def _matches(m: SimpleMatch, p: Packet) -> bool:
    return m.matches(p)


def simple_fw_eval(rules, p: Packet) -> str:
    """First-match semantics; Undecided only when no rule matched.

    A SimpleRules answers from its index (IndexedRules.first_match), each
    candidate tested with its own match: a packet lies in a rule's Cidrs
    only if its addresses lie in their blocks.  Any other sequence is
    walked rule by rule."""
    if isinstance(rules, SimpleRules):
        r = rules.first_match(p.src, p.dst, _matches, p)
        if r is None:
            return UNDECIDED
        return ALLOW if r.accept else DENY
    for r in rules:
        if r.match.matches(p):
            return ALLOW if r.accept else DENY
    return UNDECIDED


# -- prepared rules as 7-tuple boxes ---------------------------------------------


@dataclass(frozen=True)
class Box:
    """One part of an unfolded rule's match, a 7-tuple wildcard box.

    iiface/oiface are the conjoined positive interface patterns; src, dst
    and the port sets are word intervals, so a box splits into CIDRs only
    when it is translated.  `unknown` marks a box with a literal it cannot
    express (an Extra, TCP flags, a negated interface, negated protocols
    with no positive one); the closure keeps or drops such a box whole.
    `known` marks a box with at least one literal it does express: a box
    without one is a catch-all once its unknowns are gone.
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


# A Box's fields during the walk: None for an unconstrained set, and the
# protocols as an 8-bit set, so that `! -p tcp` and `! -p udp` stay apart.
# The field sets are named after the Packet attributes the primitives test.
_PreBox = namedtuple("_PreBox", "iiface oiface src dst protos sport dport unknown known")
_TOP = _PreBox("+", "+", None, None, None, None, None, False, False)
_KNOWN = _TOP._replace(known=True)
_PROTOCOLS = [WordInterval.single(n, 8) for n in range(256)]


def _meet(a, b) -> Optional[_PreBox]:
    """a ∩ b, met field by field up to the first empty one (None)."""
    iif, oif = iface_conj(a.iiface, b.iiface), iface_conj(a.oiface, b.oiface)
    if iif is None or oif is None:
        return None
    fields = [iif, oif]
    for i in range(2, 7):  # the five sets
        x, y = a[i], b[i]
        if x is not None and y is not None and x is not y and not (y := x.intersect(y)).parts:
            return None
        fields.append(x if y is None else y)
    fields += (a.unknown or b.unknown, a.known or b.known)
    return _PreBox._make(fields)


def _literal(prim, negated) -> list:
    """The non-empty pre-boxes of one literal; a negated port match is
    `! proto` or proto with the complemented ports."""
    if isinstance(prim, (rs.Extra, rs.TcpFlags)) or (negated and isinstance(prim, rs.Iface)):
        return [_TOP._replace(unknown=True)]
    if isinstance(prim, rs.Iface):
        return [_KNOWN._replace(**{prim.field: prim.name})]
    if isinstance(prim, rs.Addrs):
        boxes = [_KNOWN._replace(**{prim.field: prim.addrs.complement() if negated else prim.addrs})]
    elif isinstance(prim, rs.Protocol):
        proto = _PROTOCOLS[prim.number]
        boxes = [_TOP._replace(protos=proto.complement()) if negated
                 else _KNOWN._replace(protos=proto)]
    elif isinstance(prim, rs.Ports):
        proto = _PROTOCOLS[prim.proto]
        boxes = [_TOP._replace(protos=proto.complement())] if negated else []
        boxes.append(_KNOWN._replace(
            protos=proto, **{prim.field: prim.ports.complement() if negated else prim.ports}))
    else:
        raise UnsupportedResidue(f"{prim!r} must be specialized before translation")
    return [b for b in boxes if all(s is None or s.parts for s in b[2:7])]


def _preboxes(m, negated, memo) -> list:
    """The distinct non-empty pre-boxes of m (of its negation when
    `negated`) in NNF order.  memo maps each literal's and conjunction's
    (id(node), negated) to them, as spoofing._bounds does; the parser
    shares each leaf among the rules, so a literal is read once."""
    if isinstance(m, MNot):
        return _preboxes(m.inner, not negated, memo)
    if m is MTrue:
        return [] if negated else [_TOP]
    key = (id(m), negated)
    got = memo.get(key)
    if got is None and isinstance(m, MPrim):
        got = memo[key] = _literal(m.prim, negated)
    elif got is None:
        left, right = _preboxes(m.left, negated, memo), _preboxes(m.right, negated, memo)
        if negated:  # either operand fails
            got = list(dict.fromkeys(left + right))
        elif len(left) == len(right) == 1:
            got = [c] if (c := _meet(left[0], right[0])) else []
        else:
            got = list(dict.fromkeys(filter(None, (_meet(a, b) for a in left for b in right))))
        if len(got) > MAX_BOXES:
            raise TooManyBoxes(f"more than {MAX_BOXES} distinct boxes")
        memo[key] = got
    return got


def prepare_for_simple(rules, width) -> list:
    """Read an unfolded Accept/Drop rule list into boxes, each rule's
    distinct ones in rule order; any other action raises IllformedRuleset."""
    out, memo, u = [], {}, WordInterval.universe
    for r in rules:
        if r.action.kind not in ("accept", "drop"):
            raise IllformedRuleset("translation needs an Accept/Drop list")
        try:
            preboxes = _preboxes(r.match, False, memo)
        except TooManyBoxes as exc:
            raise TooManyBoxes(f"rule {r.raw!r} splits into {exc}") from None
        for iif, oif, src, dst, protos, sports, dports, unknown, known in preboxes:
            proto = protos.min() if protos and protos.size() == 1 else None
            out.append(Box(iif, oif, src or u(width), dst or u(width), proto, sports or u(16),
                           dports or u(16), r.action.kind == "accept",
                           unknown or (proto is None and protos is not None), known, r.raw))
    return out


def translate_to_simple(boxes, tactic="in_doubt_allow") -> SimpleRules:
    """The closure of a box list under an in-doubt tactic, as simple rules.

    A box with an unknown literal is kept whole when the tactic lets its
    unknowns match (Accepts under in_doubt_allow, Drops under
    in_doubt_deny) and dropped otherwise; the list ends after the first
    kept box without a known literal, which matches every packet.  Each
    kept box becomes one simple rule per CIDR/port-part combination; the
    rules come as a SimpleRules, whose index no translation builds.
    """
    if tactic not in ("in_doubt_allow", "in_doubt_deny"):
        raise ValueError(f"unknown tactic {tactic!r}")
    allow = tactic == "in_doubt_allow"
    out = []
    split = {}  # id of each address set -> (the set, its CIDRs); boxes share sets
    for b in boxes:
        if b.unknown and b.accept != allow:
            continue
        width = b.src.width  # the address width the box was prepared with
        (_, srcs), (_, dsts) = (split.get(id(wi)) or split.setdefault(id(wi), (wi, wi.to_cidrs()))
                                for wi in (b.src, b.dst))
        out.extend(
            SimpleRule(SimpleMatch(width, b.iiface, b.oiface, s, d, b.proto, sp, dp), b.accept)
            for s in srcs for d in dsts
            for sp in b.sports.parts for dp in b.dports.parts
        )
        if not b.known:
            break
    log.info("translated %d boxes into %d simple rules", len(boxes), len(out))
    return SimpleRules(out)


# -- interface / IP correlation ------------------------------------------------


def iface_rewrite(boxes, ipassmt, field="in") -> list:
    """Narrow each box's source (field "in") or destination ("out") to the
    range assigned to its interface pattern.  Names are exact: only a box
    whose pattern is an assigned name is narrowed, so `eth+` is not.
    Output assignments come from routing_to_ipassmt."""
    iface, addr = (rs.IIface, rs.Src) if field == "in" else (rs.OIface, rs.Dst)
    out = []
    for b in boxes:
        assigned = ipassmt.get(getattr(b, iface.field))
        out.append(b if assigned is None else
                   replace(b, **{addr.field: getattr(b, addr.field).intersect(assigned)}))
    return out


def routing_to_ipassmt(routes, width) -> dict:
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
    table = rs.Table({chain: [_as_rule(r) for r in rules]}, {chain: rs.DROP})
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
