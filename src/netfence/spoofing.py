"""Certify spoofing protection of an unfolded ruleset, per interface.

One walk over each rule's match bounds the sources with which some packet
on the interface may match it (over) and with which all do (under); a
conjunction intersects both bounds, a negation complements and swaps
them, and the certified side's interface literals are decided exactly.
The certifier folds the rule list once into A, the Accepts' over, and D,
the Drops' under outside A: the interface is certified when A minus D
stays inside its assigned range.  Sound but deliberately incomplete in
the presence of unknown matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import ruleset as rs
from .errors import IfaceNotInIpassmt, MissingFinalRule
from .ruleset import MAnd, MNot, MTrue, match_iface
from .wordinterval import WordInterval, format_interval


@dataclass
class SpoofVerdict:
    iface: str
    certified: bool
    failing_rule: Optional[int] = None   # first rule index where A \ D escapes
    residual: Optional[WordInterval] = None

    def report_line(self, family="v4"):
        if self.certified:
            return f"{self.iface}: CERTIFIED"
        where = f" at rule #{self.failing_rule}" if self.failing_rule is not None else ""
        extra = ""
        if self.residual is not None and not self.residual.is_empty():
            extra = f" (residual range {format_interval(self.residual, family)})"
        return f"{self.iface}: FAIL{where}{extra}"


def _bounds(m, iface, side, width, memo):
    """(over, under) of match m on `iface`, whose interface literals are
    those of type `side`.  memo maps id(node) to its pair, so a subtree
    that unfolding shares among rules is bounded once."""
    got = memo.get(id(m))
    if got is not None:
        return got
    everything, nothing = WordInterval.universe(width), WordInterval.empty(width)
    if isinstance(m, MAnd):
        (over, under), (over_r, under_r) = (_bounds(m.left, iface, side, width, memo),
                                            _bounds(m.right, iface, side, width, memo))
        got = over.intersect(over_r), under.intersect(under_r)
    elif isinstance(m, MNot):
        over, under = _bounds(m.inner, iface, side, width, memo)
        got = under.complement(), over.complement()
    elif m is MTrue:
        got = everything, everything
    elif isinstance(m.prim, rs.Src):
        got = m.prim.addrs, m.prim.addrs
    elif isinstance(m.prim, side):
        got = (everything, everything) if match_iface(m.prim.name, iface) else (nothing, nothing)
    else:  # holds for some packets, as far as the source tells
        got = everything, nothing
    memo[id(m)] = got
    return got


def _certify(rules, iface, allowed_range, field) -> SpoofVerdict:
    width = allowed_range.width
    side = rs.IIface if field == "in" else rs.OIface
    memo = {}
    acc = deny = WordInterval.empty(width)
    failing = None
    for idx, rule in enumerate(rules):
        over, under = _bounds(rule.match, iface, side, width, memo)
        if rule.action.kind == "accept":
            acc = acc.union(over)
        else:
            deny = deny.union(under.difference(acc))
        if failing is None and not acc.difference(deny).issubset(allowed_range):
            failing = idx
    residual = acc.difference(deny).difference(allowed_range)
    return SpoofVerdict(iface, True) if residual.is_empty() else \
        SpoofVerdict(iface, False, failing, residual)


def sp_certify(rules, iface, ipassmt, field="in") -> SpoofVerdict:
    """Certify one interface of an unfolded Accept/Drop rule list.

    The list must end in an explicit catch-all rule (the unfolded default
    policy guarantees this).  `field` selects which interface side the
    certification is about: "in" for INPUT/FORWARD, "out" for OUTPUT.
    """
    if iface not in ipassmt:
        raise IfaceNotInIpassmt(iface)
    return sp_certify_all(rules, {iface: ipassmt[iface]}, field)[iface]


def sp_certify_all(rules, ipassmt, field="in") -> dict:
    """Pointwise certification for every interface in the assignment; the
    overall verdict is the conjunction.  An empty assignment certifies
    vacuously (with a warning left to the caller)."""
    if not ipassmt:
        return {}
    if not rules or rules[-1].match is not MTrue or rules[-1].action.kind not in ("accept", "drop"):
        raise MissingFinalRule("ruleset must end with an explicit allow-all or deny-all rule")
    return {iface: _certify(rules, iface, ipassmt[iface], field) for iface in sorted(ipassmt)}
