"""Certify spoofing protection of an unfolded ruleset, per interface.

The certifier walks the rule list once, accumulating an over-approximation
A of the source addresses an interface's packets may be accepted with and
an under-approximation D of the sources that are definitely dropped.  The
interface is certified when A minus D stays inside its assigned range.
Sound but deliberately incomplete in the presence of unknown matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import ruleset as rs
from .errors import IfaceNotInIpassmt, MissingFinalRule
from .ruleset import MNot, MTrue, match_iface
from .semantics import normalize_nnf
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


def _sources(disjuncts, iface, width, field, guaranteed):
    """Union over the NNF disjuncts of the source IPs with which some packet
    on `iface` can match (an over-approximation, for accept rules) or, when
    `guaranteed`, with which every packet on `iface` matches (an
    under-approximation, for drop rules: only interface and source
    constraints may remain)."""
    iface_type = rs.IIface if field == "in" else rs.OIface
    total = WordInterval.empty(width)
    for leaves in disjuncts:
        srcs = WordInterval.universe(width)
        for leaf in leaves:
            negated = isinstance(leaf, MNot)
            prim = (leaf.inner if negated else leaf).prim
            if isinstance(prim, rs.Src):
                srcs = srcs.intersect(prim.addrs.complement() if negated else prim.addrs)
            elif isinstance(prim, iface_type) and negated and not guaranteed:
                # cannot bound what other interfaces may carry: stay safe
                srcs = WordInterval.universe(width)
                break
            elif isinstance(prim, iface_type):
                if negated or not match_iface(prim.name, iface):
                    srcs = None  # no packet on `iface` matches
                    break
            elif guaranteed:
                srcs = None  # the residual match might not hold for every packet
                break
        if srcs is not None:
            total = total.union(srcs)
    return total


def _certify(rules, rule_disjuncts, iface, allowed_range, field) -> SpoofVerdict:
    width = allowed_range.width
    acc = WordInterval.empty(width)
    deny = WordInterval.empty(width)
    failing = None
    for idx, (rule, disjuncts) in enumerate(zip(rules, rule_disjuncts)):
        if rule.action.kind == "accept":
            acc = acc.union(_sources(disjuncts, iface, width, field, guaranteed=False))
        else:
            newly = _sources(disjuncts, iface, width, field, guaranteed=True).difference(acc)
            deny = deny.union(newly)
        if failing is None and not acc.difference(deny).issubset(allowed_range):
            failing = idx
    residual = acc.difference(deny)
    certified = residual.issubset(allowed_range)
    return SpoofVerdict(
        iface,
        certified,
        None if certified else failing,
        None if certified else residual.difference(allowed_range),
    )


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
    vacuously (with a warning left to the caller).  Each rule is
    normalized once for all interfaces."""
    if not ipassmt:
        return {}
    if not rules or rules[-1].match != MTrue or rules[-1].action.kind not in ("accept", "drop"):
        raise MissingFinalRule("ruleset must end with an explicit allow-all or deny-all rule")
    rule_disjuncts = [normalize_nnf(r.match) for r in rules]
    return {iface: _certify(rules, rule_disjuncts, iface, ipassmt[iface], field)
            for iface in sorted(ipassmt)}
