"""Certify spoofing protection of an unfolded ruleset, per interface.

The distinct source sets that the rules match on, together with the
assigned ranges, cut the address space into elementary blocks at their
boundary points.  Every one of those sets is a union of blocks, so it
becomes one int bitset over the block indices, computed once for all
interfaces; with S the number of parts of all distinct source and
assigned sets, a mask has at most 2·S + 1 bits.

One walk over each rule's match bounds, as such masks, the sources with
which some packet on the interface may match it (over) and with which all
do (under); a conjunction intersects both bounds, a negation complements
and swaps them, and the certified side's interface literals are decided
exactly.  The certifier folds the rule list once into A, the Accepts'
over, and D, the Drops' under outside A: the interface is certified when
A minus D stays inside its assigned range.  A rule costs a few big-int
operations, and only the residual is turned back into an interval set.
Sound but deliberately incomplete in the presence of unknown matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import ruleset as rs
from .errors import MissingFinalRule, WidthMismatch
from .ruleset import MAnd, MNot, MTrue, match_iface
from .wordinterval import WordInterval, block_mask, block_minima, format_interval, mask_interval


@dataclass
class SpoofVerdict:
    iface: str
    certified: bool
    failing_rule: Optional[int] = None   # first rule index where A \ D escapes
    residual: Optional[WordInterval] = None

    def report_line(self):
        """One line; a residual prints in the family of its width."""
        if self.certified:
            return f"{self.iface}: CERTIFIED"
        where = f" at rule #{self.failing_rule}" if self.failing_rule is not None else ""
        extra = ""
        if self.residual is not None and not self.residual.is_empty():
            extra = f" (residual range {format_interval(self.residual)})"
        return f"{self.iface}: FAIL{where}{extra}"


def _blocks(matches, ranges, width):
    """(sorted block minima, mask of each distinct source set of the
    matches and of each range).  Each shared node is visited once."""
    sets = dict.fromkeys(ranges)
    seen, stack = set(), list(matches)
    while stack:
        m = stack.pop()
        if id(m) in seen:
            continue
        seen.add(id(m))
        if isinstance(m, MAnd):
            stack += (m.left, m.right)
        elif isinstance(m, MNot):
            stack.append(m.inner)
        elif m is not MTrue and isinstance(m.prim, rs.Src):
            sets[m.prim.addrs] = None
    for wi in sets:
        if wi.width != width:
            raise WidthMismatch(f"width {width} vs {wi.width}")
    reps = block_minima(sets, width)
    return reps, {wi: block_mask(wi, reps) for wi in sets}


def _bounds(m, iface, side, masks, full, memo):
    """(over, under) of match m on `iface`, whose interface literals are
    those of type `side`, as masks over the blocks; full is the mask of
    every block.  memo maps id(node) to its pair, so a subtree that
    unfolding shares among rules is bounded once."""
    got = memo.get(id(m))
    if got is not None:
        return got
    if isinstance(m, MAnd):
        (over, under), (over_r, under_r) = (_bounds(m.left, iface, side, masks, full, memo),
                                            _bounds(m.right, iface, side, masks, full, memo))
        got = over & over_r, under & under_r
    elif isinstance(m, MNot):
        over, under = _bounds(m.inner, iface, side, masks, full, memo)
        got = full ^ under, full ^ over
    elif m is MTrue:
        got = full, full
    elif isinstance(m.prim, rs.Src):
        got = masks[m.prim.addrs], masks[m.prim.addrs]
    elif isinstance(m.prim, side):
        got = (full, full) if match_iface(m.prim.name, iface) else (0, 0)
    else:  # holds for some packets, as far as the source tells
        got = full, 0
    memo[id(m)] = got
    return got


def _certify(rules, iface, side, masks, full, allowed):
    """(index of the first rule where A \\ D escapes `allowed`, the mask of
    A \\ D outside it).  Only an Accept can make A \\ D escape: a Drop
    grows D and leaves A as it is."""
    memo = {}
    outside = full ^ allowed
    acc = deny = 0
    failing = None
    for idx, rule in enumerate(rules):
        over, under = _bounds(rule.match, iface, side, masks, full, memo)
        if rule.action.kind == "accept":
            acc |= over
            if failing is None and acc & outside & ~deny:
                failing = idx
        else:
            deny |= under & ~acc
    return failing, acc & outside & ~deny


def sp_certify_all(rules, ipassmt, field="in") -> dict:
    """Pointwise certification for every interface in the assignment; the
    overall verdict is the conjunction.  An empty assignment certifies
    vacuously, with no verdict (`netfence analyze` prints a warning)."""
    if not ipassmt:
        return {}
    if not rules or rules[-1].match is not MTrue or rules[-1].action.kind not in ("accept", "drop"):
        raise MissingFinalRule("ruleset must end with an explicit allow-all or deny-all rule")
    width = next(iter(ipassmt.values())).width
    reps, masks = _blocks([r.match for r in rules], ipassmt.values(), width)
    full = (1 << len(reps)) - 1
    side = rs.IIface if field == "in" else rs.OIface
    verdicts = {}
    for iface in sorted(ipassmt):
        failing, residual = _certify(rules, iface, side, masks, full, masks[ipassmt[iface]])
        verdicts[iface] = SpoofVerdict(iface, True) if not residual else \
            SpoofVerdict(iface, False, failing, mask_interval(residual, reps, width))
    return verdicts
