"""Set algebra over fixed-width machine words.

One WordInterval is a union of inclusive (start, end) ranges over unsigned
integers of a fixed bit width.  The same type serves IPv4 addresses
(32 bit), IPv6 addresses (128 bit) and L4 ports (16 bit); the width is a
runtime attribute and binary operations refuse to mix widths.

Values are canonicalized on construction: parts are sorted, non-empty,
non-overlapping and non-adjacent, so structural equality is set equality.
"""

from __future__ import annotations

import functools
import ipaddress
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import IllformedCidr, ParseError, WidthMismatch


def _normalize(parts):
    parts = sorted((lo, hi) for lo, hi in parts if lo <= hi)
    merged = []
    for lo, hi in parts:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


class WordInterval:
    """Canonical union of inclusive word ranges."""

    __slots__ = ("width", "parts")

    def __init__(self, parts, width):
        self.width = width
        maxval = (1 << width) - 1
        for lo, hi in parts:
            if lo < 0 or hi > maxval:
                raise ValueError(f"range {lo}..{hi} out of width-{width} bounds")
        self.parts = _normalize(parts)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _canonical(cls, parts, width):
        """Wrap parts that are already canonical and in range, unchecked."""
        wi = object.__new__(cls)
        wi.width = width
        wi.parts = tuple(parts)
        return wi

    # values are immutable, so each width shares one empty set and one universe
    @classmethod
    @functools.cache
    def empty(cls, width):
        return cls((), width)

    @classmethod
    @functools.cache
    def universe(cls, width):
        return cls(((0, (1 << width) - 1),), width)

    @classmethod
    def single(cls, value, width):
        return cls(((value, value),), width)

    @classmethod
    def range(cls, lo, hi, width):
        return cls(((lo, hi),), width)

    # -- set operations ----------------------------------------------------

    def _check(self, other):
        if self.width != other.width:
            raise WidthMismatch(f"width {self.width} vs {other.width}")

    def union(self, other):
        self._check(other)
        return WordInterval(self.parts + other.parts, self.width)

    def intersect(self, other):
        """Two-pointer merge over both sorted part lists: O(n + m)."""
        self._check(other)
        a, b = self.parts, other.parts
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        # parts of a canonical list that overlap one part of the other are
        # disjoint and non-adjacent already, so the meet stays canonical
        return WordInterval._canonical(out, self.width)

    def difference(self, other):
        self._check(other)
        return self.intersect(other.complement())

    def complement(self):
        out = []
        cursor = 0
        for lo, hi in self.parts:
            if lo > cursor:
                out.append((cursor, lo - 1))
            cursor = hi + 1
        maxval = (1 << self.width) - 1
        if cursor <= maxval:
            out.append((cursor, maxval))
        # the gaps between canonical parts are sorted, non-empty and apart
        return WordInterval._canonical(out, self.width)

    def issubset(self, other):
        return self.difference(other).is_empty()

    def isdisjoint(self, other):
        return self.intersect(other).is_empty()

    def is_empty(self):
        return not self.parts

    def is_universe(self):
        return self.parts == ((0, (1 << self.width) - 1),)

    def __contains__(self, value):
        # parts before (value + 1,) are exactly those starting at or below value
        i = bisect_left(self.parts, (value + 1,))
        return i > 0 and value <= self.parts[i - 1][1]

    def __eq__(self, other):
        return (
            isinstance(other, WordInterval)
            and self.width == other.width
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash((self.width, self.parts))

    def __repr__(self):
        return f"WordInterval({list(self.parts)}, width={self.width})"

    def min(self):
        if not self.parts:
            raise ValueError("empty interval has no minimum")
        return self.parts[0][0]

    def size(self):
        return sum(hi - lo + 1 for lo, hi in self.parts)

    # -- CIDR conversion ---------------------------------------------------

    def to_cidrs(self):
        """Split into a covering, disjoint list of well-formed CIDR blocks.

        Deterministic: walk each part from its low end and split off the
        widest aligned block that still fits, so blocks come lowest element
        first with the widest valid prefix; one step per block.
        """
        out = []
        for lo, hi in self.parts:
            while lo <= hi:
                # host bits: limited by the alignment of lo and by the room left
                aligned = (lo & -lo).bit_length() - 1 if lo else self.width
                bits = min(aligned, (hi - lo + 1).bit_length() - 1)
                out.append(Cidr(lo, self.width - bits, self.width))
                lo += 1 << bits
        return out


@dataclass(frozen=True)
class Cidr:
    """A single prefix block base/prefix over width-bit words."""

    base: int
    prefix: int
    width: int

    def __post_init__(self):
        if not 0 <= self.prefix <= self.width:
            raise IllformedCidr(f"prefix /{self.prefix} out of range for width {self.width}")
        if self.base & self.hostmask():
            raise IllformedCidr(f"{self.base}/{self.prefix}: bits set after the prefix")

    def hostmask(self):
        return (1 << (self.width - self.prefix)) - 1

    def interval(self):
        return WordInterval._canonical(((self.base, self.base | self.hostmask()),), self.width)

    def __str__(self):
        if self.width in _FAMILY_WIDTH.values():  # an address block
            return f"{ip_format(self.base, self.width)}/{self.prefix}"
        return f"{self.base}/{self.prefix}"


# -- elementary blocks -------------------------------------------------------


def block_minima(sets, width):
    """The sorted minima of the blocks into which the boundary points of
    `sets` cut the width-bit space.  Every set is a union of these blocks,
    and there are at most 2 * (parts of all sets) + 1 of them."""
    points = {0}
    for wi in sets:
        for lo, hi in wi.parts:
            points.add(lo)
            points.add(hi + 1)
    points.discard(1 << width)
    return sorted(points)


def block_mask(wi, reps):
    """wi as an int bitset over the blocks with sorted minima reps, of which
    wi must be a union: bit i is set iff block i lies in wi."""
    return sum((1 << bisect_right(reps, hi)) - (1 << bisect_left(reps, lo)) for lo, hi in wi.parts)


def mask_interval(mask, reps, width):
    """The union of the blocks in `mask`, the inverse of block_mask."""
    reps = reps + [1 << width]
    runs = re.finditer("1+", format(mask, "b")[::-1])
    return WordInterval._canonical(
        [(reps[run.start()], reps[run.end()] - 1) for run in runs], width)


# -- address text formats ---------------------------------------------------

_FAMILY_WIDTH = {"v4": 32, "v6": 128}


def family_width(family):
    try:
        return _FAMILY_WIDTH[family]
    except KeyError:
        raise ValueError(f"unknown address family {family!r}") from None


def ip_format(value, width):
    """Render a width-bit address word as text: the family is read off the
    width, 32 bits being dotted v4 and 128 bits v6 after RFC 5952."""
    if width == 32:
        if not 0 <= value <= 0xFFFFFFFF:
            raise ipaddress.AddressValueError(f"{value} is not a 32-bit address")
        return f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"
    if width == 128:
        return str(ipaddress.IPv6Address(value))
    raise ValueError(f"no address family has width {width}")


# The whitespace that may surround an address: str.strip() would also strip
# non-ASCII spaces such as NBSP, which iptables refuses in an address.
_ASCII_SPACE = " \t\n\r\v\f"


def ip_parse(text, family="v4"):
    text = text.strip(_ASCII_SPACE)
    try:
        if family == "v4":
            return int(ipaddress.IPv4Address(text))
        if family == "v6":
            return int(ipaddress.IPv6Address(text))
    except ipaddress.AddressValueError as exc:
        raise ParseError(f"bad {family} address {text!r}: {exc}") from None
    raise ValueError(f"unknown address family {family!r}")


def parse_cidr(text, family="v4"):
    """Parse 'addr' or 'addr/n' into a Cidr; plain addresses get a full prefix."""
    width = family_width(family)
    text = text.strip(_ASCII_SPACE)
    if "/" in text:
        addr, _, plen = text.partition("/")
        if not (plen.isascii() and plen.isdigit()):
            raise ParseError(f"bad prefix length in {text!r}")
        plen = int(plen)
    else:
        addr, plen = text, width
    base = ip_parse(addr, family)
    if not 0 <= plen <= width:
        raise ParseError(f"prefix /{plen} out of range in {text!r}")
    base &= ~((1 << (width - plen)) - 1) & ((1 << width) - 1)
    return Cidr(base, plen, width)


def parse_address_set(text, family="v4"):
    """Parse one address token: 'a', 'a/n' or the iprange-style 'lo-hi'."""
    text = text.strip(_ASCII_SPACE)
    width = family_width(family)
    if "-" in text and "/" not in text:
        lo, _, hi = text.partition("-")
        lo_v, hi_v = ip_parse(lo, family), ip_parse(hi, family)
        if lo_v > hi_v:
            raise ParseError(f"descending range {text!r}")
        return WordInterval.range(lo_v, hi_v, width)
    return parse_cidr(text, family).interval()


def format_interval(wi):
    """Human-readable union form used in figures, {lo .. hi} u {ip} ..., in
    the address family of wi's width."""
    chunks = []
    for lo, hi in wi.parts:
        if lo == hi:
            chunks.append("{%s}" % ip_format(lo, wi.width))
        else:
            chunks.append("{%s .. %s}" % (ip_format(lo, wi.width), ip_format(hi, wi.width)))
    return " ∪ ".join(chunks) if chunks else "{}"
