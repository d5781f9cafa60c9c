import ipaddress
import random

import pytest
from hypothesis import example, given, strategies as st

from netfence.errors import IllformedCidr, ParseError, WidthMismatch
from netfence.wordinterval import (
    Cidr,
    WordInterval,
    block_mask,
    block_minima,
    format_interval,
    ip_format,
    ip_parse,
    parse_address_set,
    mask_interval,
    parse_cidr,
)


def wi8(*parts):
    return WordInterval(parts, 8)


def as_set(wi):
    return {v for lo, hi in wi.parts for v in range(lo, hi + 1)}


class TestSetOperations:
    def test_intersection_example(self):
        a = WordInterval.range(0, 10, 32)
        b = WordInterval.range(5, 20, 32)
        assert a.intersect(b) == WordInterval.range(5, 10, 32)

    def test_universe_minus_cidr_has_two_parts(self):
        u = WordInterval.universe(32)
        block = parse_cidr("192.168.1.0/24").interval()
        assert len(u.difference(block).parts) == 2

    def test_union_absorbs(self):
        a = wi8((0, 5), (10, 20))
        b = wi8((3, 12))
        assert a.union(b) == wi8((0, 20))

    def test_adjacent_parts_merge(self):
        assert wi8((0, 4), (5, 9)) == wi8((0, 9))

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            WordInterval.universe(8).union(WordInterval.universe(16))

    def test_exhaustive_8bit_oracle(self):
        """Every operation agrees with naive set computation over 0..255."""
        rng = random.Random(42)
        for _ in range(10_000):
            a = wi8(*((lambda l: (l, min(255, l + rng.randrange(8))))(rng.randrange(256))
                      for _ in range(rng.randrange(4))))
            b = wi8(*((lambda l: (l, min(255, l + rng.randrange(8))))(rng.randrange(256))
                      for _ in range(rng.randrange(4))))
            sa, sb = as_set(a), as_set(b)
            assert as_set(a.union(b)) == sa | sb
            assert as_set(a.intersect(b)) == sa & sb
            assert as_set(a.difference(b)) == sa - sb
            assert as_set(a.complement()) == set(range(256)) - sa
            assert a.issubset(b) == (sa <= sb)
            assert (a == b) == (sa == sb)
            assert a.is_empty() == (not sa)

    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), max_size=4),
           st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), max_size=4))
    def test_lattice_law(self, pa, pb):
        a = wi8(*((min(x, y), max(x, y)) for x, y in pa))
        b = wi8(*((min(x, y), max(x, y)) for x, y in pb))
        assert a.issubset(a.union(b))
        assert a.intersect(b).issubset(a)

    def test_membership_and_merge_oracle(self):
        """Membership, intersection and disjointness agree with naive sets
        on intervals of many parts, including parts touching 0 and 255."""
        rng = random.Random(43)
        for _ in range(2_000):
            a, b = (wi8(*((lo, min(255, lo + rng.randrange(20)))
                          for lo in (rng.choice([0, 255, rng.randrange(256)])
                                     for _ in range(rng.randrange(10)))))
                    for _ in range(2))
            sa, sb = as_set(a), as_set(b)
            assert {v for v in range(256) if v in a} == sa
            assert as_set(a.intersect(b)) == sa & sb
            assert a.isdisjoint(b) == (not sa & sb)


def random_parts(rng, width):
    """Up to five ranges, some adjacent to or touching the one before, some
    the whole width."""
    top = (1 << width) - 1
    parts = []
    for _ in range(rng.randrange(6)):
        r = rng.random()
        if r < 0.1:
            parts.append((0, top))
            continue
        if parts and r < 0.5:  # adjacent to, or sharing an end with, the last range
            lo = min(top, parts[-1][1] + rng.choice((0, 1)))
        else:
            lo = rng.randrange(top + 1)
        parts.append((lo, min(top, lo + rng.choice((0, 1, rng.randrange(top + 1))))))
    return parts


class TestCanonicalResults:
    """intersect and complement build their results unnormalized; those
    must equal the normalized construction."""

    def test_meet_and_complement_against_normalizing_construction(self):
        rng = random.Random(19)
        for width in (8, 8, 32):
            for _ in range(3000):
                a = WordInterval(random_parts(rng, width), width)
                b = WordInterval(random_parts(rng, width), width)
                for got in (a.intersect(b), a.complement(), a.difference(b)):
                    assert got == WordInterval(list(got.parts), width)
                    assert got.parts == WordInterval(list(got.parts), width).parts
                if width == 8:
                    sa, sb = as_set(a), as_set(b)
                    assert as_set(a.intersect(b)) == sa & sb
                    assert as_set(a.complement()) == set(range(256)) - sa

    def test_full_range_and_empty(self):
        u, e = WordInterval.universe(8), WordInterval.empty(8)
        assert u.complement() == e and e.complement() == u
        assert u.intersect(u) == u and u.intersect(e) == e
        assert wi8((0, 9), (10, 20)).intersect(u).parts == ((0, 20),)


class TestBlocks:
    def test_masks_read_back_as_the_sets(self):
        rng = random.Random(19)
        for _ in range(500):
            sets = [WordInterval(random_parts(rng, 8), 8) for _ in range(rng.randrange(1, 5))]
            reps = block_minima(sets, 8)
            assert reps[0] == 0 and reps == sorted(set(reps))
            assert len(reps) <= 2 * sum(len(wi.parts) for wi in sets) + 1
            for wi in sets:
                assert mask_interval(block_mask(wi, reps), reps, 8) == wi
            mask = rng.getrandbits(len(reps))
            got = mask_interval(mask, reps, 8)
            assert got.parts == WordInterval(list(got.parts), 8).parts
            ends = reps + [256]
            assert as_set(got) == {v for i in range(len(reps)) if mask >> i & 1
                                   for v in range(ends[i], ends[i + 1])}


class TestCidr:
    def test_from_cidr_slash8(self):
        wi = parse_cidr("10.0.0.0/8").interval()
        assert wi == WordInterval.range(ip_parse("10.0.0.0"), ip_parse("10.255.255.255"), 32)

    def test_host_route(self):
        c = parse_cidr("1.2.3.4/32")
        assert c.interval() == WordInterval.single(ip_parse("1.2.3.4"), 32)

    def test_zero_prefix_is_universe(self):
        assert parse_cidr("0.0.0.0/0").interval().is_universe()

    def test_illformed_base(self):
        with pytest.raises(IllformedCidr):
            Cidr(ip_parse("10.0.0.1"), 8, 32)

    def test_hash_is_the_field_tuple_hash(self):
        """The hash cached on each Cidr is the frozen dataclass's, and equal
        blocks made apart hash and compare equal."""
        for c in parse_address_set("10.0.0.1-10.0.3.254").to_cidrs():
            twin = Cidr(c.base, c.prefix, c.width)
            assert twin is not c and twin == c and hash(twin) == hash(c)
            assert hash(c) == hash((c.base, c.prefix, c.width))
        assert Cidr(0, 0, 32) != Cidr(0, 0, 128)

    def test_split_aligned_block(self):
        wi = parse_address_set("10.0.0.0-10.0.0.15")
        assert [str(c) for c in wi.to_cidrs()] == ["10.0.0.0/28"]

    def test_split_unaligned_block(self):
        wi = parse_address_set("10.0.0.1-10.0.0.15")
        assert [str(c) for c in wi.to_cidrs()] == [
            "10.0.0.1/32",
            "10.0.0.2/31",
            "10.0.0.4/30",
            "10.0.0.8/29",
        ]

    def test_split_widest_range_yields_62_blocks(self):
        wi = parse_address_set("0.0.0.1-255.255.255.254")
        assert len(wi.to_cidrs()) == 62

    def test_split_covers_and_is_disjoint(self):
        rng = random.Random(7)
        for _ in range(300):
            parts = []
            for _ in range(rng.randrange(1, 4)):
                lo = rng.randrange(256)
                parts.append((lo, min(255, lo + rng.randrange(40))))
            wi = wi8(*parts)
            cidrs = wi.to_cidrs()
            union = WordInterval.empty(8)
            total = 0
            for c in cidrs:
                assert c.interval().isdisjoint(union)
                union = union.union(c.interval())
                total += c.interval().size()
            assert union == wi
            assert total == wi.size()

    def test_split_equals_definitional_loop(self):
        """The one-step-per-block walk gives the same blocks, in the same
        order, as repeatedly splitting the widest prefix off the lowest
        remaining element (the definition), at 8 and 32 bits."""
        rng = random.Random(11)
        for width in (8, 32):
            top = (1 << width) - 1
            for _ in range(400):
                parts = []
                for _ in range(rng.randrange(0, 5)):
                    lo = rng.randrange(top + 1)
                    span = rng.choice((1, 16, 1 << (width // 2), top))
                    parts.append((lo, min(top, lo + rng.randrange(span))))
                if rng.random() < 0.05:
                    parts.append((0, top))
                wi = WordInterval(parts, width)
                assert wi.to_cidrs() == definitional_cidrs(wi), wi

    def test_cidr_conjunction_empty_or_smaller(self):
        rng = random.Random(9)
        for _ in range(500):
            a = Cidr(rng.randrange(256) & ~((1 << (8 - (p1 := rng.randrange(9)))) - 1) & 0xFF, p1, 8)
            b = Cidr(rng.randrange(256) & ~((1 << (8 - (p2 := rng.randrange(9)))) - 1) & 0xFF, p2, 8)
            inter = a.interval().intersect(b.interval())
            assert inter.is_empty() or inter in (a.interval(), b.interval())


# octet texts near a valid one: leading zeros, values past 255, an empty
# octet, and digits, signs and spaces that int() reads but an address does not
NEAR_OCTETS = ["0", "00", "01", "007", "1", "99", "255", "256", "300", "1000", "",
               "\u0661", "1\u0661", "+1", "-1", "\u00a01", "1\u00a0", " 1", "0x1", "1_0"]


class TestAddressText:
    def test_v4_format(self):
        assert ip_format(0x0A000001, 32) == "10.0.0.1"

    def test_v6_roundtrip(self):
        text = "2001:4ca0:2001:13:216:3eff:fea7:6ad5"
        assert ip_format(ip_parse(text, "v6"), 128) == text

    @pytest.mark.parametrize("width", [0, 16, 31, 64, 127, 129])
    def test_format_refuses_a_width_of_no_family(self, width):
        with pytest.raises(ValueError, match="no address family"):
            ip_format(1, width)

    def test_v6_loopback(self):
        assert ip_parse("::1", "v6") == 1

    def test_parse_error(self):
        with pytest.raises(ParseError):
            ip_parse("300.1.2.3")

    @pytest.mark.parametrize("space", [" ", "\t", "\v", "\f", "\r\n"])
    def test_ascii_whitespace_around_an_address_is_stripped(self, space):
        assert ip_parse(f"{space}10.0.0.1{space}") == 0x0A000001
        assert parse_cidr(f"{space}10.0.0.0/8{space}").prefix == 8
        assert parse_address_set(f"{space}::1{space}", "v6") == parse_address_set("::1", "v6")

    @pytest.mark.parametrize("space", ["\u00a0", "\u3000", "\u2003", "\x85", "\u200b"])
    def test_non_ascii_whitespace_is_refused(self, space):
        for text, family in ((f"{space}10.0.0.1", "v4"), (f"10.0.0.1{space}", "v4"),
                             (f"{space}::1{space}", "v6")):
            with pytest.raises(ParseError):
                ip_parse(text, family)
            with pytest.raises(ParseError):
                parse_cidr(text, family)
            with pytest.raises(ParseError):
                parse_address_set(text, family)

    @pytest.mark.parametrize("plen", ["\uff18", "\u0668", " 8", "+8", "-1", "0_8", "", "8.0"])
    def test_prefix_length_is_ascii_digits(self, plen):
        with pytest.raises(ParseError, match="bad prefix length"):
            parse_cidr(f"10.0.0.0/{plen}")

    def test_v4_format_equals_ipaddress(self):
        rng = random.Random(19)
        octet_edges = [v << shift for shift in (0, 8, 16, 24) for v in (1, 127, 128, 255)]
        values = [0, 2**32 - 1, *octet_edges, *(v - 1 for v in octet_edges),
                  *(rng.getrandbits(32) for _ in range(10_000))]
        for value in values:
            assert ip_format(value, 32) == str(ipaddress.IPv4Address(value)), value
        for value in (-1, 2**32):
            with pytest.raises(ValueError):
                ip_format(value, 32)

    @given(st.lists(st.integers(0, 255).map(str), min_size=3, max_size=5),
           st.lists(st.tuples(st.integers(0, 4), st.sampled_from(NEAR_OCTETS)), max_size=2),
           st.sampled_from(["", " ", "\t", "\u00a0"]))
    @example(["1", "2", "3", "4"], [(0, "01")], "")
    @example(["1", "2", "3", "4"], [(3, "256")], " ")
    @example(["1", "2", "3", "4"], [(3, "\u0661")], "")
    @example(["1", "2", "3", "4"], [(3, "1\u0661")], "")
    @example(["1", "2", "3", "4"], [(1, "")], "")
    @example(["10", "0", "0", "1"], [], "\u00a0")
    def test_v4_parse_equals_ipaddress_on_near_addresses(self, octets, edits, space):
        """On texts near a dotted quad, with 3 to 5 octets and some octets
        replaced by near ones, ip_parse gives ipaddress's value or a
        ParseError with ipaddress's reason, and strips ASCII spaces only."""
        for i, near in edits:
            octets[i % len(octets)] = near
        text = space + ".".join(octets) + space
        stripped = text.strip(" \t\n\r\v\f")
        try:
            expected = int(ipaddress.IPv4Address(stripped))
        except ipaddress.AddressValueError as exc:
            with pytest.raises(ParseError) as raised:
                ip_parse(text)
            assert str(raised.value) == f"bad v4 address {stripped!r}: {exc}"
        else:
            assert ip_parse(text) == expected

    @given(st.integers(0, 2**32 - 1))
    def test_v4_parse_format_identity(self, value):
        assert ip_parse(ip_format(value, 32)) == value

    @given(st.integers(0, 2**128 - 1))
    def test_v6_parse_format_identity(self, value):
        assert ip_parse(ip_format(value, 128), "v6") == value

    def test_interval_syntax(self):
        wi = parse_address_set("10.0.0.1-10.0.0.3")
        assert as_set_32(wi) == {ip_parse("10.0.0.1"), ip_parse("10.0.0.2"), ip_parse("10.0.0.3")}

    def test_format_interval(self):
        wi = parse_address_set("10.0.1.1-10.0.1.4")
        assert format_interval(wi) == "{10.0.1.1 .. 10.0.1.4}"
        single = parse_address_set("10.0.0.1")
        assert format_interval(single) == "{10.0.0.1}"
        v6 = parse_address_set("2001:db8::/127", "v6").union(parse_address_set("::1", "v6"))
        assert format_interval(v6) == "{::1} ∪ {2001:db8:: .. 2001:db8::1}"


def definitional_cidrs(wi):
    """The CIDR split by definition: repeatedly take the lowest remaining
    element and split off the widest prefix block that still fits."""
    out = []
    remaining = wi
    while not remaining.is_empty():
        base = remaining.min()
        for plen in range(0, wi.width + 1):
            low = (1 << (wi.width - plen)) - 1
            if base & low:
                continue
            block = WordInterval.range(base, base | low, wi.width)
            if block.issubset(remaining):
                out.append(Cidr(base, plen, wi.width))
                remaining = remaining.difference(block)
                break
    return out


def as_set_32(wi):
    return {v for lo, hi in wi.parts for v in range(lo, hi + 1)}
