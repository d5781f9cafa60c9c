"""Parsers for iptables-save dumps, interface/IP assignments and routing
tables.

iptables-save grammar subset (line oriented):

    save      ::= line*
    line      ::= comment | '*' tablename | ':' chain policy counters
                | '-A' chain rulespec | '-I' chain [index] rulespec
                | '-N' chain | '-P' chain policy | 'COMMIT'
    rulespec  ::= (['!'] option)*
    option    ::= '-m' module | '-j' target | '-g' chain | name value*

`!` may precede any option, inside a `-m` group or not.  The recognized
options are the keys of `_OPTIONS`: -s/-d (each `a,b` list gives one rule
per address), -i/-o, -p, the tcp/udp/sctp port and flag options (also
bare, after -p), multiport port lists, state/conntrack state lists,
iprange ranges and comments.  A typed value (address, interface, protocol,
port, flags, states, module or target name) that looks like an option is
a syntax error.  Every other option of a group, and every option of an
unknown module, is folded verbatim into that group's one Extra primitive;
an unknown option outside a group becomes its own Extra.  The closure
later treats Extras as unknown.  Only the filter table is
interpreted; other tables are skipped with a warning.

A rulespec is read in one pass over its tokens.  Each distinct rulespec
(the words after the chain name and `-I`'s index) is read once per
parse_save call: every line that repeats it gets rules with the same match
and action objects, each with its own raw line.  Each distinct leaf (its
class and value text, and a port match's protocol) is one MPrim per
parse_save call, shared by every rule that has it.
"""

from __future__ import annotations

import itertools
import logging
import shlex

from . import ruleset as rs
from .errors import ParseError, SyntaxError_, UnknownAction
from .wordinterval import (
    WordInterval,
    family_width,
    parse_address_set,
    parse_cidr,
)

log = logging.getLogger(__name__)

# targets that are real iptables extensions, not user chains; rejected in
# the filter table rather than treated as chain calls
_EXTENSION_TARGETS = {
    "SNAT", "DNAT", "MASQUERADE", "REDIRECT", "NETMAP", "MARK", "CONNMARK",
    "NFQUEUE", "TOS", "TTL", "CLASSIFY", "SET", "TRACE", "AUDIT",
    "CHECKSUM", "CT", "DSCP", "ECN", "HL", "LED", "RATEEST", "SECMARK",
    "SYNPROXY", "TCPMSS", "TCPOPTSTRIP", "TEE", "TPROXY", "ULOG",
}

_TARGETS = {**rs.TARGETS, "NFLOG": rs.LOG}  # NFLOG logs, as LOG does
_POLICIES = ("ACCEPT", "DROP")  # the targets a chain policy may name
# options of a built-in target and how many values each takes; they are
# read and dropped, since no target option changes the verdict
_TARGET_OPTIONS = {
    "REJECT": {"--reject-with": 1},
    "LOG": {"--log-level": 1, "--log-prefix": 1, "--log-tcp-sequence": 0,
            "--log-tcp-options": 0, "--log-ip-options": 0, "--log-uid": 0,
            "--log-macdecode": 0},
    "NFLOG": {f"--nflog-{name}": 1 for name in ("group", "prefix", "range", "size", "threshold")},
}

_TCP_FLAG_ALIASES = {"ALL": frozenset(rs.TCP_FLAG_ORDER), "NONE": frozenset()}


def _parse_flagset(text, lineno):
    if text in _TCP_FLAG_ALIASES:
        return _TCP_FLAG_ALIASES[text]
    flags = []
    for f in text.split(","):
        if f not in rs.TCP_FLAG_ORDER:
            raise SyntaxError_(f"unknown TCP flag {f!r}", lineno)
        flags.append(f)
    return frozenset(flags)


def _parse_port_spec(text, lineno):
    """One port token: '22', 'lo:hi', 'lo:' or ':hi'."""
    try:
        if ":" in text:
            lo, _, hi = text.partition(":")
            lo = int(lo) if lo else 0
            hi = int(hi) if hi else 65535
        else:
            lo = hi = int(text)
    except ValueError:
        raise SyntaxError_(f"bad port {text!r}", lineno) from None
    if not (0 <= lo <= 65535 and 0 <= hi <= 65535 and lo <= hi):
        raise SyntaxError_(f"port range {text!r} out of bounds", lineno)
    return WordInterval.range(lo, hi, 16)


def _parse_multiport_list(text, lineno):
    entries = text.split(",")
    if len(entries) > 15:
        raise SyntaxError_("multiport accepts at most 15 entries", lineno)
    wi = WordInterval.empty(16)
    for entry in entries:
        wi = wi.union(_parse_port_spec(entry, lineno))
    return wi


def _parse_protocol(text, lineno):
    if text in rs.PROTO_NUMBERS:
        return rs.PROTO_NUMBERS[text]
    try:
        num = int(text)
    except ValueError:
        raise SyntaxError_(f"unknown protocol {text!r}", lineno) from None
    if not 0 <= num <= 255:
        raise SyntaxError_(f"protocol number {num} out of range", lineno)
    return num


def _at_line(parse, text, family, lineno):
    """parse(text, family) for an address parser; its ParseError gets the
    line number."""
    try:
        return parse(text, family)
    except ParseError as exc:
        raise SyntaxError_(str(exc), lineno) from None


# -- option builders: each reads its option's values from tokens[i:] and
# returns (its leaf, or None when it adds no term; the index after them).
# A leaf is made once per parse_save call for each key: its class, its
# value text and, for a port match, the protocol.

def _leaf(cls, *values):
    return rs.MPrim(cls(*values))


def _parsed(cls, parse, text, lineno, *head):
    """The leaf of cls over head and text read by parse."""
    return rs.MPrim(cls(*head, parse(text, lineno)))


def _address_leaf(rp, cls, text):
    addrs = rp.shared(text, _at_line, parse_address_set, text, rp.family, rp.lineno)
    return rs.MPrim(cls(addrs))


def _value(rp, option, tokens, i):
    """tokens[i] as `option`'s typed value, which may not be '!' or option-like."""
    tok = tokens[i] if i < len(tokens) else None
    if tok is None or tok == "!" or tok.startswith("-"):
        rp.error(f"{option} needs a value" + (f", not {tok!r}" if tok else ""))
    return tok


def _address(rp, option, cls, negated, tokens, i):
    entries = _value(rp, option, tokens, i).split(",")
    if len(entries) == 1:
        return rp.address(cls, entries[0]), i + 1
    # the `a,b` sugar: one rule per address, each list its own factor
    rp.alternatives.setdefault(cls, []).append([rp.address(cls, e) for e in entries])
    return None, i + 1


def _range(rp, option, cls, negated, tokens, i):
    return rp.address(cls, _value(rp, option, tokens, i)), i + 1


def _iface(rp, option, cls, negated, tokens, i):
    return rp.named(cls, _value(rp, option, tokens, i)), i + 1


def _protocol(rp, option, cls, negated, tokens, i):
    value = _value(rp, option, tokens, i)
    if value == "all":
        return None, i + 1
    leaf = rp.shared((cls, value), _parsed, cls, _parse_protocol, value, rp.lineno)
    if not negated:
        rp.proto = leaf.prim.number
    return leaf, i + 1


def _ports(rp, option, cls, negated, tokens, i):
    proto = rp.port_proto()
    text = _value(rp, option, tokens, i)
    parse = _parse_port_spec if cls.module is None else _parse_multiport_list
    leaf = rp.shared((cls, text, proto), _parsed, cls, parse, text, rp.lineno, proto)
    return leaf, i + 1


def _tcp_flags(rp, option, cls, negated, tokens, i):
    rp.port_proto()
    syn = option == "--syn"
    mask = "FIN,SYN,RST,ACK" if syn else _value(rp, option, tokens, i)
    flags = _parse_flagset(mask, rp.lineno)  # a bad mask is reported before a missing comp
    comp, i = ("SYN", i) if syn else (_value(rp, option, tokens, i + 1), i + 2)
    return rp.shared((cls, mask, comp), _parsed, cls, _parse_flagset, comp, rp.lineno, flags), i


def _states(rp, option, cls, negated, tokens, i):
    text = _value(rp, option, tokens, i)
    states = frozenset(text.split(","))
    if unknown := states - set(rs.CT_STATES):
        rp.error(f"unknown conntrack states {sorted(unknown)}")
    return rp.shared((cls, text), _leaf, cls, states), i + 1


def _comment(rp, option, cls, negated, tokens, i):
    if i == len(tokens):
        rp.error("unexpected end of rule")
    return None, i + 1  # comments carry no match semantics


def _module(rp, option, cls, negated, tokens, i):
    rp.module = _value(rp, option, tokens, i)
    return None, i + 1


def _target(rp, option, cls, negated, tokens, i):
    name = _value(rp, option, tokens, i)
    i += 1
    if option == "-g":
        rp.action = rs.goto(name)
    elif name in _TARGETS:
        rp.action = _TARGETS[name]
        arity = _TARGET_OPTIONS.get(name, {})
        while i < len(tokens) and tokens[i] in arity:
            i += 1 + arity[tokens[i]]
        if i > len(tokens):
            rp.error("unexpected end of rule")
    elif name in _EXTENSION_TARGETS:
        raise UnknownAction(f"target {name} is not supported in the filter table", rp.lineno)
    else:
        rp.action = rs.call(name)
    return None, i


_PORT_GROUPS = frozenset({"tcp", "udp", "sctp", None})

# option spelling -> (modules, builder, class).  `modules` is None for a
# top-level option, which is valid anywhere and ends the current -m group;
# otherwise it holds the -m groups the option belongs to, None meaning no
# group (a port option after -p).  A field primitive is spelt as it prints
# (`cls.option`, `--<field>-range`) or by one of its long aliases.
_OPTIONS = {
    spelling: (modules, build, cls)
    for spellings, modules, build, cls in [
        *(((c.option, *aliases), None, _address, c)
          for c, *aliases in [(rs.Src, "--source", "--src"), (rs.Dst, "--destination", "--dst")]),
        *(((f"--{c.field}-range",), {"iprange"}, _range, c) for c in (rs.Src, rs.Dst)),
        *(((c.option, alias), None, _iface, c)
          for c, alias in [(rs.IIface, "--in-interface"), (rs.OIface, "--out-interface")]),
        *(((c.option, alias), _PORT_GROUPS if c.module is None else {c.module}, _ports, c)
          for c, alias in [(rs.SrcPorts, "--source-port"), (rs.DstPorts, "--destination-port"),
                           (rs.MultiportSrc, "--source-ports"),
                           (rs.MultiportDst, "--destination-ports")]),
        (("-p", "--protocol"), None, _protocol, rs.Protocol),
        (("-m",), None, _module, None),
        (("-j", "-g"), None, _target, None),
        (("--tcp-flags", "--syn"), _PORT_GROUPS, _tcp_flags, rs.TcpFlags),
        (("--state", "--ctstate"), {"state", "conntrack"}, _states, rs.CtState),
        (("--comment",), {"comment"}, _comment, None),
    ]
    for spelling in spellings
}
# a group of one of these modules with only known options adds no Extra
_KNOWN_MODULES = {m for modules, _, _ in _OPTIONS.values() for m in modules or ()} - {None}


class _RuleParser:
    """Parses one rulespec token list into [(match expr, action)], one
    complete rule per choice of an address from each `a,b` list."""

    def __init__(self, family, lineno, memo):
        self.family = family
        self.lineno = lineno
        self.memo = memo         # leaf key -> leaf, address text -> its set; per parse_save call
        self.terms = []          # the match nodes, in order
        self.action = rs.EMPTY
        self.alternatives = {}   # Src/Dst -> the leaf lists of the `a,b` sugar
        self.proto = None        # last positively matched protocol
        self.module = None       # the current -m group
        self.group = []          # its options folded into one Extra

    def error(self, message):
        raise SyntaxError_(message, self.lineno)

    def shared(self, key, make, *args):
        """memo[key], made by make(*args) on its first use."""
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = make(*args)
        return got

    def address(self, cls, text):  # Src and Dst share the set of a text
        return self.shared((cls, text), _address_leaf, self, cls, text)

    def port_proto(self):
        if self.module in ("tcp", "udp", "sctp"):
            return rs.PROTO_NUMBERS[self.module]
        if self.proto in (6, 17, 132):
            return self.proto
        self.error("port match requires a tcp/udp/sctp protocol context")

    def named(self, cls, text):  # an interface, or an Extra's text
        return self.shared((cls, text), _leaf, cls, text)

    def end_group(self):
        if self.group or self.module not in _KNOWN_MODULES:
            self.terms.append(self.named(rs.Extra, " ".join(["-m", self.module, *self.group])))
        self.module, self.group = None, []

    def parse(self, tokens):
        """One pass over the tokens: a table option's builder reads its
        values; an option the table does not know takes the tokens up to
        the next option or '!'."""
        n, i = len(tokens), 0
        while i < n:
            negated = tokens[i] == "!"
            if negated:
                i += 1
                if i == n or tokens[i] == "!":
                    self.error("dangling '!'")
            start, option = i, tokens[i]
            modules, build, cls = _OPTIONS.get(option, ((), None, None))
            i += 1
            if modules is None or self.module in modules:
                if modules is None and self.module is not None:
                    self.end_group()
                leaf, i = build(self, option, cls, negated, tokens, i)
                if leaf is not None:
                    self.terms.append(rs.MNot(leaf) if negated else leaf)
                elif negated:
                    self.error(f"cannot negate {' '.join(tokens[start:i])!r}")
                continue
            while i < n and tokens[i] != "!" and not tokens[i].startswith("-"):
                i += 1
            words = tokens[start:i]
            if self.module is None:
                leaf = self.named(rs.Extra, " ".join(words))
                self.terms.append(rs.MNot(leaf) if negated else leaf)
            else:
                self.group += ["!", *words] if negated else words
        if self.module is not None:
            self.end_group()
        # each `a,b` list is one factor of the product, the Src lists first
        choices = [alt for cls in (rs.Src, rs.Dst) for alt in self.alternatives.get(cls, ())]
        return [(rs.mand(*prefix, *self.terms), self.action)
                for prefix in itertools.product(*choices)]


def _lines(text):
    """(line number, stripped line) of each line not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _tokenize(line, lineno):
    """shlex.split(line) in POSIX mode, without comments.  A line with no
    quote or backslash, as iptables-save writes almost every line, is
    split on shlex's whitespace (space, tab, CR and LF; NBSP and any other
    character is part of a word), which gives the same words."""
    if '"' not in line and "'" not in line and "\\" not in line:
        spaced = line.replace("\t", " ").replace("\r", " ").replace("\n", " ")
        return [word for word in spaced.split(" ") if word]
    try:
        return shlex.split(line, comments=False, posix=True)
    except ValueError as exc:
        raise SyntaxError_(f"tokenizer: {exc}", lineno) from None


def parse_save(text, family="v4") -> rs.Table:
    """Parse `iptables-save` output; only the filter table is interpreted."""
    chains: dict = {}
    policies: dict = {}
    memo: dict = {}  # the leaves and address sets of this call
    specs: dict = {}  # rulespec words -> its [(match, action)], for this call
    current_table = None
    saw_filter = False
    for lineno, line in _lines(text):
        if line.startswith("*"):
            current_table = line[1:].strip()
            if current_table != "filter":
                log.warning("ignoring table %r (only filter is analyzed)", current_table)
            else:
                saw_filter = True
            continue
        if line == "COMMIT":
            current_table = None
            continue
        if current_table is not None and current_table != "filter":
            continue
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        head = tokens[0]
        if head.startswith(":") or head == "-P":
            # `:chain POLICY [counters]`, where `-` is no policy, or `-P chain POLICY`
            header = head != "-P"
            words = [head[1:], *tokens[1:]] if header else tokens[1:]
            policy = words[1] if len(words) > 1 else None
            if not header and (len(words) != 2 or policy not in _POLICIES):
                raise SyntaxError_("bad -P line", lineno)
            if policy is None:
                raise SyntaxError_("chain header needs a policy", lineno)
            if policy not in (*_POLICIES, "-"):
                raise SyntaxError_(f"unsupported chain policy {policy!r}", lineno)
            chains.setdefault(words[0], [])
            if policy != "-":
                policies[words[0]] = rs.TARGETS[policy]
            continue
        if head in ("-A", "-I", "-N", "--new-chain"):
            if len(tokens) < 2:
                raise SyntaxError_(f"{head} needs a chain name", lineno)
            chain, rest = tokens[1], tokens[2:]
            rules = chains.setdefault(chain, [])
            if head in ("-N", "--new-chain"):
                continue
            index = len(rules) + 1 if head == "-A" else 1
            if head == "-I" and rest and rest[0].isdecimal():
                index, rest = int(rest[0]), rest[1:]
                if not 1 <= index <= len(rules) + 1:
                    raise SyntaxError_(f"-I {chain} {index}: rule number must be in "
                                       f"1..{len(rules) + 1}", lineno)
            key = tuple(rest)
            parsed = specs.get(key)
            if parsed is None:
                parsed = specs[key] = _RuleParser(family, lineno, memo).parse(rest)
            rules[index - 1:index - 1] = [rs.Rule(m, a, raw=line) for m, a in parsed]
            continue
        raise SyntaxError_(f"unsupported directive {head!r}", lineno)
    if not saw_filter and not chains:
        raise SyntaxError_("no filter table found")
    table = rs.Table(chains, policies)
    table.validate()
    return table


def parse_ipassmt(text, family="v4") -> dict:
    """Interface/IP assignment file: one `name = [entries]` per line, where
    `all_but_those_ips` before the list complements the union.  A name is
    one exact interface, assigned once; a `+` wildcard is rejected."""
    width = family_width(family)
    out = {}
    for lineno, line in _lines(text):
        name, eq, rhs = line.partition("=")
        name = name.strip()
        if not (eq and name):
            raise SyntaxError_("expected 'iface = [ranges]'", lineno)
        if name.endswith("+"):
            raise SyntaxError_(f"interface names are exact, not patterns: {name!r}", lineno)
        if name in out:
            raise SyntaxError_(f"interface {name!r} is assigned twice", lineno)
        rhs = rhs.strip()
        complement = False
        if rhs.startswith("all_but_those_ips"):
            complement = True
            rhs = rhs[len("all_but_those_ips"):].strip()
        if not (rhs.startswith("[") and rhs.endswith("]")):
            raise SyntaxError_("expected a [list] of ranges", lineno)
        body = rhs[1:-1].strip()
        wi = WordInterval.empty(width)
        if body:
            for entry in body.split(","):
                wi = wi.union(_at_line(parse_address_set, entry, family, lineno))
        if complement:
            wi = wi.complement()
        out[name] = wi
    return out


def parse_routing(text, family="v4") -> list:
    """Routing table lines: '<cidr> [via ip] dev <iface>' plus an optional
    'default [via ip] dev <iface>'.  Returns [(Cidr, iface)] in file order;
    longest-prefix-match semantics are applied by the consumer.  As in
    parse_ipassmt, an interface is one exact name, not a `+` pattern."""
    routes = []
    for lineno, line in _lines(text):
        tokens = line.split()
        if tokens[0] == "default":
            tokens[0] = "::/0" if family == "v6" else "0.0.0.0/0"
        cidr = _at_line(parse_cidr, tokens[0], family, lineno)
        if "dev" not in tokens[:-1]:
            raise SyntaxError_("route line is missing 'dev <iface>'", lineno)
        if (name := tokens[tokens.index("dev") + 1]).endswith("+"):
            raise SyntaxError_(f"interface names are exact, not patterns: {name!r}", lineno)
        routes.append((cidr, name))
    return routes
