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
options are the keys of `_OPTIONS`: -s/-d (with the `a,b` multi-address
sugar), -i/-o, -p, the tcp/udp/sctp port and flag options (also bare,
after -p), multiport port lists, state/conntrack state lists, iprange
ranges and comments.  A typed value (address, interface, protocol, port,
flags, states, module or target name) that looks like an option is a
syntax error.  Every other option of a group, and every option of an
unknown module, is folded verbatim into that group's one Extra primitive;
an unknown option outside a group becomes its own Extra.  The ternary
layer later treats Extras as Unknown.  Only the filter table is
interpreted; other tables are skipped with a warning.
"""

from __future__ import annotations

import itertools
import logging
import re
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
    "NFQUEUE", "NFLOG", "TOS", "TTL", "CLASSIFY", "SET", "TRACE", "AUDIT",
    "CHECKSUM", "CT", "DSCP", "ECN", "HL", "LED", "RATEEST", "SECMARK",
    "SYNPROXY", "TCPMSS", "TCPOPTSTRIP", "TEE", "TPROXY", "ULOG",
}

_TARGETS = {"ACCEPT": rs.ACCEPT, "DROP": rs.DROP, "REJECT": rs.REJECT,
            "RETURN": rs.RETURN, "LOG": rs.LOG, "NFLOG": rs.LOG}
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


# -- option builders: each reads its option's values and returns the
# primitive, or None when the option adds no term to the rule

def _address(rp, option, cls, negated):
    entries = rp.value(option).split(",")
    if len(entries) == 1:
        return cls(rp.addresses(entries[0]))
    rp.alternatives[cls] = [rp.addresses(e) for e in entries]  # one rule each


def _range(rp, option, cls, negated):
    return cls(rp.addresses(rp.value(option)))


def _iface(rp, option, cls, negated):
    return cls(rp.value(option))


def _protocol(rp, option, cls, negated):
    value = rp.value(option)
    if value == "all":
        return None
    number = _parse_protocol(value, rp.lineno)
    if not negated:
        rp.proto = number
    return cls(number)


def _ports(rp, option, cls, negated):
    return cls(rp.port_proto(), _parse_port_spec(rp.value(option), rp.lineno))


def _multiport(rp, option, cls, negated):
    return cls(rp.port_proto(), _parse_multiport_list(rp.value(option), rp.lineno))


def _tcp_flags(rp, option, cls, negated):
    rp.port_proto()
    if option == "--syn":
        return cls(frozenset({"FIN", "SYN", "RST", "ACK"}), frozenset({"SYN"}))
    mask = _parse_flagset(rp.value(option), rp.lineno)
    return cls(mask, _parse_flagset(rp.value(option), rp.lineno))


def _states(rp, option, cls, negated):
    states = frozenset(rp.value(option).split(","))
    unknown = states - set(rs.CT_STATES)
    if unknown:
        rp.error(f"unknown conntrack states {sorted(unknown)}")
    return cls(states)


def _comment(rp, option, cls, negated):
    rp.next()  # comments carry no match semantics


def _module(rp, option, cls, negated):
    rp.module = rp.value(option)


def _target(rp, option, cls, negated):
    name = rp.value(option)
    if option == "-g":
        rp.action = rs.goto(name)
    elif name in _TARGETS:
        rp.action = _TARGETS[name]
        arity = _TARGET_OPTIONS.get(name, {})
        while rp.peek() in arity:
            for _ in range(arity[rp.next()]):
                rp.next()
    elif name in _EXTENSION_TARGETS:
        raise UnknownAction(f"target {name} is not supported in the filter table", rp.lineno)
    else:
        rp.action = rs.call(name)


_PORT_GROUPS = frozenset({"tcp", "udp", "sctp", None})

# option spelling -> (modules, builder, class).  `modules` is None for a
# top-level option, which is valid anywhere and ends the current -m group;
# otherwise it holds the -m groups the option belongs to, None meaning no
# group (a port option after -p).
_OPTIONS = {
    spelling: (modules, build, cls)
    for spellings, modules, build, cls in [
        (("-s", "--source", "--src"), None, _address, rs.Src),
        (("-d", "--destination", "--dst"), None, _address, rs.Dst),
        (("-i", "--in-interface"), None, _iface, rs.IIface),
        (("-o", "--out-interface"), None, _iface, rs.OIface),
        (("-p", "--protocol"), None, _protocol, rs.Protocol),
        (("-m",), None, _module, None),
        (("-j", "-g"), None, _target, None),
        (("--sport", "--source-port"), _PORT_GROUPS, _ports, rs.SrcPorts),
        (("--dport", "--destination-port"), _PORT_GROUPS, _ports, rs.DstPorts),
        (("--tcp-flags", "--syn"), _PORT_GROUPS, _tcp_flags, rs.TcpFlags),
        (("--sports", "--source-ports"), {"multiport"}, _multiport, rs.MultiportSrc),
        (("--dports", "--destination-ports"), {"multiport"}, _multiport, rs.MultiportDst),
        (("--state", "--ctstate"), {"state", "conntrack"}, _states, rs.CtState),
        (("--src-range",), {"iprange"}, _range, rs.Src),
        (("--dst-range",), {"iprange"}, _range, rs.Dst),
        (("--comment",), {"comment"}, _comment, None),
    ]
    for spelling in spellings
}
# a group of one of these modules with only known options adds no Extra
_KNOWN_MODULES = {m for modules, _, _ in _OPTIONS.values() for m in modules or ()} - {None}


class _RuleParser:
    """Parses one rulespec token list into [(match expr, action)].

    The `-s a,b` sugar produces one parsed rule per address; the caller
    receives a list of complete rules.
    """

    def __init__(self, tokens, family, lineno, memo):
        self.tokens = tokens
        self.family = family
        self.lineno = lineno
        self.memo = memo         # address text -> its set, for one parse_save call
        self.pos = 0
        self.terms = []          # list of (negated, primitive)
        self.action = rs.EMPTY
        self.alternatives = {}   # Src/Dst -> address sets of the `a,b` sugar
        self.proto = None        # last positively matched protocol
        self.module = None       # the current -m group
        self.group = []          # its options folded into one Extra

    def error(self, message):
        raise SyntaxError_(message, self.lineno)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        if self.pos >= len(self.tokens):
            self.error("unexpected end of rule")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def value(self, option):
        """The typed value of `option`; '!' and option-like tokens are not."""
        tok = self.peek()
        if tok is None or tok == "!" or tok.startswith("-"):
            self.error(f"{option} needs a value" + (f", not {tok!r}" if tok else ""))
        self.pos += 1
        return tok

    def addresses(self, text):
        wi = self.memo.get(text)
        if wi is None:
            wi = self.memo[text] = _at_line(parse_address_set, text, self.family, self.lineno)
        return wi

    def port_proto(self):
        if self.module in ("tcp", "udp", "sctp"):
            return rs.PROTO_NUMBERS[self.module]
        if self.proto in (6, 17, 132):
            return self.proto
        self.error("port match requires a tcp/udp/sctp protocol context")

    def end_group(self):
        if self.module is not None and (self.group or self.module not in _KNOWN_MODULES):
            self.terms.append((False, rs.Extra(" ".join(["-m", self.module, *self.group]))))
        self.module, self.group = None, []

    def parse(self):
        while (tok := self.peek()) is not None:
            negated = tok == "!"
            if negated:
                self.pos += 1
                if self.peek() in (None, "!"):
                    self.error("dangling '!'")
            start = self.pos
            option = self.next()
            modules, build, cls = _OPTIONS.get(option, ((), None, None))
            if modules is None or self.module in modules:
                if modules is None:
                    self.end_group()
                prim = build(self, option, cls, negated)
                if prim is not None:
                    self.terms.append((negated, prim))
                elif negated:
                    self.error(f"cannot negate {' '.join(self.tokens[start:self.pos])!r}")
                continue
            # an option the table does not know, with its values
            words = [option]
            while (p := self.peek()) is not None and p != "!" and not p.startswith("-"):
                words.append(self.next())
            if self.module is None:
                self.terms.append((negated, rs.Extra(" ".join(words))))
            else:
                self.group += ["!", *words] if negated else words
        self.end_group()
        return self.build_rules()

    def build_rules(self):
        base = [rs.MNot(rs.MPrim(p)) if negated else rs.MPrim(p) for negated, p in self.terms]
        choices = [[rs.MPrim(cls(wi)) for wi in self.alternatives[cls]]
                   for cls in (rs.Src, rs.Dst) if cls in self.alternatives]
        return [(rs.mand(*prefix, *base), self.action)
                for prefix in itertools.product(*choices)]


def _lines(text):
    """(line number, stripped line) of each line not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


# shlex's POSIX whitespace; any other character, NBSP included, is part of a word
_WORD = re.compile(r"[^ \t\r\n]+")


def _tokenize(line, lineno):
    """shlex.split(line) in POSIX mode, without comments.  A line with no
    quote or backslash, as iptables-save writes almost every line, is
    split on whitespace by one regex, which gives the same words."""
    if '"' not in line and "'" not in line and "\\" not in line:
        return _WORD.findall(line)
    try:
        return shlex.split(line, comments=False, posix=True)
    except ValueError as exc:
        raise SyntaxError_(f"tokenizer: {exc}", lineno) from None


def parse_save(text, family="v4") -> rs.Table:
    """Parse `iptables-save` output; only the filter table is interpreted."""
    chains: dict = {}
    policies: dict = {}
    address_memo: dict = {}  # lives as long as this call
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
        if head.startswith(":"):
            name = head[1:]
            if len(tokens) < 2:
                raise SyntaxError_("chain header needs a policy", lineno)
            policy = tokens[1]
            chains.setdefault(name, [])
            if policy == "ACCEPT":
                policies[name] = rs.ACCEPT
            elif policy == "DROP":
                policies[name] = rs.DROP
            elif policy != "-":
                raise SyntaxError_(f"unsupported chain policy {policy!r}", lineno)
            continue
        if head == "-P":
            if len(tokens) != 3 or tokens[2] not in ("ACCEPT", "DROP"):
                raise SyntaxError_("bad -P line", lineno)
            chains.setdefault(tokens[1], [])
            policies[tokens[1]] = rs.ACCEPT if tokens[2] == "ACCEPT" else rs.DROP
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
            parsed = _RuleParser(rest, family, lineno, address_memo).parse()
            rules[index - 1:index - 1] = [rs.Rule(m, a, raw=line) for m, a in parsed]
            continue
        raise SyntaxError_(f"unsupported directive {head!r}", lineno)
    if not saw_filter and not chains:
        raise SyntaxError_("no filter table found")
    table = rs.Table(chains, policies, family)
    table.validate()
    return table


def parse_ipassmt(text, family="v4") -> dict:
    """Interface/IP assignment file: one `name = [entries]` per line, where
    `all_but_those_ips` before the list complements the union.  A name is
    one exact interface; a `+` wildcard is rejected."""
    width = family_width(family)
    out = {}
    for lineno, line in _lines(text):
        name, eq, rhs = line.partition("=")
        name = name.strip()
        if not (eq and name):
            raise SyntaxError_("expected 'iface = [ranges]'", lineno)
        if name.endswith("+"):
            raise SyntaxError_(f"interface names are exact, not patterns: {name!r}", lineno)
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
    longest-prefix-match semantics are applied by the consumer."""
    routes = []
    for lineno, line in _lines(text):
        tokens = line.split()
        if tokens[0] == "default":
            tokens[0] = "::/0" if family == "v6" else "0.0.0.0/0"
        cidr = _at_line(parse_cidr, tokens[0], family, lineno)
        if "dev" not in tokens[:-1]:
            raise SyntaxError_("route line is missing 'dev <iface>'", lineno)
        routes.append((cidr, tokens[tokens.index("dev") + 1]))
    return routes
