"""Abstract syntax for iptables filter rules.

Match expressions form a tiny algebra (primitive, negation, conjunction,
True); rules pair a match expression with an action; a table maps chain
names to rule lists plus the built-in chains' default policies.

Each primitive decides a packet two ways: `matches` is its definition, and
`source` writes the same test as a Python expression for compile_match,
which turns a whole match expression into one predicate.
"""

from __future__ import annotations

import types
import weakref
from dataclasses import dataclass, field
from typing import Optional

from .errors import UndefinedChainTarget
from .wordinterval import WordInterval, ip_format

PROTO_NAMES = {
    1: "icmp",
    6: "tcp",
    17: "udp",
    47: "gre",
    50: "esp",
    51: "ah",
    58: "ipv6-icmp",
    132: "sctp",
}
PROTO_NUMBERS = {name: num for num, name in PROTO_NAMES.items()}

TCP_FLAG_ORDER = ("FIN", "SYN", "RST", "PSH", "ACK", "URG")
CT_STATES = ("NEW", "ESTABLISHED", "RELATED", "INVALID", "UNTRACKED")


# -- primitives --------------------------------------------------------------


@dataclass(frozen=True)
class Src:
    addrs: WordInterval

    def matches(self, p, oracle) -> bool:
        return p.src in self.addrs

    def source(self, c) -> str:
        return in_set("p.src", self.addrs, c)


@dataclass(frozen=True)
class Dst:
    addrs: WordInterval

    def matches(self, p, oracle) -> bool:
        return p.dst in self.addrs

    def source(self, c) -> str:
        return in_set("p.dst", self.addrs, c)


@dataclass(frozen=True)
class IIface:
    name: str  # trailing '+' is a prefix wildcard

    def matches(self, p, oracle) -> bool:
        return match_iface(self.name, p.iiface)

    def source(self, c) -> str:
        return iface_source("p.iiface", self.name, c)


@dataclass(frozen=True)
class OIface:
    name: str

    def matches(self, p, oracle) -> bool:
        return match_iface(self.name, p.oiface)

    def source(self, c) -> str:
        return iface_source("p.oiface", self.name, c)


@dataclass(frozen=True)
class Protocol:
    number: int

    def matches(self, p, oracle) -> bool:
        return p.protocol == self.number

    def source(self, c) -> str:
        return f"p.protocol == {c(self.number)}"


@dataclass(frozen=True)
class SrcPorts:
    proto: int  # ports only exist relative to a concrete protocol
    ports: WordInterval

    def matches(self, p, oracle) -> bool:
        return p.protocol == self.proto and p.sport in self.ports

    def source(self, c) -> str:
        return f"p.protocol == {c(self.proto)} and {in_set('p.sport', self.ports, c)}"


@dataclass(frozen=True)
class DstPorts:
    proto: int
    ports: WordInterval

    def matches(self, p, oracle) -> bool:
        return p.protocol == self.proto and p.dport in self.ports

    def source(self, c) -> str:
        return f"p.protocol == {c(self.proto)} and {in_set('p.dport', self.ports, c)}"


# multiport differs from -m tcp/udp ports only in how it prints
@dataclass(frozen=True)
class MultiportSrc:
    proto: int
    ports: WordInterval

    matches = SrcPorts.matches
    source = SrcPorts.source


@dataclass(frozen=True)
class MultiportDst:
    proto: int
    ports: WordInterval

    matches = DstPorts.matches
    source = DstPorts.source


@dataclass(frozen=True)
class CtState:
    states: frozenset

    def matches(self, p, oracle) -> bool:
        return p.ctstate in self.states

    def source(self, c) -> str:
        return f"p.ctstate in {c(self.states)}"


@dataclass(frozen=True)
class TcpFlags:
    mask: frozenset
    comp: frozenset

    def matches(self, p, oracle) -> bool:
        return (p.tcp_flags & self.mask) == self.comp

    def source(self, c) -> str:
        return f"p.tcp_flags & {c(self.mask)} == {c(self.comp)}"


@dataclass(frozen=True)
class Extra:
    """A match the semantics does not model; only an oracle can decide it."""

    text: str

    def matches(self, p, oracle) -> bool:
        return bool(oracle(self.text, p))

    def source(self, c) -> str:
        return f"not not o({c(self.text)}, p)"


PORT_PRIMITIVES = (SrcPorts, DstPorts, MultiportSrc, MultiportDst)


def match_iface(pattern: str, name: str) -> bool:
    """iptables interface matching: a trailing '+' matches any suffix."""
    if pattern.endswith("+"):
        return name.startswith(pattern[:-1])
    return name == pattern


def iface_conj(a: str, b: str) -> Optional[str]:
    """Conjunction of two interface patterns; None when unsatisfiable.
    Non-wildcard names dominate wildcard patterns."""
    a_wild, b_wild = a.endswith("+"), b.endswith("+")
    if not a_wild and not b_wild:
        return a if a == b else None
    if a_wild and not b_wild:
        return b if b.startswith(a[:-1]) else None
    if b_wild and not a_wild:
        return a if a.startswith(b[:-1]) else None
    ap, bp = a[:-1], b[:-1]
    if ap.startswith(bp):
        return a
    if bp.startswith(ap):
        return b
    return None


# -- match expressions -------------------------------------------------------


class MatchExpr:
    """A match expression; `holds(packet, oracle)` is its exact Boolean
    semantics, with Extra primitives decided by the oracle.
    `compiled(packet, oracle)` decides the same by the node's compiled
    predicate: the first call compiles it and caches it on the node, where
    it shadows this method."""

    __slots__ = ()

    def compiled(self, p, oracle=None) -> bool:
        return compile_match(self)(p, oracle)


class _MTrue(MatchExpr):
    """The match every packet satisfies.  There is one instance, which
    construction, copying and pickling all return, so that `m is MTrue`
    tests for truth."""

    __slots__ = ()

    def __new__(cls):
        return MTrue

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return "MTrue"

    def holds(self, p, oracle) -> bool:
        return True

    def compiled(self, p, oracle=None) -> bool:
        return True

    def __repr__(self):
        return "MTrue"

    def __hash__(self):  # by name, so that it is the same in every run of one hash seed
        return hash("MTrue")


MTrue = object.__new__(_MTrue)


@dataclass(frozen=True)
class MPrim(MatchExpr):
    prim: object

    def holds(self, p, oracle) -> bool:
        return self.prim.matches(p, oracle)


@dataclass(frozen=True)
class MNot(MatchExpr):
    inner: MatchExpr

    def holds(self, p, oracle) -> bool:
        return not self.inner.holds(p, oracle)


@dataclass(frozen=True)
class MAnd(MatchExpr):
    left: MatchExpr
    right: MatchExpr

    def holds(self, p, oracle) -> bool:
        return self.left.holds(p, oracle) and self.right.holds(p, oracle)


MNotTrue = MNot(MTrue)


def is_false(m: MatchExpr) -> bool:
    """Whether m is not-True, MNotTrue or another MNot(MTrue) node."""
    return type(m) is MNot and m.inner is MTrue


def mand(*exprs) -> MatchExpr:
    """Right-nested conjunction with True/NotTrue short-circuiting."""
    out = MTrue
    for e in reversed(exprs):
        if is_false(e):
            return MNotTrue
        if e is not MTrue:
            out = e if out is MTrue else MAnd(e, out)
    return out


def conjuncts(m: MatchExpr):
    """Flatten a conjunction tree into its leaves (drops True), left to
    right; iterative, so a conjunction of any depth flattens."""
    out, stack = [], [m]
    while stack:
        m = stack.pop()
        if isinstance(m, MAnd):
            stack += (m.right, m.left)
        elif m is not MTrue:
            out.append(m)
    return out


def opt_match(m: MatchExpr) -> MatchExpr:
    """Simplify away True and not-True subterms.  A subterm with nothing
    to simplify is returned as it is, so that an unfolded rule shares its
    nodes (and their compiled predicates) with the table."""
    if isinstance(m, MAnd):
        left, right = opt_match(m.left), opt_match(m.right)
        if is_false(left) or is_false(right):
            return MNotTrue
        if left is MTrue:
            return right
        if right is MTrue:
            return left
        return m if left is m.left and right is m.right else MAnd(left, right)
    if isinstance(m, MNot):
        inner = opt_match(m.inner)
        if isinstance(inner, MNot):
            return inner.inner
        return m if inner is m.inner else MNot(inner)
    return m


# -- compiled matching ---------------------------------------------------------

# A predicate is `def match(p, o, c0, c1, ...): return <expression>` over the
# packet p and the oracle o.  Every value taken from a match is a constant
# c<i>, passed as the parameter's default, so the source depends only on the
# match's shape and one code object serves every match of that shape.
# Equal matches of one shape (rules repeated by unfolding and closure) share
# one function while any of them lives.

_SHAPES = {}  # predicate source -> (its code, {defaults: function}, weakly)
_GLOBALS = {"__builtins__": {}}

# `not (...)` levels written into one predicate; a deeper negation is called
# as its own compiled predicate, which keeps the source far inside every
# CPython compiler's nesting limits (200 parentheses in the tokenizer).
_INLINE_NEGATIONS = 32


class Params(list):
    """The constants of one predicate: calling it with a value appends the
    value and returns the parameter name that stands for it."""

    def __call__(self, value) -> str:
        self.append(value)
        return f"c{len(self) - 1}"


def predicate(terms, params):
    """The compiled conjunction of the expressions `terms` (True when there
    are none), as a function (packet, oracle=None) -> bool."""
    names = "".join(f", c{i}" for i in range(len(params)))
    source = f"def match(p, o{names}):\n    return {' and '.join(terms) or 'True'}\n"
    shape = _SHAPES.get(source)
    if shape is None:
        namespace = {}
        exec(source, _GLOBALS, namespace)
        shape = _SHAPES[source] = (namespace["match"].__code__, weakref.WeakValueDictionary())
    code, made = shape
    defaults = (None, *params)
    fn = made.get(defaults)
    if fn is None:
        fn = made[defaults] = types.FunctionType(code, _GLOBALS, None, defaults)
    return fn


def in_set(field: str, wi: WordInterval, c) -> str:
    """The test `field in wi`: a range comparison when wi is one range."""
    if len(wi.parts) == 1:
        (lo, hi), = wi.parts
        return f"{c(lo)} <= {field} <= {c(hi)}"
    return f"{field} in {c(wi)}"


def iface_source(field: str, pattern: str, c) -> str:
    """match_iface(pattern, field) as an expression."""
    if pattern.endswith("+"):
        return f"{field}.startswith({c(pattern[:-1])})"
    return f"{field} == {c(pattern)}"


def _terms(m: MatchExpr, c, nested, depth):
    """One expression per conjunct of m; a negation past the inline depth
    becomes a call of a parameter, recorded in `nested` with its node."""
    out = []
    for leaf in conjuncts(m):
        if isinstance(leaf, MPrim):
            out.append(leaf.prim.source(c))
        elif depth == _INLINE_NEGATIONS:
            nested.append((len(c), leaf))
            out.append(f"{c(None)}(p, o)")
        else:
            inner = " and ".join(_terms(leaf.inner, c, nested, depth + 1)) or "True"
            out.append(f"not ({inner})")
    return out


def compile_match(m: MatchExpr):
    """The predicate (packet, oracle=None) -> bool that decides m.holds,
    compiled once and cached on the node as its `compiled` attribute.
    Subtrees past the inline depth are compiled after m's source is
    written, so the stack grows by one frame per 32 levels of negation."""
    fn = m.compiled
    if isinstance(fn, types.MethodType) and m is not MTrue:  # not compiled yet
        c, nested = Params(), []
        terms = _terms(m, c, nested, 0)
        for i, node in nested:
            c[i] = compile_match(node)
        fn = predicate(terms, c)
        object.__setattr__(m, "compiled", fn)  # frozen; leaves the node's dict unbuilt
    return fn


def primitives_in(m: MatchExpr):
    if m is MTrue:
        return
    if isinstance(m, MPrim):
        yield m.prim
    elif isinstance(m, MNot):
        yield from primitives_in(m.inner)
    else:
        yield from primitives_in(m.left)
        yield from primitives_in(m.right)


# -- actions and rules -------------------------------------------------------


@dataclass(frozen=True)
class Action:
    kind: str
    chain: Optional[str] = None


ACCEPT = Action("accept")
DROP = Action("drop")
REJECT = Action("reject")
LOG = Action("log")
EMPTY = Action("empty")
RETURN = Action("return")


def call(chain):
    return Action("call", chain)


def goto(chain):
    return Action("goto", chain)


@dataclass(frozen=True)
class Rule:
    match: MatchExpr
    action: Action
    raw: Optional[str] = field(default=None, compare=False)


@dataclass
class Table:
    chains: dict
    policies: dict
    family: str = "v4"

    BUILTIN = ("INPUT", "FORWARD", "OUTPUT")

    def validate(self):
        for name, rules in self.chains.items():
            for rule in rules:
                if rule.action.kind in ("call", "goto") and rule.action.chain not in self.chains:
                    raise UndefinedChainTarget(
                        f"chain {name!r} targets undefined chain {rule.action.chain!r}"
                    )


# -- printing back to iptables-save text -------------------------------------


def _ports_text(wi: WordInterval) -> str:
    chunks = []
    for lo, hi in wi.parts:
        chunks.append(str(lo) if lo == hi else f"{lo}:{hi}")
    return ",".join(chunks)


def _flags_text(flags: frozenset) -> str:
    if not flags:
        return "NONE"
    return ",".join(f for f in TCP_FLAG_ORDER if f in flags)


# port primitive -> (module, or None for the protocol's own, option)
_PORT_OPTIONS = {SrcPorts: (None, "--sport"), DstPorts: (None, "--dport"),
                 MultiportSrc: ("multiport", "--sports"), MultiportDst: ("multiport", "--dports")}


def prim_to_args(prim, negated=False, family="v4") -> str:
    bang = "! " if negated else ""
    if isinstance(prim, (Src, Dst)):
        if len(prim.addrs.parts) != 1:
            raise ValueError("cannot print a fragmented address set in one rule")
        cidrs = prim.addrs.to_cidrs()
        flag, end = ("-s", "src") if isinstance(prim, Src) else ("-d", "dst")
        if len(cidrs) == 1:
            return f"{bang}{flag} {cidrs[0]}"
        (lo, hi), = prim.addrs.parts
        return f"-m iprange {bang}--{end}-range {ip_format(lo, family)}-{ip_format(hi, family)}"
    if isinstance(prim, IIface):
        return f"{bang}-i {prim.name}"
    if isinstance(prim, OIface):
        return f"{bang}-o {prim.name}"
    if isinstance(prim, Protocol):
        return f"{bang}-p {PROTO_NAMES.get(prim.number, str(prim.number))}"
    if isinstance(prim, PORT_PRIMITIVES):
        module, option = _PORT_OPTIONS[type(prim)]
        module = module or PROTO_NAMES.get(prim.proto, str(prim.proto))
        return f"-m {module} {bang}{option} {_ports_text(prim.ports)}"
    if isinstance(prim, CtState):
        states = ",".join(s for s in CT_STATES if s in prim.states)
        return f"-m state {bang}--state {states}"
    if isinstance(prim, TcpFlags):
        return f"-m tcp {bang}--tcp-flags {_flags_text(prim.mask)} {_flags_text(prim.comp)}"
    if isinstance(prim, Extra):
        return f"{bang}{prim.text}"
    raise ValueError(f"cannot print primitive {prim!r}")


def match_to_args(m: MatchExpr, family="v4") -> str:
    pieces = []
    for leaf in conjuncts(m):
        if isinstance(leaf, MPrim):
            pieces.append(prim_to_args(leaf.prim, family=family))
        elif isinstance(leaf, MNot) and isinstance(leaf.inner, MPrim):
            pieces.append(prim_to_args(leaf.inner.prim, negated=True, family=family))
        else:
            raise ValueError(f"match not in printable NNF conjunction form: {leaf!r}")
    return " ".join(pieces)


def action_to_args(action: Action) -> str:
    kind = action.kind
    if kind == "call":
        return f"-j {action.chain}"
    if kind == "goto":
        return f"-g {action.chain}"
    if kind == "empty":
        return ""
    return "-j " + {"accept": "ACCEPT", "drop": "DROP", "reject": "REJECT",
                    "log": "LOG", "return": "RETURN"}[kind]


def table_to_save(table: Table) -> str:
    lines = ["*filter"]
    ordered = [c for c in Table.BUILTIN if c in table.chains]
    ordered += sorted(c for c in table.chains if c not in Table.BUILTIN)
    for chain in ordered:
        policy = table.policies.get(chain)
        ptext = {None: "-", ACCEPT: "ACCEPT", DROP: "DROP"}[policy]
        lines.append(f":{chain} {ptext} [0:0]")
    for chain in ordered:
        for rule in table.chains[chain]:
            args = match_to_args(rule.match, table.family)
            act = action_to_args(rule.action)
            body = " ".join(x for x in (args, act) if x)
            lines.append(f"-A {chain} {body}".rstrip())
    lines.append("COMMIT")
    return "\n".join(lines) + "\n"
