"""Executable firewall semantics and the ruleset transformations built on it.

The big-step evaluator serves as test oracle for everything else: chain
unfolding flattens Call/Return/Goto control flow into a plain rule list,
and the closure step resolves the match conditions the caller does not
understand (Unknown in a three-valued reading) toward accept (upper
closure) or deny (lower closure).

Unfolding treats a goto as a call followed by a Return on the same
match: a packet the goto takes never comes back to the rest of its
chain, whether the target decides, returns or falls through, which is
exactly what the Return says.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import ruleset as rs
from .errors import CallCycle, CallsTooDeep, IllformedRuleset, TooManyUnfoldedRules
from .ruleset import (
    MAnd,
    MNot,
    MPrim,
    MTrue,
    MNotTrue,
    MatchExpr,
    Rule,
    Table,
    is_false,
    mand,
    opt_match,
)

ALLOW = "allow"
DENY = "deny"
UNDECIDED = "undecided"

SYN_MASK = frozenset({"FIN", "SYN", "RST", "ACK"})
SYN_COMP = frozenset({"SYN"})


@dataclass(frozen=True)
class Packet:
    """An immutable packet as seen by the filter table; conntrack state is
    modeled as just another header field."""

    iiface: str = "eth0"
    oiface: str = "eth0"
    src: int = 0
    dst: int = 0
    protocol: int = 6
    sport: int = 10000
    dport: int = 80
    tcp_flags: frozenset = frozenset({"SYN"})
    ctstate: str = "NEW"

    def with_(self, **kwargs):
        return replace(self, **kwargs)


def default_known(prim) -> bool:
    """Primitives the built-in matcher understands (everything but Extra)."""
    return not isinstance(prim, rs.Extra)


def _no_oracle(extra_text, packet):
    return False


def _default_matcher(m, p):
    return m.compiled(p, _no_oracle)


def bool_matcher(oracle=None):
    """Exact Boolean matcher; Extra primitives are resolved by the given
    oracle (default: never match), making the 'magic oracle' concrete.
    Each match is decided by its compiled predicate (ruleset.compile_match),
    which the first packet compiles and every later one reuses; without an
    oracle, every caller shares one matcher."""
    if oracle is None:
        return _default_matcher
    return lambda m, p: m.compiled(p, oracle)


# -- big-step evaluation ------------------------------------------------------

# Calls may nest this deep, each RETURN before a rule (a goto is a call and
# a RETURN) counting as a call: the rule's unfolded match nests one level
# per call and per such RETURN, and the recursive match helpers (opt_match,
# _rewrite_positive, simplefw._preboxes, spoofing._bounds) take one frame per
# level; 500 leaves half of Python's default recursion limit to the rest.
MAX_CALL_DEPTH = 500

# unfold refuses a chain whose unfolding, before optimize_rules and with
# the default policy, has more rules than this: a chain that calls the
# next one twice doubles the rules at each level.  The V = 1,000 emitted
# zone ruleset unfolds to 400,246 rules.
MAX_UNFOLDED_RULES = 1_000_000


def _check_calls(table: Table, start_chain: str) -> dict:
    """Static sanity: all targets defined, and the call graph (calls and
    gotos) from the start chain acyclic and at most MAX_CALL_DEPTH levels
    deep, counting the RETURNs before each rule.  A cycle raises
    CallCycle naming a chain on it; deeper nesting raises CallsTooDeep
    naming the first chain past the bound on a deepest path.  Iterative,
    so any nesting gets this far.  Returns, for each chain the start
    chain reaches, in post-order, the number of rules its unfolding has
    before optimize_rules: a call or goto counts its callee's, a RETURN
    none and any other rule one."""
    table.validate()
    if start_chain not in table.chains:
        raise IllformedRuleset(f"start chain {start_chain!r} does not exist")
    below = {}  # chain -> {callee: RETURNs before its last call}; None: before its last rule
    depth = {None: -1}  # finished chain -> levels on the deepest path from it
    size = {}  # finished chain -> the rules of its unfolding
    on_path, stack = set(), []  # the chains being visited, with their pending targets

    def enter(chain):
        returns, below[chain] = 0, {}
        for r in table.chains[chain]:
            if r.action.kind == "return":
                returns += 1
                continue
            below[chain][None] = returns  # the first key, so that ties name the chain itself
            if r.action.kind in ("call", "goto"):
                below[chain][r.action.chain] = returns
                returns += r.action.kind == "goto"
        on_path.add(chain)
        stack.append((chain, filter(None, below[chain])))

    def deepest(chain):  # the callee on a deepest path from chain; None for its own rules
        return max(below[chain], key=lambda c: below[chain][c] + 1 + depth[c], default=None)

    enter(start_chain)
    while stack:
        chain, pending = stack[-1]
        target = next(pending, None)
        if target is None:
            stack.pop()
            on_path.remove(chain)
            depth[chain] = max((n + 1 + depth[c] for c, n in below[chain].items()), default=0)
            size[chain] = sum(size[r.action.chain] if r.action.kind in ("call", "goto")
                              else r.action.kind != "return" for r in table.chains[chain])
        elif target in on_path:
            raise CallCycle(f"calling loop through chain {target!r}")
        elif target not in depth:
            enter(target)
    if depth[start_chain] > MAX_CALL_DEPTH:
        chain, level = start_chain, 0  # follow a deepest path to the chain that passes the bound
        while (level <= MAX_CALL_DEPTH and (target := deepest(chain)) is not None
               and level + below[chain][target] <= MAX_CALL_DEPTH):
            chain, level = target, level + below[chain][target] + 1
        raise CallsTooDeep(f"chain {chain!r} is nested more than {MAX_CALL_DEPTH} calls deep, "
                           "counting each RETURN before a rule as one")
    return size


def _check_unfolding(table: Table, start_chain: str) -> None:
    """_check_calls, then TooManyUnfoldedRules naming the first chain,
    callees before callers, whose unfolding has more than
    MAX_UNFOLDED_RULES rules: one packet's evaluation may visit as many."""
    for chain, n in _check_calls(table, start_chain).items():
        if n + (chain == start_chain) > MAX_UNFOLDED_RULES:  # the wrapper adds the policy
            raise TooManyUnfoldedRules(f"chain {chain!r} unfolds to more than "
                                       f"{MAX_UNFOLDED_RULES:,} rules")


def bigstep_evaluator(table: Table, start_chain: str, matcher=None, trace=None):
    """Build a packet -> state evaluator that runs a packet through a chain
    of the filter table, with the static checks done once.

    Evaluation is wrapped as [(True, Call start), (True, default-policy)],
    so a Return on top level of the start chain falls through to the
    default policy.  Deterministic; always returns ALLOW or DENY.  A chain
    that unfold refuses for its size is refused here too.
    """
    _check_unfolding(table, start_chain)
    policy = table.policies.get(start_chain)
    if policy is None:
        raise IllformedRuleset(f"chain {start_chain!r} has no default policy")
    matcher = matcher or _default_matcher
    default_state = ALLOW if policy == rs.ACCEPT else DENY

    def run_chain(name, rules, packet):
        """Returns ('decision', state) | ('fallthrough',) | ('return',)."""
        for idx, rule in enumerate(rules):
            matched = matcher(rule.match, packet)
            if trace is not None:
                trace.append(f"{name}:{idx} {'match' if matched else 'skip'} {rule.action.kind}")
            if not matched:
                continue
            kind = rule.action.kind
            if kind == "accept":
                return ("decision", ALLOW)
            if kind in ("drop", "reject"):
                return ("decision", DENY)
            if kind in ("log", "empty"):
                continue
            if kind == "return":
                return ("return",)
            if kind == "call":
                sub = run_chain(rule.action.chain, table.chains[rule.action.chain], packet)
                if sub[0] == "decision":
                    return sub
                continue  # a Return in the called chain resumes here
            if kind == "goto":
                sub = run_chain(rule.action.chain, table.chains[rule.action.chain], packet)
                if sub[0] == "decision":
                    return sub
                return ("fallthrough",)  # goto never comes back
            raise IllformedRuleset(f"action {kind!r} not supported by the semantics")
        return ("fallthrough",)

    def evaluate(packet: Packet) -> str:
        result = run_chain(start_chain, table.chains[start_chain], packet)
        if result[0] == "decision":
            return result[1]
        return default_state

    return evaluate


# -- custom chain unfolding ---------------------------------------------------


def process_return(rules):
    """pr: Return rules vanish; later rules require the Return not to
    match.  The rules before the first Return are kept as they are."""
    out = []
    prefix = []  # negated matches of the Returns seen so far
    for r in rules:
        if r.action.kind == "return":
            prefix.append(MNot(r.match))
        else:
            out.append(Rule(mand(*prefix, r.match), r.action, r.raw) if prefix else r)
    return out


def process_call(rules, chains):
    """pc: unfold one level of Call, conjoining the call's match in front
    of each rule of the called chain.  A call that always matches inlines
    the chain's rules as they are, and every other rule is kept as it is."""
    out = []
    for r in rules:
        if r.action.kind == "call":
            out += [c if r.match is MTrue else Rule(mand(r.match, c.match), c.action, c.raw)
                    for c in process_return(chains[r.action.chain])]
        else:
            out.append(r)
    return out


def optimize_rules(rules):
    """Simplify matches, drop never-matching and Log/Empty rules, rewrite
    Reject to Drop, and cut everything shadowed by a final catch-all.  A
    rule with nothing to simplify or rewrite is kept as it is."""
    out = []
    for r in rules:
        m = opt_match(r.match)
        if is_false(m):
            continue
        action = r.action
        if action.kind == "reject":
            action = rs.DROP
        if action.kind in ("log", "empty"):
            continue
        out.append(r if m is r.match and action is r.action else Rule(m, action, r.raw))
        if m is MTrue and action.kind in ("accept", "drop"):
            break
    return out


def _goto_as_call_return(rules):
    """(m, Goto c) becomes (m, Call c) followed by (m, Return): whatever
    returns or falls through from c then ends the goto's chain, and the
    chain's later rules get the goto's negated match from process_return."""
    out = []
    for r in rules:
        if r.action.kind == "goto":
            out += [Rule(r.match, rs.call(r.action.chain), r.raw), Rule(r.match, rs.RETURN, r.raw)]
        else:
            out.append(r)
    return out


def unfold(table: Table, start_chain: str) -> list:
    """Flatten a chain into an equivalent Accept/Drop rule list.

    The evaluation wrapper [(True, Call start), (True, default-policy)] is
    materialized, each goto becomes a call followed by a Return on the
    same match (exact for any target chain), calls are unfolded to a
    fixpoint, Rejects become Drops, Log/Empty disappear.  A call cycle,
    which the kernel rejects and which has no fixpoint, raises CallCycle
    before the first unfolding step; an unfolding of more than
    MAX_UNFOLDED_RULES rules raises TooManyUnfoldedRules, naming the first
    chain, callees before callers, whose unfolding passes the bound.
    """
    _check_unfolding(table, start_chain)
    policy = table.policies.get(start_chain)
    if policy is None or policy.kind not in ("accept", "drop"):
        raise IllformedRuleset(f"chain {start_chain!r} has no Accept/Drop default policy")
    chains = {name: _goto_as_call_return(rules) for name, rules in table.chains.items()}
    rules = [Rule(MTrue, rs.call(start_chain)), Rule(MTrue, policy)]
    while any(r.action.kind == "call" for r in rules):
        rules = process_call(rules, chains)
    rules = optimize_rules(rules)
    for r in rules:
        if r.action.kind not in ("accept", "drop"):
            raise IllformedRuleset(f"unfolding left a {r.action.kind} rule")
    return rules


def simple_list_eval(rules, packet: Packet, matcher=None) -> str:
    """First-match evaluation of an unfolded rule list (with default None)."""
    matcher = matcher or _default_matcher
    for r in rules:
        if matcher(r.match, packet):
            if r.action.kind == "accept":
                return ALLOW
            if r.action.kind in ("drop", "reject"):
                return DENY
            raise IllformedRuleset(f"simple list cannot contain {r.action.kind!r}")
    return UNDECIDED


# -- closures: removing unknowns ----------------------------------------------


def _pu(m: MatchExpr, action_kind: str, tactic: str, known) -> MatchExpr:
    """Rewrite unknown subexpressions to True / not-True per the tactic."""

    def for_unknown():
        matches = (action_kind == "accept") == (tactic == "in_doubt_allow")
        return MTrue if matches else MNotTrue

    if m is MTrue:
        return MTrue
    if isinstance(m, MPrim):
        return m if known(m.prim) else for_unknown()
    if isinstance(m, MAnd):
        return mand(_pu(m.left, action_kind, tactic, known),
                    _pu(m.right, action_kind, tactic, known))
    # m is a negation
    inner = m.inner
    if inner is MTrue:
        return MNotTrue
    if isinstance(inner, MPrim):
        return m if known(inner.prim) else for_unknown()
    if isinstance(inner, MNot):
        return _pu(inner.inner, action_kind, tactic, known)
    # negated conjunction: the specialized De Morgan case
    a = _pu(MNot(inner.left), action_kind, tactic, known)
    b = _pu(MNot(inner.right), action_kind, tactic, known)
    if a is MTrue or b is MTrue:
        return MTrue
    if is_false(a):
        return b
    if is_false(b):
        return a
    return MNot(MAnd(MNot(a), MNot(b)))


def closure(rules, tactic="in_doubt_allow", known=default_known) -> list:
    """Remove every unknown primitive from an Accept/Drop rule list.

    in_doubt_allow yields the upper closure (accepts a superset of the
    exact semantics), in_doubt_deny the lower closure (a subset).
    """
    if tactic not in ("in_doubt_allow", "in_doubt_deny"):
        raise ValueError(f"unknown tactic {tactic!r}")
    out = []
    for r in rules:
        if r.action.kind not in ("accept", "drop"):
            raise IllformedRuleset("closure needs an unfolded Accept/Drop list")
        out.append(Rule(_pu(r.match, r.action.kind, tactic, known), r.action, r.raw))
    return optimize_rules(out)


# -- NNF normalization ---------------------------------------------------------


def normalize_nnf(m: MatchExpr) -> list:
    """Split a match expression into a list of NNF conjunctions whose
    disjunction is equivalent to the input.

    Each conjunction is a tuple of literals (a primitive or a negated
    primitive); True is the empty tuple.  Repeated conjunctions are
    dropped, keeping the first.  Negated port primitives expand
    protocol-aware: not (proto ports) becomes [not proto, proto and
    complement-ports].  The definitional oracle of simplefw's box walk,
    which the analysis runs instead.
    """
    if m is MTrue:
        return [()]
    if isinstance(m, MPrim):
        return [(m,)]
    if isinstance(m, MAnd):
        right = normalize_nnf(m.right)
        return list(dict.fromkeys(x + y for x in normalize_nnf(m.left) for y in right))
    inner = m.inner
    if inner is MTrue:
        return []
    if isinstance(inner, MNot):
        return normalize_nnf(inner.inner)
    if isinstance(inner, MAnd):
        return list(dict.fromkeys(normalize_nnf(MNot(inner.left))
                                  + normalize_nnf(MNot(inner.right))))
    # negated primitive
    prim = inner.prim
    if isinstance(prim, rs.Ports):
        proto = MPrim(rs.Protocol(prim.proto))
        return [(MNot(proto),), (proto, MPrim(type(prim)(prim.proto, prim.ports.complement())))]
    return [(m,)]


def normalize_rules(rules) -> list:
    """NNF-normalize a rule list: one (literal tuple, rule) pair per
    disjunct of each rule's match, in rule order."""
    return [(lits, r) for r in rules for lits in normalize_nnf(r.match)]


# -- conntrack state specialization --------------------------------------------


def _conj_flags(a: rs.TcpFlags, b: rs.TcpFlags):
    """Conjunction of two flag matches: a single match or None (empty)."""
    if not (a.comp <= a.mask and b.comp <= b.mask):
        return None
    if a.mask & b.mask & a.comp != a.mask & b.mask & b.comp:
        return None
    return rs.TcpFlags(a.mask | b.mask, a.comp | b.comp)


_SYN = rs.TcpFlags(SYN_MASK, SYN_COMP)


def ctstate_specialize(rules, assumed="NEW") -> list:
    """Pre-evaluate conntrack state matches for packets in a fixed state.

    The rules are unfold's output: optimized Accept/Drop rules.  For NEW,
    the --syn assumption is applied to TCP flag matches: matches equal to
    --syn vanish, contradictory ones kill their rule, the rest keep the
    conjunction for later abstraction.  A subtree the assumption leaves
    alone is kept as it is, so that the specialized rules share their
    nodes (and compiled predicates) with the input, and so is a rule whose
    match it leaves alone; only a changed match is optimized again.  A
    rule that can no longer match is dropped, and a rule that now always
    matches is the last.
    """
    def rewrite(node):
        prim = node.prim
        if isinstance(prim, rs.CtState):
            return MTrue if assumed in prim.states else MNotTrue
        if assumed == "NEW" and isinstance(prim, rs.TcpFlags):
            merged = _conj_flags(prim, _SYN)
            if merged is None:
                return MNotTrue
            if merged == _SYN:
                return MTrue
            return node if merged == prim else MPrim(merged)
        return node

    out = []
    for r in rules:
        m = _rewrite_positive(r.match, rewrite)
        if m is not r.match:
            m = opt_match(m)
            if is_false(m):
                continue
            r = Rule(m, r.action, r.raw)
        out.append(r)
        if m is MTrue:
            break
    return out


def _rewrite_positive(m: MatchExpr, fn):
    """Apply fn to the MPrim nodes in positive position; under a negation
    only state primitives are rewritten (flag assumptions are not sound
    there).  An unchanged subtree is returned as it is."""
    if m is MTrue:
        return m
    if isinstance(m, MPrim):
        return fn(m)
    if isinstance(m, MAnd):
        left, right = _rewrite_positive(m.left, fn), _rewrite_positive(m.right, fn)
        return m if left is m.left and right is m.right else mand(left, right)
    # negation: only constant-fold state lookups
    def neg_fn(node):
        return fn(node) if isinstance(node.prim, rs.CtState) else node

    inner = _rewrite_positive(m.inner, neg_fn)
    return m if inner is m.inner else MNot(inner)
