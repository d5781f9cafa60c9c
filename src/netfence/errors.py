"""Exception hierarchy shared by all netfence modules, and the one JSON
reader (load_json) and indent-2 JSON writer (json_block, json_pairs)."""

import json


class NetfenceError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(NetfenceError):
    """A command line that is malformed or combines options that cannot
    work together."""


class UnreadableInput(NetfenceError):
    """An input file that does not exist or cannot be read as text."""


class WidthMismatch(NetfenceError):
    pass


class IllformedCidr(NetfenceError):
    pass


class ParseError(NetfenceError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"{message} (line {line})")


class SyntaxError_(ParseError):
    """Syntax error in an input file.  Named with a trailing underscore to
    avoid shadowing the builtin."""


class UnknownAction(ParseError):
    pass


class UndefinedChainTarget(ParseError):
    pass


class DanglingEndpoint(NetfenceError):
    def __init__(self, host):
        self.host = host
        super().__init__(f"edge endpoint {host!r} is not a declared node")


class AttrTypeMismatch(NetfenceError):
    pass


class IllformedTaints(NetfenceError):
    pass


class NoDefault(NetfenceError):
    pass


class UnknownHost(NetfenceError):
    pass


class TooLargeForBruteForce(NetfenceError):
    pass


class PreconditionViolated(NetfenceError):
    pass


class IllformedRuleset(NetfenceError):
    pass


class UnfoldBoundExceeded(IllformedRuleset):
    pass


class CallCycle(UnfoldBoundExceeded):
    """A chain that reaches itself through calls or gotos: unfolding it
    never reaches a fixpoint, and the kernel rejects such a ruleset."""


class CallsTooDeep(UnfoldBoundExceeded):
    """Calls, gotos and RETURNs before rules nested deeper than
    semantics.MAX_CALL_DEPTH: the unfolded matches nest as deep, and the
    recursive match helpers would exhaust Python's recursion limit."""


class TooManyUnfoldedRules(UnfoldBoundExceeded):
    """A chain whose unfolding has more than semantics.MAX_UNFOLDED_RULES
    rules, as calls that fan out do: a chain that calls the next one twice
    doubles the rules at each level.  unfold and the big-step evaluator
    both refuse it."""


class TooManyBoxes(UnfoldBoundExceeded):
    """A rule whose unfolded match splits into more than simplefw.MAX_BOXES
    distinct boxes, as RETURNs that cut different fields before it can
    make it: each such RETURN may double the boxes of the rules after it."""


class IllformedSpec(NetfenceError):
    """A JSON input (invariants, policy, host binding) that is not valid
    JSON or not of the documented shape."""


def load_json(text, what):
    """Decode the JSON text of an input; a syntax error, an integer past
    Python's digit limit or nesting past the decoder's recursion limit is
    IllformedSpec."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or the int digit limit
        raise IllformedSpec(f"{what}: not valid JSON ({exc})") from None
    except RecursionError:
        raise IllformedSpec(f"{what}: JSON nested too deeply") from None


# The one indent-2 JSON writer.  json.dumps(..., indent=2) runs the pure-
# Python encoder whenever `indent` is set; these functions write the same
# text, quoting strings with the C function that json.dumps itself uses.
json_string = json.encoder.encode_basestring_ascii


def json_block(items, depth, brackets="[]"):
    """A JSON array (or, with brackets "{}", object) at nesting depth
    `depth`, as json.dumps(..., indent=2) writes it, of items that are
    already written for depth + 1."""
    if not items:
        return brackets
    pad = "\n" + "  " * depth
    return brackets[0] + pad + "  " + ("," + pad + "  ").join(items) + pad + brackets[1]


def json_pairs(pairs, depth):
    """A JSON array at nesting depth `depth` of the [a, b] string arrays,
    in the order given, as json.dumps(..., indent=2) writes it.  Each
    distinct string is quoted once, together with what it is written
    between as the first or the second of a pair."""
    inner = "\n" + "  " * (depth + 2)
    outer = "\n" + "  " * (depth + 1)
    names = {s for pair in pairs for s in pair}
    first = {s: "[" + inner + json_string(s) + "," + inner for s in names}
    second = {s: json_string(s) + outer + "]" for s in names}
    return json_block([first[a] + second[b] for a, b in pairs], depth)


class IllformedService(NetfenceError):
    """A --service name that is no preset and no valid <proto>:<port>."""


class ConsistencyError(NetfenceError):
    """A computed result failed its own consistency check (a bug)."""


class UnsupportedResidue(NetfenceError):
    """A primitive reached simple-firewall preparation that an earlier
    stage must remove: conntrack state before ctstate_specialize."""


class MissingFinalRule(NetfenceError):
    pass


class UnboundHost(NetfenceError):
    pass
