"""Exception hierarchy shared by all netfence modules."""

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
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + where)


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


class IllformedService(NetfenceError):
    """A --service name that is no preset and no valid <proto>:<port>."""


class ConsistencyError(NetfenceError):
    """A computed result failed its own consistency check (a bug)."""


class UnsupportedResidue(NetfenceError):
    """A primitive reached simple-firewall preparation that an earlier
    stage must remove: conntrack state before ctstate_specialize."""


class MissingFinalRule(NetfenceError):
    pass


class IfaceNotInIpassmt(NetfenceError):
    pass


class UnboundHost(NetfenceError):
    pass
