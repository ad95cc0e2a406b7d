"""Exception family shared by all engine modules."""


class CupError(Exception):
    """Base class for every error raised by this package."""


class UsageError(CupError, ValueError):
    """A bad setting or option value: an unknown calculus, a depth limit
    below one, a non-integer numeric setting, a missing `--calculus`, a
    `model --goal` that is not an atom, an unknown example."""


# --- terms ---------------------------------------------------------------

class UnboundConstant(CupError):
    pass


class UnboundVariable(CupError):
    pass


class TypeMismatch(CupError):
    pass


class FixBodyNotAbstraction(CupError):
    pass


class NoFixRedex(CupError):
    pass


class NotFirstOrder(CupError):
    pass


class NonFirstOrderSignature(CupError):
    pass


# --- guardedness / formulas ----------------------------------------------

class NotAnAtom(CupError):
    pass


class PreconditionViolated(CupError):
    pass


class IllTyped(CupError):
    pass


class NonHConvertibleClause(CupError):
    pass


# --- parser ----------------------------------------------------------------

class ParseError(CupError):
    """Syntax error with a (line, column) source span."""

    def __init__(self, message, span=None):
        super().__init__(message)
        self.span = span


class SourceTypeError(ParseError):
    pass


class GuardednessError(ParseError):
    pass


class NestingTooDeep(ParseError):
    """Input nested past the interpreter stack."""


class MalformedDocument(CupError):
    pass


class SignatureMismatch(CupError):
    pass


# --- proof engine -----------------------------------------------------------

class NotCoreFormula(CupError):
    pass


class FlexibleAtomUnsupported(CupError):
    pass


class ProofInvalid(CupError):
    pass


# --- tree semantics / soundness harness -------------------------------------

class DepthUnreachable(CupError):
    pass


class UniverseTooLarge(CupError):
    pass


class NotHShapedRoot(CupError):
    pass


class MissingEigenvariableBinding(CupError):
    pass


class BodyNotInModel(CupError):
    pass
