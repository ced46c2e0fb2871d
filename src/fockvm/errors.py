"""Exception types shared across the package.

ParseError covers every textual front end (assembly, grammar files, the C
subset, and the state file format). MachineError is the base for everything
that can go wrong while a state is being evolved or a program is running;
the CLI maps ParseError to exit code 2 and MachineError to exit code 3.
"""

from __future__ import annotations


class ParseError(Exception):
    """Malformed input text. Carries a line (1-based) and optional column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class UndefinedLabel(ParseError):
    """A goto target that no label defines."""


class MachineError(Exception):
    """Base class for runtime failures of the machine model."""


class NonFiniteAmplitude(MachineError, ValueError):
    """An amplitude or probability is not a finite float, because it was
    given as one or because arithmetic on it overflowed."""


class EmptyState(MachineError):
    """An operation that needs at least one term got an empty superposition."""


class CopyOntoNonzero(MachineError):
    """Copy requires the destination location to hold zero."""


class UnsupportedLocation(MachineError):
    """The input/output stream pseudo-locations support only copy forms."""


class NegativeExponent(MachineError):
    """A guarded power or set-value exponent evaluated below zero."""


class FuelExhausted(MachineError):
    """Recursion re-entry attempted with no fuel left."""


class UndefinedReference(MachineError):
    """A recursive reference label with no enclosing definition."""


class SubtractUnderflow(MachineError):
    """SUBTRACT would take the register below zero."""


class DivideByZero(MachineError):
    """DIVIDE with a zero divisor."""


class InputExhausted(MachineError):
    """INPUT with no values left on the input stream."""


class StepLimitExceeded(MachineError):
    """The interpreter ran longer than its step limit."""


class PcOutOfRange(MachineError):
    """The program counter left the program."""


class JumpsNotSupported(MachineError):
    """Sequential compilation given a program containing TRA or TZR."""


class NormViolation(MachineError):
    """Superposed program amplitudes do not have unit total weight."""


class TruncationOverflow(MachineError):
    """Evolution would move occupancy outside the truncated mode window."""


class StateSpaceTooLarge(MachineError):
    """The dense oracle's reachable basis exceeded its bound."""


class UnsupportedConstruct(MachineError):
    """A source construct outside the supported language subset."""


class UnknownVariable(MachineError):
    """A variable name missing from a symbol table."""


class NoRuleForSymbol(MachineError):
    """Parallel-pass rewriting found a symbol with no applicable rule."""
