"""Exception types shared across the package.

Every concrete error derives from exactly one of two classes, and the CLI
maps each class to its own exit code: ``InputError`` (exit 2) for
input/argument problems (bad ranges, caps, domains) and ``InvariantError``
(exit 3) for violations of mathematical invariants that the algorithms are
supposed to maintain.  The latter are never silently swallowed; they
indicate either a precision bug or a base beta outside the validity region
of a construction.
"""


class BetaPrefixError(Exception):
    """Base class for all package errors."""


class InputError(BetaPrefixError):
    """The request itself is out of range; the CLI exits with 2."""


class InvariantError(BetaPrefixError):
    """A mathematical invariant failed; the CLI exits with 3."""


class NoRootFound(InvariantError):
    """No sign change detected while scanning (1, 2) for a polynomial root."""


class InvalidPoint(InputError):
    """A point lies outside the admissible interval [0, 1/(beta-1)], or a
    generator's start point lies too close to 1/(beta-1) for its rounded
    descent to leave that repelling fixed point."""


class CapExceeded(InputError):
    """A brute-force operation was asked to exceed its hard size cap."""


class MemoryGuard(InputError):
    """An enumeration would exceed its survivor/array budget; aborted."""


class Unreachable(InvariantError):
    """No orbit word of the computed entry length maps a point into the
    target interval.  Mathematically the target must be reachable, so this
    signals a precision or bookkeeping bug and is raised loudly."""


class ContainmentViolation(InvariantError):
    """A generated extension left its steering interval.  This falsifies the
    defining inequality of the construction for the given beta."""


class NoSteeringWord(InvariantError):
    """No steering word of the required length returns the orbit to the
    steering interval; the paired-branch construction fails for this beta."""


class DepthExceeded(InputError):
    """Measure recursion asked for a depth beyond the supported maximum."""


class OutOfDomain(InputError):
    """A formula or construction was evaluated outside its validity range."""


class OracleMismatch(InvariantError):
    """Branching and direct enumeration disagreed."""
