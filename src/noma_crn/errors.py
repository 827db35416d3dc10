"""Exception types shared across the package.

Plain ``ValueError`` is raised for structural/domain problems (mismatched list
lengths, out-of-range arguments, non-positive quantities). The classes below
mark conditions that callers, in particular the command line front end, need
to tell apart.
"""


class CapacityError(Exception):
    """A result past what can be enumerated or held in a float: an exhaustive
    verifier asked for more users than it can enumerate, or a SINR beyond the
    float range."""


class InfeasibleError(Exception):
    """The power budget cannot satisfy the SINR targets of the admitted users."""


class ScenarioParseError(ValueError):
    """A scenario or config file could not be parsed; message carries context."""
