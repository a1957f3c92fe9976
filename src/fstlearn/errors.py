"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class AlphabetError(ToolkitError):
    """A symbol outside the machine's declared alphabet was used."""


class ConflictError(ToolkitError):
    """Two samples assign different outputs to the same input."""

    def __init__(self, inp, out_a, out_b):
        super().__init__(
            f"conflicting outputs for input {inp!r}: {out_a!r} vs {out_b!r}"
        )
        self.input = inp
        self.outputs = (out_a, out_b)


class InconsistencyError(ToolkitError):
    """A sample pair cannot be represented by the prefix-tree construction."""

    def __init__(self, inp, out):
        super().__init__(f"sample ({inp!r}, {out!r}) is not representable")
        self.pair = (inp, out)


class ConfigurationError(ToolkitError):
    """A construction was invoked with an invalid parameter."""


class FormatError(ToolkitError):
    """A machine or sample file does not parse."""


class InvariantError(ToolkitError):
    """An internal invariant of the learner or the pair search was broken."""
