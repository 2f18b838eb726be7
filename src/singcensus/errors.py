"""Exception taxonomy shared by all modules.

The CLI maps these onto process exit codes: ValidationError -> 2,
CapExceeded -> 3, InternalCheckError -> 4.
"""


class ValidationError(ValueError):
    """Bad user-supplied parameters or malformed input."""


class ParseError(ValidationError):
    """Polynomial text rejected; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class CapExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured cap, or a
    result would exceed a fixed size limit."""


class InternalCheckError(AssertionError):
    """A post-hoc self-check failed; results must not be trusted."""


class KernelCapacityError(Exception):
    """The compiled kernel cannot represent this problem (too many
    variables or exponents too large); callers retry with the pure kernel."""
