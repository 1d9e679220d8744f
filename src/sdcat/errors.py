"""Exception types and the enumeration budget.

Exit codes follow the CLI contract: 64 for parse errors, 65 for
validation errors, 69 for an exceeded enumeration budget, 70 for an
internal contradiction.
"""

import os


class SdcatError(Exception):
    exit_code = 65


class ParseError(SdcatError):
    exit_code = 64


class ValidationError(SdcatError):
    exit_code = 65


class DomainMismatch(ValidationError):
    """Composed or compared maps whose presentations do not line up."""


class BudgetExceeded(SdcatError):
    exit_code = 69


class InternalError(SdcatError):
    """An internal consistency check failed: a bug, not an answer."""

    exit_code = 70


DEFAULT_BUDGET = 500_000

# The budget in force; None until ``SDCAT_BUDGET`` is read on first use.
_budget: int | None = None


def budget() -> int:
    global _budget
    if _budget is None:
        try:
            _budget = int(os.environ.get("SDCAT_BUDGET", DEFAULT_BUDGET))
        except ValueError:
            _budget = DEFAULT_BUDGET
    return _budget


def set_budget(value: int | None) -> None:
    """Process-wide override, mainly for tests; ``None`` re-reads
    ``SDCAT_BUDGET`` on next use."""
    global _budget
    _budget = value


def check_budget(size: int, what: str) -> None:
    limit = budget()
    if size > limit:
        # Python refuses to print an int of more than 4300 digits
        shown = size if size.bit_length() <= 64 else f"of {size.bit_length()} bits"
        raise BudgetExceeded(f"{what}: size {shown} exceeds budget {limit}")
