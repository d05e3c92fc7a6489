"""Error taxonomy.

Argument and configuration mistakes raise plain ``ValueError`` (CLI exit
code 1). A model breaking its own numerical contract mid-computation, e.g.
a single-outcome probability leaving [0, 1], raises
``ContractViolationError`` (CLI exit code 2): by that point the arguments
were fine and the numbers themselves went wrong. ``whole_number`` is the one
check of an integer argument (a draw count, a seed, a degree, a budget),
shared by every module that takes one.
"""

from __future__ import annotations


class ContractViolationError(RuntimeError):
    """A numerical contract was broken while evaluating a model."""


def whole_number(value, name=None):
    """``value`` as an int. A bool, or a number int() would truncate, is
    refused; a string goes through int(). ``name`` starts the error."""
    if isinstance(value, bool) or not (isinstance(value, str) or int(value) == value):
        raise ValueError(f"{name + ': ' if name else ''}expected a whole number, got {value!r}")
    return int(value)
