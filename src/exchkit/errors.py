"""Exception hierarchy.

The CLI maps these onto exit codes: bad input is exit 1, resource caps are
exit 2.  An internal invariant failure is an ``AssertionError``, not one of
these, and exits 3.  Verdicts (not extendible, refuted, unknown) are never exceptions;
they are ordinary data.
"""

from __future__ import annotations


class ExchkitError(Exception):
    """Base class for all library errors."""


class InputError(ExchkitError, ValueError):
    """Malformed or inconsistent input: bad masses, alphabets, schemas."""


class CapacityError(ExchkitError):
    """A computation would exceed the configured resource cap.

    Raised before any work is attempted; never produces a wrong answer.
    """
