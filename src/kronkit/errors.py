"""The one exception class of kronkit, for bad input or an exceeded limit.

Each of kronkit's own checks on input or on a limit raises
:class:`KronkitError` with a message that names what went wrong; the command
line exits 2 on it.  A failed internal consistency check, such as an exact
count that comes out non-integral, is a bug and raises a built-in exception
(exit 3), so a crash never reads as a rejection or as bad input.
"""

from __future__ import annotations


class KronkitError(Exception):
    """Bad input or an exceeded limit; the message says which."""
