"""The two exception classes of kronkit.

* :class:`KronkitError` — bad input or an exceeded limit.  Each of
  kronkit's own checks on input or on a limit raises it with a message that
  names what went wrong, and the command line exits 2 on it, so "the input
  was malformed" never reads as "the certificate was valid but rejected".
* :class:`InternalNonInteger` — an exact count that came out non-integral.
  That is a bug, so it is no :class:`KronkitError` and the command line
  exits 3 on it.  Other failed internal consistency checks, such as LP
  multipliers that do not prove a redundancy, raise built-in exceptions.
"""

from __future__ import annotations


class KronkitError(Exception):
    """Bad input or an exceeded limit; the message says which."""


class InternalNonInteger(RuntimeError):
    """An exact count came out non-integral: a bug, hence no KronkitError."""
