"""Exact q-series toolkit for rank and crank generating functions.

The package computes truncated series with exact integer coefficients,
evaluates indefinite quadratic-form double sums, and machine-checks a
catalog of identities relating the two. Everything is pure Python on top
of arbitrary precision integers; there is no floating point anywhere.

Names are imported from their modules (``qhecke.suite``,
``qhecke.specfun``, ...); the package itself exports only ``__version__``.
Importing it loads the verification engine, the modules that ``suite``
runs, but not the command-line front end.
"""

from . import suite  # noqa: F401

__version__ = "0.1.0"
