"""Shared pytest setup for the tier-1 suite.

When a Hypothesis property fails, Hypothesis's pytest plugin imports its
patch writer, `hypothesis.extra._patching`, which imports `libcst`; with
some `libcst` releases that import raises a `DeprecationWarning` (its use
of `mypy_extensions.TypedDict`).  Under ``-W error`` the warning turned
the failure into a pytest ``INTERNALERROR`` that dropped every result
after it.  So the module is imported once here, with only
`DeprecationWarning` ignored and only while it imports; no warning that
gridauth or a test raises is affected.  Without Hypothesis's extras or
`libcst` this does nothing.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
