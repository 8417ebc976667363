"""Pieces shared by the workload modules.

A workload is a class built as ``Workload(seed, workdir)``; building it is
the set-up that ``setup_s`` times.  It has a ``name``, two class names in
``slots`` (latency classes ``a`` and ``b``), the operation stream ``ops``,
and these methods, which ``run.py`` calls:

* ``begin_pass()`` returns a fresh context for one replay of ``ops``;
* ``execute(ctx, op)`` runs one operation and returns its output, or a
  ``Failure`` when it raised where no outcome was expected;
* ``render(output)`` is the output's text for the digest;
* ``end_pass(ctx)`` returns the final-state lines for the digest;
* ``check(ctx, outputs)`` returns ``(op index or None, message)`` failures;
* ``layer_counts(ctx)`` gives ``jobmgr.events`` and ``cli.state_bytes``;
* ``population()`` describes the inputs; ``close()`` removes set-up files.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One client operation: ``slot`` 0 or 1 picks its latency class."""

    slot: int
    kind: str
    args: tuple


@dataclass(frozen=True)
class Failure:
    """An operation that raised where no outcome was expected."""

    detail: str

    @classmethod
    def current(cls) -> "Failure":
        return cls(traceback.format_exc(limit=3).strip())


def error_name(exc: BaseException) -> str:
    return type(exc).__name__


class Digest:
    """SHA-256 over output lines; equal digests mean byte-identical outputs."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, text: str) -> None:
        self._h.update(text.encode("utf-8"))
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()
