"""Read and edit the snapshot of a state file, whichever slot holds it.

Since state version 9 the snapshot lives in two slot files, ``<state>``
and ``<state>.alt``.  Each holds one header line, ``gridauth-state 9
<seq> <length> <crc32>``, then the compact JSON payload; the CRC-32
covers ``b"<seq> <length>"`` followed by the payload.  The newest valid
slot holds the site.  A ``<state>`` without that header is a snapshot of
versions 1-8, at seq 0.

A test that edits the snapshot as JSON edits the newest slot and seals
it again with its seq, so that the edit reaches `JobManager.restore`'s
checks rather than the checksum's.  The layout is written out here, not
imported from `gridauth.cli`, so these helpers check it too.
"""

from __future__ import annotations

import json
import re
import zlib
from pathlib import Path

HEADER = re.compile(rb"gridauth-state 9 ([0-9]+) ([0-9]+) ([0-9]+)\n")
SUFFIXES = ("", ".alt")


def seal(seq: int, payload: bytes) -> bytes:
    """A slot file's bytes for ``seq`` and ``payload``."""
    crc = zlib.crc32(b"%d %d" % (seq, len(payload)) + payload)
    return b"gridauth-state 9 %d %d %d\n" % (seq, len(payload), crc) + payload


def unseal(data: bytes) -> tuple[int, bytes] | None:
    """``(seq, payload)`` of a valid slot's bytes, None for any other bytes."""
    match = HEADER.match(data)
    if match is None:
        return None
    seq, payload = int(match[1]), data[match.end():]
    return (seq, payload) if seal(seq, payload) == data else None


def slot_files(state) -> list[Path]:
    return [Path(f"{state}{suffix}") for suffix in SUFFIXES]


def newest(state) -> tuple[Path, int | None, bytes]:
    """``(file, seq, payload)`` of the slot the CLI reads; seq is None for
    a ``<state>`` of versions 1-8, whose payload is the whole file."""
    found = []  # (order, file, seq, payload)
    for path in slot_files(state):
        if not path.exists():
            continue
        data = path.read_bytes()
        if (slot := unseal(data)) is not None:
            found.append((slot[0], path, *slot))
        elif path == Path(state) and not data.startswith(b"gridauth-state "):
            found.append((0, path, None, data))
    assert found, f"no valid slot at {state}"
    return max(found, key=lambda slot: slot[0])[1:]


def read_text(state) -> str:
    """The newest slot's payload."""
    return newest(state)[2].decode("utf-8")


def read(state) -> dict:
    """The newest slot's payload, decoded."""
    return json.loads(read_text(state))


def write(state, text: str) -> None:
    """Make ``text`` the newest slot's payload, sealed with its seq."""
    path, seq, _ = newest(state)
    payload = text.encode("utf-8")
    path.write_bytes(payload if seq is None else seal(seq, payload))


def edit(state, change) -> None:
    """Call ``change`` on the newest slot's decoded payload, then store it."""
    data = read(state)
    change(data)
    write(state, json.dumps(data))
