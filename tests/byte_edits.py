"""One edit to the bytes of a text, shared by the mutation fuzz tests.

An edit is a bit flip, a deleted run, an inserted fragment, a line
duplicated, dropped or swapped with the next, or a cut.  Positions are
drawn large and taken modulo the text's length, so one strategy serves
texts of any length.
"""

from __future__ import annotations

from hypothesis import strategies as st


def edits(inserts: tuple) -> st.SearchStrategy:
    """Edits whose insertions are drawn from ``inserts``."""
    return st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 7)),
        st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 64)),
        st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(inserts)),
        st.tuples(st.just("duplicate-line"), st.integers(0, 10**6)),
        st.tuples(st.just("drop-line"), st.integers(0, 10**6)),
        st.tuples(st.just("swap-lines"), st.integers(0, 10**6)),
        st.tuples(st.just("cut"), st.integers(0, 10**6)),
    )


def apply(text: bytes, edit: tuple) -> bytes:
    kind, at = edit[0], edit[1] % (len(text) + 1)
    lines = text.splitlines(keepends=True)
    line = edit[1] % len(lines)
    if kind == "flip":
        at %= len(text)
        return text[:at] + bytes([text[at] ^ 1 << edit[2]]) + text[at + 1:]
    if kind == "delete":
        return text[:at] + text[at + edit[2]:]
    if kind == "insert":
        return text[:at] + edit[2] + text[at:]
    if kind == "duplicate-line":
        lines.insert(line, lines[line])
    elif kind == "drop-line":
        del lines[line]
    elif kind == "swap-lines":  # with the next line
        other = (line + 1) % len(lines)
        lines[line], lines[other] = lines[other], lines[line]
    else:  # cut
        return text[:at]
    return b"".join(lines)
