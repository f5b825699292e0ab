"""graph6 encoding plus a plain edge-list text format.

graph6 packs the upper triangle of the adjacency matrix in column-major
order x(0,1), x(0,2), x(1,2), x(0,3), ... into 6-bit groups offset by 63,
after a length header: a single char 63+n for n <= 62, '~' plus three
6-bit chars for larger n, '~~' plus six for n beyond 258047.

The edge-list format is for hand-authored inputs: first line "n m", then
m lines "u v" with 0-based endpoints.
"""
from __future__ import annotations

import binascii
import re

from .graphs import Graph


class Graph6Error(ValueError):
    """Malformed graph6 input; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


# base64 digit v (alphabet A-Z a-z 0-9 + /) to the graph6 character 63 + v, and back
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_BASE64_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_GRAPH6_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
# the first character outside chr(63) .. chr(126)
_OUTSIDE_GRAPH6 = re.compile(r"[^?-~]")


def encode(g: Graph) -> str:
    """graph6 string of g.

    Column j of the upper triangle, x(0,j) .. x(j-1,j), is the low j bits
    of row j read from bit 0 up: `bin` of those bits with bit j set, less
    its "0b1" and reversed. The joined columns are read as one int, padded
    to whole 24-bit groups, and base64 cuts it into 6-bit digits, which the
    table maps to the characters 63 + v.
    """
    n = g.n
    if n <= 62:
        header = chr(63 + n)
    elif n <= 258047:
        header = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    elif n <= 68719476735:
        header = "~~" + "".join(chr(63 + ((n >> s) & 63)) for s in (30, 24, 18, 12, 6, 0))
    else:
        raise ValueError(f"n={n} exceeds the graph6 length range")
    nbits = n * (n - 1) // 2
    if not nbits:
        return header
    rows = g.rows
    cols = "".join(bin(rows[j] & ((1 << j) - 1) | 1 << j)[:2:-1] for j in range(1, n))
    nbytes = (nbits + 23) // 24 * 3
    packed = (int(cols, 2) << (8 * nbytes - nbits)).to_bytes(nbytes, "big")
    body = binascii.b2a_base64(packed, newline=False).translate(_BASE64_TO_GRAPH6)
    return header + body[: (nbits + 5) // 6].decode("ascii")


def decode(text: str) -> Graph:
    """Graph of a graph6 string, with or without the ">>graph6<<" prefix.

    The inverse of `encode`: the body's characters map back to base64
    digits, which `a2b_base64` unpacks into one int; its bit string is
    the joined columns, and column j, reversed, is the low j bits of row
    j. Only the set bits of a column are written into the rows above it.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    bad = _OUTSIDE_GRAPH6.search(s)
    if bad:
        raise Graph6Error(f"character {bad.group()!r} outside graph6 range", bad.start())
    head = [ord(c) - 63 for c in s[:8]]
    if head[0] < 63:
        n = head[0]
        body = 1
    elif len(s) >= 2 and head[1] < 63:
        if len(s) < 4:
            raise Graph6Error("truncated extended length header", len(s))
        n = (head[1] << 12) | (head[2] << 6) | head[3]
        body = 4
    else:
        if len(s) < 8:
            raise Graph6Error("truncated long length header", len(s))
        n = 0
        for val in head[2:8]:
            n = (n << 6) | val
        body = 8
    need_bits = n * (n - 1) // 2
    need_chars = (need_bits + 5) // 6
    if len(s) - body != need_chars:
        raise Graph6Error(
            f"expected {need_chars} body chars for n={n}, got {len(s) - body}",
            min(body + need_chars, len(s)),
        )
    # trailing pad bits must be zero
    if need_bits % 6 and (ord(s[-1]) - 63) & ((1 << (6 - need_bits % 6)) - 1):
        raise Graph6Error("nonzero padding bits", body + need_chars - 1)
    # whole 4-digit groups, padded with the zero digit "A"
    digits = s[body:].encode("ascii").translate(_GRAPH6_TO_BASE64) + b"A" * (-need_chars % 4)
    packed = binascii.a2b_base64(digits)
    cols = format(int.from_bytes(packed, "big"), f"0{8 * len(packed)}b")
    rows = [0] * n
    start = 0
    for j in range(1, n):
        col = cols[start : start + j]
        start += j
        i = col.find("1")
        if i < 0:
            continue
        rows[j] = int(col[::-1], 2)
        bit = 1 << j
        while i >= 0:
            rows[i] |= bit
            i = col.find("1", i + 1)
    return Graph(n, rows)


def read_graph6_lines(text: str) -> list[Graph]:
    graphs = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            graphs.append(decode(line))
    return graphs


def read_edge_list(text: str) -> Graph:
    """Parse an "n m" header line and then m distinct edges "u v", one per line."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"edge-list header must be 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise ValueError(f"repeated edge {pair}")
        seen.add(pair)
        edges.append((u, v))
    g = Graph.from_edges(n, edges)
    g.validate()
    return g
