"""Checkpoint files in the v3 layout, encoded here one 57-byte group at a time.

A v3 block is its `[name rows cols]` line, then its values' little-endian
float64 bytes in base64: groups of 76 characters (57 bytes), the block's
last group shorter if its bytes run out, up to 16 groups to a line,
separated by single spaces. This reference builds each group by its own
base64 call, so tests can compare the writer with it and re-encode a
damaged block for the v3 case of each damaged-file test.
"""

import base64

import numpy as np

from qforage.checkpoint import save_checkpoint

V3_HEADER = "qforage-checkpoint v3"


def payload_lines(block):
    """A block's payload lines, each group encoded on its own."""
    data = np.asarray(block, dtype="<f8").tobytes()
    groups = [base64.b64encode(data[i : i + 57]).decode("ascii") for i in range(0, len(data), 57)]
    return [" ".join(groups[i : i + 16]) for i in range(0, len(groups), 16)]


def v3_block_lines(name, block):
    """A block's header line and its payload lines."""
    rows, cols = np.shape(block)
    return [f"[{name} {rows} {cols}]"] + payload_lines(block)


def v3_lines(checkpoint):
    """The checkpoint's lines in the v3 layout; critic.phases is not stored."""
    lines = [V3_HEADER]
    lines.extend(f"# {key}={value}" for key, value in checkpoint.config_echo.items())
    for name, block in checkpoint.blocks().items():
        if name != "critic.phases":
            lines.extend(v3_block_lines(name, block))
    return lines


def block_span(lines, name):
    """The index of block `name`'s header line and of the line after its last line.

    A block ends where the next block header starts, in a file of either layout.
    """
    start = next(i for i, l in enumerate(lines) if l.startswith(f"[{name} "))
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")), len(lines))
    return start, end


class V3:
    """The v3 layout, for tests written once for either layout."""

    header = V3_HEADER
    block_lines = staticmethod(v3_block_lines)
    lines = staticmethod(v3_lines)
    write = staticmethod(save_checkpoint)
