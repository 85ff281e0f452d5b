"""Checkpoint files in the v2 layout: decimal blocks, no critic.phases block.

qforage writes only v3 files, whose blocks are base64; v2 files still load,
with the phases redrawn from the echoed seed. Tests of the decimal reader,
and the v2 case of each damaged-file test, write v2 files with this helper.
It formats a block as the v2 writer did: its rows by one `%` operation over
the block's values, `%.17g` per value.
"""

from pathlib import Path

import numpy as np

V2_HEADER = "qforage-checkpoint v2"
#: The blocks a v2 file stores, in file order.
V2_BLOCKS = (
    "actor.amplitudes",
    "global.weights",
    "global.factors",
    "critic.amplitudes",
    "critic.salience",
)

#: A v2 file written by qforage before v3, from the same configuration as
#: checkpoint_v1.CRITERION9_V1 (the Criterion 9 run: CorpusSpec(docs=20,
#: patches=2, candidates_per_doc=3) generated from np.random.default_rng(1009),
#: TrainConfig(episodes=400, eval_interval=100, seed=9)).
CRITERION9_V2 = Path(__file__).parent / "data" / "criterion9-v2-checkpoint.txt"


def v2_block_lines(name, block):
    """A block's header line and its decimal rows."""
    block = np.asarray(block, dtype=np.float64)
    rows, cols = block.shape
    row = " ".join(["%.17g"] * cols) + "\n"
    text = row * rows % tuple(block.ravel().tolist())
    return [f"[{name} {rows} {cols}]"] + text.split("\n")[:-1]


def v2_lines(checkpoint):
    """The checkpoint's lines in the v2 layout."""
    lines = [V2_HEADER]
    lines.extend(f"# {key}={value}" for key, value in checkpoint.config_echo.items())
    blocks = checkpoint.blocks()
    for name in V2_BLOCKS:
        lines.extend(v2_block_lines(name, blocks[name]))
    return lines


def write_v2(checkpoint, path):
    Path(path).write_text("".join(line + "\n" for line in v2_lines(checkpoint)), encoding="utf-8")


class V2:
    """The v2 layout, for tests written once for either layout."""

    header = V2_HEADER
    block_lines = staticmethod(v2_block_lines)
    lines = staticmethod(v2_lines)
    write = staticmethod(write_v2)
