"""Checkpoint files in the v1 layout, which stores the critic.phases block.

qforage writes only v2 files, which leave critic.phases out; v1 files still
load with the phases they store. Tests that edit or read that block, or that
need phases other than the init draw, write v1 files with this helper.
"""

from pathlib import Path

V1_HEADER = "qforage-checkpoint v1"

#: A v1 file written by qforage before v2: the Criterion 9 configuration
#: (CorpusSpec(docs=20, patches=2, candidates_per_doc=3) generated from
#: np.random.default_rng(1009), TrainConfig(episodes=400, eval_interval=100,
#: seed=9)) with no checkpoint path echoed.
CRITERION9_V1 = Path(__file__).parent / "data" / "criterion9-v1-checkpoint.txt"


def v1_lines(checkpoint):
    """The checkpoint's lines in the v1 layout, each value formatted on its own."""
    lines = [V1_HEADER]
    lines.extend(f"# {key}={value}" for key, value in checkpoint.config_echo.items())
    for name, block in checkpoint.blocks().items():
        lines.append(f"[{name} {block.shape[0]} {block.shape[1]}]")
        lines.extend(" ".join(f"{float(v):.17g}" for v in row) for row in block)
    return lines


def write_v1(checkpoint, path):
    Path(path).write_text("".join(line + "\n" for line in v1_lines(checkpoint)), encoding="utf-8")
