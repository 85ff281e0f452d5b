"""Tests for the command-line interface, run in-process through cli.main.

Each command is checked for its exit code, its printed output, and the files
it leaves behind; cross-command consistency (train metrics vs eval output)
is compared on the exact printed decimal strings.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from checkpoint_v1 import CRITERION9_V1, V1_HEADER, v1_lines, write_v1
from checkpoint_v2 import CRITERION9_V2, V2, V2_HEADER, write_v2
from checkpoint_v3 import V3, block_span
from warning_flags import WARNING_FLAGS

from qforage import checkpoint as ckpt
from qforage import cli, critic, env, oracles, trainer

GEN_ARGS = [
    "gen-corpus",
    "--docs", "6",
    "--patches", "2",
    "--vocab", "40",
    "--seed", "3",
]

TRAIN_SIZES = [
    "--episodes", "20",
    "--eval-interval", "10",
    "--basis-dim", "3",
    "--query-order", "3",
    "--rank", "4",
    "--embed-dim", "6",
    "--keywords", "3",
    "--seed", "5",
]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


@pytest.fixture()
def corpus_dir(tmp_path, capsys):
    out = tmp_path / "corpus"
    code, _, _ = run(GEN_ARGS + ["--out", str(out)], capsys)
    assert code == 0
    return out


@pytest.fixture()
def trained_dir(corpus_dir, tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["train", "--corpus", str(corpus_dir / "corpus.tsv")] + TRAIN_SIZES
    code, _, _ = run(argv + ["--out", str(out)], capsys)
    assert code == 0
    return out


class TestGenCorpus:
    def test_writes_loadable_corpus(self, corpus_dir):
        corpus = env.load_corpus(str(corpus_dir / "corpus.tsv"), keyword_count=3)
        assert len(corpus.documents) == 6
        assert len(corpus.patch_ids) == 2

    def test_reports_counts(self, tmp_path, capsys):
        code, out, _ = run(GEN_ARGS + ["--out", str(tmp_path)], capsys)
        assert code == 0
        assert any("wrote" in line for line in out)
        assert any("documents=6" in line for line in out)

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(GEN_ARGS + ["--out", str(a)], capsys)
        run(GEN_ARGS + ["--out", str(b)], capsys)
        assert (a / "corpus.tsv").read_bytes() == (b / "corpus.tsv").read_bytes()

    def test_echo_has_no_keyword_count(self, corpus_dir):
        lines = (corpus_dir / "corpus.tsv").read_text().splitlines()
        assert not any(line.startswith("# keyword_count=") for line in lines)

    def test_keywords_flag_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(GEN_ARGS + ["--keywords", "3", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert not (tmp_path / "corpus.tsv").exists()

    def test_keyword_count_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("keyword_count=3\n")
        code, _, err = run(
            ["gen-corpus", "--config", str(cfg), "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "keyword_count" in err
        assert not (tmp_path / "corpus.tsv").exists()

    def test_zero_docs_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            ["gen-corpus", "--docs", "0", "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "error:" in err

    def test_config_file_sets_values(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("# generator settings\ndocs=4\npatches=2\nvocab_size=40\n")
        code, _, _ = run(
            ["gen-corpus", "--config", str(cfg), "--out", str(tmp_path)], capsys
        )
        assert code == 0
        corpus = env.load_corpus(str(tmp_path / "corpus.tsv"), keyword_count=5)
        assert len(corpus.documents) == 4

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("docs=4\npatches=2\nvocab_size=40\n")
        code, _, _ = run(
            ["gen-corpus", "--config", str(cfg), "--docs", "6", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        corpus = env.load_corpus(str(tmp_path / "corpus.tsv"), keyword_count=5)
        assert len(corpus.documents) == 6

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("flavor=lemon\n")
        code, _, err = run(
            ["gen-corpus", "--config", str(cfg), "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "flavor" in err

    def test_malformed_config_line_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("docs\n")
        code, _, _ = run(
            ["gen-corpus", "--config", str(cfg), "--out", str(tmp_path)], capsys
        )
        assert code == 2

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(
            ["gen-corpus", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2


class TestTrain:
    def test_writes_metrics_and_checkpoint(self, corpus_dir, trained_dir, capsys):
        assert (trained_dir / "checkpoint.txt").exists()
        metrics = (trained_dir / "metrics.tsv").read_text().splitlines()
        rows = [l for l in metrics if not l.startswith("#")]
        assert [int(r.split("\t")[0]) for r in rows] == [10, 20]
        assert all(len(r.split("\t")) == 5 for r in rows)

    def test_prints_metric_rows(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["train", "--corpus", str(corpus_dir / "corpus.tsv")] + TRAIN_SIZES
        code, printed, _ = run(argv + ["--out", str(out)], capsys)
        assert code == 0
        metric_rows = [l for l in printed if l and l[0].isdigit()]
        assert len(metric_rows) == 2

    def test_rerun_reproduces_artifacts_exactly(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "run"
        argv = (
            ["train", "--corpus", str(corpus_dir / "corpus.tsv")]
            + TRAIN_SIZES
            + ["--out", str(out)]
        )
        run(argv, capsys)
        first_ck = (out / "checkpoint.txt").read_bytes()
        first_metrics = (out / "metrics.tsv").read_bytes()
        run(argv, capsys)
        assert (out / "checkpoint.txt").read_bytes() == first_ck
        assert (out / "metrics.tsv").read_bytes() == first_metrics

    def test_runs_into_two_out_dirs_write_equal_bytes(self, corpus_dir, tmp_path, capsys):
        argv = ["train", "--corpus", str(corpus_dir / "corpus.tsv")] + TRAIN_SIZES
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(argv + ["--out", str(a)], capsys)[0] == 0
        assert run(argv + ["--out", str(b)], capsys)[0] == 0
        assert (a / "checkpoint.txt").read_bytes() == (b / "checkpoint.txt").read_bytes()
        assert (a / "metrics.tsv").read_bytes() == (b / "metrics.tsv").read_bytes()

    def test_missing_corpus_flag_is_usage_error(self, capsys):
        code, _, _ = run(["train"], capsys)
        assert code == 2

    def test_nonexistent_corpus_file_is_runtime_error(self, tmp_path, capsys):
        argv = ["train", "--corpus", str(tmp_path / "nope.tsv"), "--out", str(tmp_path)]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "error:" in err

    def test_discount_config_key_is_usage_error(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("discount=0.9\n")
        argv = [
            "train",
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--config", str(cfg),
            "--out", str(tmp_path / "run"),
        ]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "'discount'" in err

    def test_invalid_setting_is_usage_error(self, corpus_dir, tmp_path, capsys):
        argv = [
            "train",
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--episodes", "0",
            "--out", str(tmp_path),
        ]
        code, _, _ = run(argv, capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("actor_lr", "-1", "actor_lr must be positive and finite, got -1.0"),
            ("mode", "batch", "mode must be 'bandit' or 'session', got 'batch'"),
        ],
        ids=["actor_lr", "mode"],
    )
    @pytest.mark.parametrize("given_as", ["flag", "config"])
    def test_invalid_setting_exits_before_creating_out(
        self, corpus_dir, tmp_path, capsys, key, value, message, given_as
    ):
        out = tmp_path / "run"
        argv = ["train", "--corpus", str(corpus_dir / "corpus.tsv"), "--out", str(out)]
        if given_as == "flag":
            argv += ["--" + key.replace("_", "-"), value]
        else:
            cfg = tmp_path / "train.cfg"
            cfg.write_text(f"{key}={value}\n")
            argv += ["--config", str(cfg)]
        code, stdout, err = run(argv, capsys)
        assert code == 2
        assert stdout == []
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--actor-lr", "nan"), ("--critic-lr", "nan"), ("--actor-lr", "inf")]
    )
    def test_non_finite_learning_rate_is_usage_error(
        self, corpus_dir, tmp_path, capsys, flag, value
    ):
        argv = [
            "train",
            "--corpus", str(corpus_dir / "corpus.tsv"),
            flag, value,
            "--out", str(tmp_path),
        ]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == []
        assert "must be positive and finite" in err
        assert not (tmp_path / "checkpoint.txt").exists()


class EvalRefusesDamagedFiles:
    """eval on a damaged checkpoint exits 1, written once for either layout (`layout`)."""

    layout = V2

    def trained_lines(self, trained_dir):
        """The trained checkpoint's lines in this layout."""
        return self.layout.lines(ckpt.load_checkpoint(str(trained_dir / "checkpoint.txt")))

    def test_negative_block_shape_is_runtime_error(self, corpus_dir, trained_dir, tmp_path, capsys):
        lines = self.trained_lines(trained_dir)
        header = next(i for i, l in enumerate(lines) if l.startswith("[global.weights"))
        lines[header] = "[global.weights -1 1]"
        bad = tmp_path / "negative.txt"
        bad.write_text("\n".join(lines) + "\n")
        argv = [
            "eval",
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--checkpoint", str(bad),
        ]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert f"error: line {header + 1}: negative block shape" in err

    def test_non_finite_actor_rows_are_runtime_error(
        self, corpus_dir, trained_dir, tmp_path, capsys
    ):
        checkpoint = ckpt.load_checkpoint(str(trained_dir / "checkpoint.txt"))
        checkpoint.actor_amplitudes[:] = np.nan
        bad = tmp_path / "nan.txt"
        self.layout.write(checkpoint, str(bad))
        argv = [
            "eval",
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--checkpoint", str(bad),
        ]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "error:" in err

    def test_actor_row_off_the_unit_sphere_is_runtime_error(
        self, corpus_dir, trained_dir, tmp_path, capsys
    ):
        checkpoint = ckpt.load_checkpoint(str(trained_dir / "checkpoint.txt"))
        checkpoint.actor_amplitudes[3] *= 3.0
        bad = tmp_path / "scaled.txt"
        self.layout.write(checkpoint, str(bad))
        argv = [
            "eval",
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--checkpoint", str(bad),
        ]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == []
        assert "error:" in err and "'actor.amplitudes' row 3" in err

    def test_broken_checkpoint_is_refused_before_the_corpus_is_read(
        self, trained_dir, tmp_path, capsys
    ):
        checkpoint = ckpt.load_checkpoint(str(trained_dir / "checkpoint.txt"))
        checkpoint.actor_amplitudes[4, 1] = np.nan
        bad = tmp_path / "nan.txt"
        self.layout.write(checkpoint, str(bad))
        argv = [
            "eval",
            "--corpus", str(tmp_path / "missing.tsv"),
            "--checkpoint", str(bad),
        ]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == []
        assert "'actor.amplitudes' row 4 holds a non-finite value" in err

    @pytest.mark.parametrize(
        "entry",
        ["scent_smoothing=0", "temperature=0", "episodes=abc", "actor_lr=nan", "critic_lr=inf"],
    )
    def test_invalid_config_echo_is_runtime_error(
        self, corpus_dir, trained_dir, tmp_path, capsys, entry
    ):
        key = entry.partition("=")[0]
        lines = self.trained_lines(trained_dir)
        edited = [f"# {entry}" if l.startswith(f"# {key}=") else l for l in lines]
        assert edited != lines
        bad = tmp_path / "echo.txt"
        bad.write_text("\n".join(edited) + "\n")
        argv = [
            "eval",
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--checkpoint", str(bad),
        ]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == []
        assert err.startswith("error: config echo: ") and len(err.splitlines()) == 1


class TestEval(EvalRefusesDamagedFiles):
    def test_matches_final_train_record(self, corpus_dir, trained_dir, capsys):
        metrics = (trained_dir / "metrics.tsv").read_text().splitlines()
        final = [l for l in metrics if not l.startswith("#")][-1].split("\t")
        argv = [
            "eval",
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        greedy = next(l for l in out if l.startswith("greedy_accuracy="))
        critic_line = next(l for l in out if l.startswith("critic_accuracy="))
        assert greedy.split("=")[1] == final[2]
        assert critic_line.split("=")[1] == final[3]

    def test_reports_scent_breakdown(self, corpus_dir, trained_dir, capsys):
        argv = [
            "eval",
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
        ]
        _, out, _ = run(argv, capsys)
        assert any(l.startswith("reward_frequencies=") for l in out)
        assert sum(l.startswith("patch ") for l in out) == 2

    def test_writes_eval_file_with_out(self, corpus_dir, trained_dir, tmp_path, capsys):
        argv = [
            "eval",
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
            "--out", str(tmp_path / "ev"),
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        saved = (tmp_path / "ev" / "eval.txt").read_text().splitlines()
        assert saved == out

    def test_corrupted_checkpoint_is_runtime_error(self, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a checkpoint\n")
        argv = [
            "eval",
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--checkpoint", str(bad),
        ]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("value", ["0", "nan", "1.5"])
    def test_bad_scent_smoothing_flag_is_usage_error(self, corpus_dir, trained_dir, capsys, value):
        argv = [
            "eval",
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
            "--scent-smoothing", value,
        ]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == []
        assert "scent smoothing must lie in (0, 1]" in err

    def test_bad_scent_smoothing_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("scent_smoothing=0\n")
        # Neither file exists: the value is rejected before either is read.
        argv = [
            "eval",
            "--corpus", str(tmp_path / "missing.tsv"),
            "--checkpoint", str(tmp_path / "missing.txt"),
            "--config", str(cfg),
        ]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == []
        assert "scent smoothing must lie in (0, 1]" in err

    def test_scent_smoothing_flag_overrides_the_checkpoint(self, corpus_dir, trained_dir, capsys):
        argv = [
            "eval",
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
        ]
        _, default_out, _ = run(argv, capsys)
        code, out, _ = run(argv + ["--scent-smoothing", "1"], capsys)
        assert code == 0
        assert "# scent_smoothing=1" in out and "# scent_smoothing=0.10000000000000001" in default_out
        scent = [l for l in out if l.startswith("scent_scalar=")]
        assert scent and scent != [l for l in default_out if l.startswith("scent_scalar=")]

    def test_empty_corpus_is_runtime_error(self, trained_dir, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# nothing here\n")
        argv = [
            "eval",
            "--corpus", str(empty),
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
        ]
        code, _, _ = run(argv, capsys)
        assert code == 1


class TestEvalV3(EvalRefusesDamagedFiles):
    layout = V3


BLOCKS = (
    "actor.amplitudes",
    "global.weights",
    "global.factors",
    "critic.amplitudes",
    "critic.phases",
    "critic.salience",
)


def with_block_shape(lines, name, shape, layout=V2):
    """The checkpoint's lines with block `name` replaced by 0.5s of shape(rows, cols).

    The new block is written in `layout`, the layout of the file `lines` are from.
    """
    start, end = block_span(lines, name)
    rows, cols = (int(n) for n in lines[start][1:-1].split()[1:])
    block = layout.block_lines(name, np.full(shape(rows, cols), 0.5))
    return lines[:start] + block + lines[end:]


# Empty in either dimension, and off the echoed sizes by one row or column.
SHAPES = {
    "0x0": lambda r, c: (0, 0),
    "0xc": lambda r, c: (0, c),
    "rx0": lambda r, c: (r, 0),
    "r-1xc": lambda r, c: (r - 1, c),
    "rxc+1": lambda r, c: (r, c + 1),
}


class TestEchoCheckedOnce:
    """eval and inspect --doc check the checkpoint's config echo once, not twice."""

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_checkpoint_config_runs_once(self, corpus_dir, trained_dir, capsys, command):
        corpus = env.load_corpus(str(corpus_dir / "corpus.tsv"), keyword_count=3)
        argv = [
            command,
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
            "--corpus", str(corpus_dir / "corpus.tsv"),
        ]
        if command == "inspect":
            argv += ["--doc", corpus.documents[0].doc_id]
        with mock.patch.object(
            trainer, "checkpoint_config", wraps=trainer.checkpoint_config
        ) as spy:
            code, _, _ = run(argv, capsys)
        assert code == 0
        assert spy.call_count == 1


class TestBlockShapes:
    """A checkpoint whose blocks do not fit its echo, or are empty, exits 1 with one error line.

    Files are v2 here and v3 in the subclass below; only a v1 file stores critic.phases.
    """

    layout = V2

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("name", BLOCKS)
    def test_is_runtime_error_without_traceback(
        self, corpus_dir, trained_dir, tmp_path, capsys, command, shape, name
    ):
        checkpoint = ckpt.load_checkpoint(str(trained_dir / "checkpoint.txt"))
        if name == "critic.phases":  # A v1 file, whose blocks are decimal as in v2.
            lines, layout = v1_lines(checkpoint), V2
        else:
            lines, layout = self.layout.lines(checkpoint), self.layout
        bad = tmp_path / "shape.txt"
        bad.write_text("\n".join(with_block_shape(lines, name, SHAPES[shape], layout)) + "\n")
        argv = [command, "--checkpoint", str(bad)]
        if command == "eval":
            argv += ["--corpus", str(corpus_dir / "corpus.tsv")]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == []
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_order_zero_factors_name_the_echoed_order(
        self, corpus_dir, trained_dir, tmp_path, capsys, command
    ):
        lines = self.layout.lines(ckpt.load_checkpoint(str(trained_dir / "checkpoint.txt")))
        bad = tmp_path / "order0.txt"
        order0 = with_block_shape(lines, "global.factors", lambda r, c: (0, c), self.layout)
        bad.write_text("\n".join(order0) + "\n")
        argv = [command, "--checkpoint", str(bad)]
        if command == "eval":
            argv += ["--corpus", str(corpus_dir / "corpus.tsv")]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == []
        assert err.startswith("error: block 'global.factors' has shape (0, 3), expected (12, 3)")
        assert "query_order=3" in err


class TestBlockShapesV3(TestBlockShapes):
    layout = V3


class PhaseRedrawDamageCases:
    """Damage to what redraws the phases exits 1 with one error line, in either layout."""

    layout = V2

    def run_edited(self, corpus_dir, trained_dir, tmp_path, capsys, command, edit):
        lines = self.layout.lines(ckpt.load_checkpoint(str(trained_dir / "checkpoint.txt")))
        assert lines[0] == self.layout.header
        bad = tmp_path / "edited.txt"
        bad.write_text("\n".join(edit(lines)) + "\n")
        argv = [command, "--checkpoint", str(bad)]
        if command == "eval":
            argv += ["--corpus", str(corpus_dir / "corpus.tsv")]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == []
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    @pytest.mark.parametrize("seed_line", [None, "# seed=1.5", "# seed=nine"])
    def test_seed_echo_must_be_an_integer(
        self, corpus_dir, trained_dir, tmp_path, capsys, command, seed_line
    ):
        def edit(lines):
            kept = [l for l in lines if not l.startswith("# seed=")]
            return kept if seed_line is None else kept[:1] + [seed_line] + kept[1:]

        err = self.run_edited(corpus_dir, trained_dir, tmp_path, capsys, command, edit)
        assert "critic.phases are redrawn from an integer seed" in err

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_empty_weights_block(self, corpus_dir, trained_dir, tmp_path, capsys, command):
        def edit(lines):
            return with_block_shape(lines, "global.weights", lambda r, c: (0, 0))

        err = self.run_edited(corpus_dir, trained_dir, tmp_path, capsys, command, edit)
        assert "not divisible by rank 0" in err


class TestCheckpointV2(PhaseRedrawDamageCases):
    """v2 files leave critic.phases out; inspect says whether a file's phases are redrawn."""

    def test_inspect_says_the_phases_are_redrawn(self, capsys):
        code, out, _ = run(["inspect", "--checkpoint", str(CRITERION9_V2)], capsys)
        assert code == 0
        assert out[0] == V2_HEADER
        phases = [l for l in out if l.startswith("critic.phases: ")]
        assert len(phases) == 1 and "redrawn from the echoed seed" in phases[0]

    def test_inspect_doc_labels_a_v2_file_s_init_time_phases(
        self, corpus_dir, trained_dir, tmp_path, capsys
    ):
        path = tmp_path / "v2.txt"
        write_v2(ckpt.load_checkpoint(str(trained_dir / "checkpoint.txt")), path)
        corpus = env.load_corpus(str(corpus_dir / "corpus.tsv"), keyword_count=3)
        argv = [
            "inspect",
            "--checkpoint", str(path),
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--doc", corpus.documents[0].doc_id,
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out[0] == V2_HEADER
        assert any(l.startswith("top off-diagonals (init-time phases): ") for l in out)

    @pytest.mark.parametrize("source", ["fixture", "edited"])
    def test_inspect_says_a_v1_file_stores_its_phases(self, trained_dir, tmp_path, capsys, source):
        path = CRITERION9_V1
        if source == "edited":  # phases that are not the init draw of the echoed seed
            checkpoint = ckpt.load_checkpoint(str(trained_dir / "checkpoint.txt"))
            checkpoint.critic_phases = -checkpoint.critic_phases
            path = tmp_path / "v1.txt"
            write_v1(checkpoint, path)
        code, out, _ = run(["inspect", "--checkpoint", str(path)], capsys)
        assert code == 0
        assert out[0] == V1_HEADER
        phases = [l for l in out if l.startswith("critic.phases: ")]
        assert len(phases) == 1 and "stored in the file" in phases[0]
        assert "redrawn" not in phases[0]

    def test_inspect_doc_labels_a_v1_file_s_stored_phases(
        self, corpus_dir, trained_dir, tmp_path, capsys
    ):
        checkpoint = ckpt.load_checkpoint(str(trained_dir / "checkpoint.txt"))
        checkpoint.critic_phases = np.zeros_like(checkpoint.critic_phases)
        path = tmp_path / "v1.txt"
        write_v1(checkpoint, path)
        corpus = env.load_corpus(str(corpus_dir / "corpus.tsv"), keyword_count=3)
        argv = [
            "inspect",
            "--checkpoint", str(path),
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--doc", corpus.documents[0].doc_id,
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert any(l.startswith("top off-diagonals (stored phases): ") for l in out)


class TestCheckpointV3(PhaseRedrawDamageCases):
    """Training writes v3 files, which leave critic.phases out like v2."""

    layout = V3

    def test_trained_file_is_v3_without_phases(self, trained_dir):
        lines = (trained_dir / "checkpoint.txt").read_text().splitlines()
        assert lines[0] == "qforage-checkpoint v3"
        assert not any(l.startswith("[critic.phases ") for l in lines)

    def test_inspect_labels_the_phases_redrawn(self, corpus_dir, trained_dir, capsys):
        corpus = env.load_corpus(str(corpus_dir / "corpus.tsv"), keyword_count=3)
        argv = [
            "inspect",
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--doc", corpus.documents[0].doc_id,
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out[0] == ckpt.CHECKPOINT_HEADER == "qforage-checkpoint v3"
        phases = [l for l in out if l.startswith("critic.phases: ")]
        assert len(phases) == 1 and "redrawn from the echoed seed" in phases[0]
        assert any(l.startswith("top off-diagonals (init-time phases): ") for l in out)


class TestInspect:
    def test_summarizes_checkpoint(self, trained_dir, capsys):
        code, out, _ = run(
            ["inspect", "--checkpoint", str(trained_dir / "checkpoint.txt")], capsys
        )
        assert code == 0
        assert out[0] == ckpt.CHECKPOINT_HEADER
        assert any(l.startswith("global.factors: rank=4") for l in out)

    def test_actor_row_off_the_unit_sphere_is_runtime_error(self, trained_dir, tmp_path, capsys):
        checkpoint = ckpt.load_checkpoint(str(trained_dir / "checkpoint.txt"))
        checkpoint.actor_amplitudes[3] *= 3.0
        bad = tmp_path / "scaled.txt"
        ckpt.save_checkpoint(checkpoint, str(bad))
        code, out, err = run(["inspect", "--checkpoint", str(bad)], capsys)
        assert code == 1
        assert out == []
        assert "error:" in err and "'actor.amplitudes' row 3" in err

    def test_document_diagnostics_are_normalized(self, corpus_dir, trained_dir, capsys):
        corpus = env.load_corpus(str(corpus_dir / "corpus.tsv"), keyword_count=3)
        doc_id = corpus.documents[0].doc_id
        argv = [
            "inspect",
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--doc", doc_id,
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        probs = [
            float(part.split("=")[1])
            for line in out
            if "] score=" in line
            for part in line.split()
            if part.startswith("prob=")
        ]
        assert len(probs) == 3
        assert abs(sum(probs) - 1.0) <= 1e-10
        pool_line = next(l for l in out if l.startswith("pool: "))
        assert len(pool_line.split()) == 1 + 4
        critic_line = next(l for l in out if l.startswith("critic p: "))
        assert abs(float(critic_line.split("sum=")[1]) - 1.0) <= 1e-10

    def test_document_diagnostics_judge_as_eval_does(self, corpus_dir, trained_dir, capsys):
        corpus = env.load_corpus(str(corpus_dir / "corpus.tsv"), keyword_count=3)
        checkpoint = ckpt.load_checkpoint(str(trained_dir / "checkpoint.txt"))
        _, critic_table, _ = trainer.restore_params(checkpoint, corpus)
        compiled = corpus.compiled
        judged = critic.batch_class_probabilities(
            critic.pair_groups(compiled.pair_tokens + critic.WORD_ROW_OFFSET, compiled.pair_lengths),
            critic_table,
        )
        fmt = trainer.format_float
        for d, doc in enumerate(corpus.documents):
            argv = [
                "inspect",
                "--checkpoint", str(trained_dir / "checkpoint.txt"),
                "--corpus", str(corpus_dir / "corpus.tsv"),
                "--doc", doc.doc_id,
            ]
            code, out, _ = run(argv, capsys)
            assert code == 0
            chosen = next(int(l.split("]")[0][3:]) for l in out if l.startswith("* ["))
            p = judged[compiled.offsets[d] + chosen]
            expected = " ".join(f"{n}={fmt(v)}" for n, v in zip(critic.CLASS_NAMES, p))
            assert f"critic p: {expected} sum={fmt(float(p.sum()))}" in out
            assert f"q_value: {fmt(critic.q_value(p))}" in out

    def test_document_diagnostics_parse_and_check_the_checkpoint_once(
        self, corpus_dir, trained_dir, capsys, monkeypatch
    ):
        # Each spy patches the module that looks the name up.
        owners = {"load_checkpoint": cli, "check_invariants": trainer}
        spies = {name: mock.Mock(wraps=getattr(owner, name)) for name, owner in owners.items()}
        for name, spy in spies.items():
            monkeypatch.setattr(owners[name], name, spy)
        corpus = env.load_corpus(str(corpus_dir / "corpus.tsv"), keyword_count=3)
        argv = [
            "inspect",
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--doc", corpus.documents[0].doc_id,
        ]
        code, _, _ = run(argv, capsys)
        assert code == 0
        assert {name: spy.call_count for name, spy in spies.items()} == {
            "load_checkpoint": 1,
            "check_invariants": 1,
        }

    def test_document_diagnostics_compile_no_corpus(
        self, corpus_dir, trained_dir, capsys, monkeypatch
    ):
        spy = mock.Mock(wraps=env.compile_corpus)
        monkeypatch.setattr(env, "compile_corpus", spy)
        corpus = env.load_corpus(str(corpus_dir / "corpus.tsv"), keyword_count=3)
        argv = [
            "inspect",
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--doc", corpus.documents[-1].doc_id,
        ]
        code, _, _ = run(argv, capsys)
        assert code == 0
        assert spy.call_count == 0

    def test_doc_without_corpus_is_usage_error(self, trained_dir, capsys):
        argv = [
            "inspect",
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
            "--doc", "doc0000",
        ]
        code, _, _ = run(argv, capsys)
        assert code == 2

    def test_corpus_without_doc_is_usage_error(self, trained_dir, tmp_path, capsys):
        argv = [
            "inspect",
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
            "--corpus", str(tmp_path / "missing.tsv"),
        ]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == []
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: --corpus requires --doc"
        ]

    @pytest.mark.parametrize(
        "flags, config, name",
        [
            (["--off-diagonals", "2"], None, "--off-diagonals"),
            ([], "off_diagonals=2\n", "config key 'off_diagonals'"),
            (["--off-diagonals", "2"], "off_diagonals=3\n", "--off-diagonals"),
        ],
    )
    def test_off_diagonal_count_without_doc_is_usage_error(
        self, trained_dir, tmp_path, capsys, flags, config, name
    ):
        argv = ["inspect", "--checkpoint", str(trained_dir / "checkpoint.txt")] + flags
        if config is not None:
            cfg = tmp_path / "inspect.cfg"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == []
        assert f"error: {name} requires --doc" in err

    def test_unknown_document_is_runtime_error(self, corpus_dir, trained_dir, capsys):
        argv = [
            "inspect",
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--doc", "doc9999",
        ]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "doc9999" in err

    def test_negative_off_diagonal_count_is_usage_error(self, corpus_dir, trained_dir, capsys):
        corpus = env.load_corpus(str(corpus_dir / "corpus.tsv"), keyword_count=3)
        argv = [
            "inspect",
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--doc", corpus.documents[0].doc_id,
            "--off-diagonals", "-2",
        ]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == []
        assert "--off-diagonals" in err

    def test_negative_off_diagonal_count_in_config_names_the_key(
        self, corpus_dir, trained_dir, tmp_path, capsys
    ):
        cfg = tmp_path / "inspect.cfg"
        cfg.write_text("off_diagonals=-1\n")
        argv = self.doc_argv(corpus_dir, trained_dir) + ["--config", str(cfg)]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == []
        assert "config key 'off_diagonals' must be >= 0, got -1" in err
        assert "--off-diagonals" not in err

    def test_says_the_phases_are_fixed_at_init(self, trained_dir, capsys):
        code, out, _ = run(
            ["inspect", "--checkpoint", str(trained_dir / "checkpoint.txt")], capsys
        )
        assert code == 0
        phases = [l for l in out if l.startswith("critic.phases: ")]
        assert len(phases) == 1 and "training never updates them" in phases[0]

    def test_invalid_config_echo_is_runtime_error(self, trained_dir, tmp_path, capsys):
        lines = (trained_dir / "checkpoint.txt").read_text().splitlines()
        bad = tmp_path / "echo.txt"
        bad.write_text(
            "\n".join("# temperature=0" if l.startswith("# temperature=") else l for l in lines)
            + "\n"
        )
        code, out, err = run(["inspect", "--checkpoint", str(bad)], capsys)
        assert code == 1
        assert out == []
        assert err.startswith("error: config echo: ")

    def doc_argv(self, corpus_dir, trained_dir):
        corpus = env.load_corpus(str(corpus_dir / "corpus.tsv"), keyword_count=3)
        return [
            "inspect",
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--doc", corpus.documents[0].doc_id,
        ]

    @staticmethod
    def off_diagonal_pairs(out):
        line = next(l for l in out if l.startswith("top off-diagonals"))
        return line.partition(": ")[2].split(", ")

    @pytest.mark.parametrize("flag, expected", [([], 1), (["--off-diagonals", "2"], 2)])
    def test_config_file_sets_the_off_diagonal_count(
        self, corpus_dir, trained_dir, tmp_path, capsys, flag, expected
    ):
        cfg = tmp_path / "inspect.cfg"
        cfg.write_text("off_diagonals=1\n")
        argv = self.doc_argv(corpus_dir, trained_dir) + ["--config", str(cfg)] + flag
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert len(self.off_diagonal_pairs(out)) == expected

    def test_default_off_diagonal_count_is_five(self, corpus_dir, trained_dir, capsys):
        code, out, _ = run(self.doc_argv(corpus_dir, trained_dir), capsys)
        assert code == 0
        assert len(self.off_diagonal_pairs(out)) == 5

    @pytest.mark.parametrize(
        "text, message",
        [("bogus=3\n", "unknown config key 'bogus'"), ("off_diagonals=-1\n", "must be >= 0")],
    )
    def test_bad_config_file_is_usage_error(
        self, corpus_dir, trained_dir, tmp_path, capsys, text, message
    ):
        cfg = tmp_path / "inspect.cfg"
        cfg.write_text(text)
        argv = self.doc_argv(corpus_dir, trained_dir) + ["--config", str(cfg)]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == []
        assert message in err

    def test_writes_inspect_file_with_out(self, trained_dir, tmp_path, capsys):
        argv = [
            "inspect",
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
            "--out", str(tmp_path / "insp"),
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert (tmp_path / "insp" / "inspect.txt").read_text().splitlines() == out


class TestBytesThatAreNotUtf8:
    """A file holding a byte that is not UTF-8 is refused with one error line naming its line."""

    @staticmethod
    def assert_one_error_line(code, expected_code, out, err, message):
        assert code == expected_code
        assert out == []
        assert "Traceback" not in err
        assert err.splitlines() == [f"error: {message}"]

    def test_checkpoint_is_runtime_error(self, trained_dir, tmp_path, capsys):
        lines = (trained_dir / "checkpoint.txt").read_bytes().split(b"\n")
        lines[2] += b"\xff"
        bad = tmp_path / "checkpoint.txt"
        bad.write_bytes(b"\n".join(lines))
        code, out, err = run(["inspect", "--checkpoint", str(bad)], capsys)
        self.assert_one_error_line(code, 1, out, err, "line 3: not UTF-8 text")

    def test_corpus_is_runtime_error(self, corpus_dir, trained_dir, tmp_path, capsys):
        lines = (corpus_dir / "corpus.tsv").read_bytes().split(b"\n")
        lines[-3] = lines[-3].replace(b"\t", b"\xff\t", 1)
        bad = tmp_path / "corpus.tsv"
        bad.write_bytes(b"\n".join(lines))
        argv = ["eval", "--corpus", str(bad), "--checkpoint", str(trained_dir / "checkpoint.txt")]
        code, out, err = run(argv, capsys)
        self.assert_one_error_line(code, 1, out, err, f"line {len(lines) - 2}: not UTF-8 text")

    def test_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_bytes("# café\r\ndocs=4\r\n".encode() + b"patches=2\xff\n")
        code, out, err = run(["gen-corpus", "--config", str(cfg), "--out", str(tmp_path)], capsys)
        self.assert_one_error_line(code, 2, out, err, f"{cfg}:3: not UTF-8 text")


class TestOracle:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run(["oracle", "--seed", "1"], capsys)
        assert code == 0
        checks = [l for l in out if not l.startswith("#")]
        assert len(checks) == 5
        assert all(l.startswith("ok") for l in checks)

    def test_checks_filter_selects_subset(self, capsys):
        code, out, _ = run(["oracle", "--checks", "projection"], capsys)
        assert code == 0
        checks = [l for l in out if not l.startswith("#")]
        assert len(checks) == 1
        assert "projection" in checks[0]

    def test_two_named_checks(self, capsys):
        code, out, _ = run(["oracle", "--checks", "projection,born"], capsys)
        assert code == 0
        assert len([l for l in out if not l.startswith("#")]) == 2

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run(["oracle", "--checks", "voodoo"], capsys)
        assert code == 2
        assert "voodoo" in err

    def test_perturbation_fails_the_suite(self, capsys):
        code, out, _ = run(["oracle", "--perturb", "1e-3"], capsys)
        assert code == 3
        assert any(l.startswith("FAIL") for l in out)

    @pytest.mark.parametrize("name", oracles.ORACLE_NAMES)
    def test_each_check_passes_at_zero_and_fails_alone_when_perturbed(self, name, capsys):
        for perturb, expected_code, verdict in (("0", 0, "ok"), ("1e-3", 3, "FAIL")):
            code, out, _ = run(["oracle", "--checks", name, "--perturb", perturb], capsys)
            checks = [l for l in out if not l.startswith("#")]
            assert code == expected_code
            assert [l.split()[:2] for l in checks] == [[verdict, name]]

    def test_writes_report_with_out(self, tmp_path, capsys):
        code, out, _ = run(
            ["oracle", "--checks", "projection", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        assert (tmp_path / "oracle.txt").read_text().splitlines() == out


def subparser_actions(name):
    """One subcommand's option actions by dest, without --help."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        action.dest: action
        for action in commands.choices[name]._actions
        if not isinstance(action, argparse._HelpAction)
    }


class TestConfigKeysMatchFlags:
    """Every config key has a flag and every flag a key, so no flag is parsed and dropped."""

    SHORT = {"vocab_size": "--vocab", "candidates_per_doc": "--candidates", "keyword_count": "--keywords"}
    # Each subcommand's config keys and file arguments (name: required).
    COMMANDS = {
        "gen-corpus": (cli._GEN_KEYS, {}),
        "train": (cli._TRAIN_KEYS, {"corpus": True}),
        "eval": (cli._EVAL_KEYS, {"corpus": True, "checkpoint": True}),
        "inspect": (cli._INSPECT_KEYS, {"checkpoint": True, "corpus": False, "doc": False}),
        "oracle": (cli._ORACLE_KEYS, {}),
    }

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_flags_are_the_config_keys(self, name):
        keys, files = self.COMMANDS[name]
        # Only the subcommands that draw random numbers take a seed.
        assert keys.get("seed") is (int if name in ("gen-corpus", "train", "oracle") else None)
        actions = subparser_actions(name)
        assert set(actions) == {"config", "out", *files, *keys}
        for key in ("config", "out", *files):
            assert actions[key].option_strings == [f"--{key}"]
            assert actions[key].required == files.get(key, False)
        for key, parse in keys.items():
            flag = self.SHORT.get(key, "--" + key.replace("_", "-"))
            assert actions[key].option_strings == [flag]
            assert actions[key].type is parse
            assert not actions[key].required


class TestCorpusHelp:
    """--corpus help: a plain corpus file for train and eval, inspect's own rule for inspect."""

    def help_text(self, name, capsys):
        assert cli.main([name, "--help"]) == 0
        return " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("name", ["train", "eval"])
    def test_train_and_eval_describe_a_corpus_file(self, name, capsys):
        text = self.help_text(name, capsys)
        assert "--corpus CORPUS corpus file" in text
        assert "inspect" not in text
        assert "--doc" not in text

    def test_inspect_keeps_its_rule(self, capsys):
        text = self.help_text("inspect", capsys)
        assert "corpus file (inspect takes it with --doc, and only then)" in text


class TestEntryPoints:
    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_module_invocation(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, *WARNING_FLAGS, "-m", "qforage", "oracle", "--checks", "projection"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "projection" in proc.stdout


class TestTextFilesEndLinesInNewline:
    """Every file a command writes in text mode asks for \\n line ends, so its bytes
    are the same on every platform (Windows would otherwise write \\r\\n)."""

    def test_every_text_write_passes_newline(self, tmp_path, capsys):
        real_open = open
        newlines = {}

        def recording_open(file, mode="r", *args, **kwargs):
            if "b" not in mode and set(mode) & set("wax+"):
                newlines[os.path.basename(file)] = kwargs.get("newline")
            return real_open(file, mode, *args, **kwargs)

        corpus = tmp_path / "corpus" / "corpus.tsv"
        checkpoint = tmp_path / "run" / "checkpoint.txt"
        commands = [
            GEN_ARGS + ["--out", str(tmp_path / "corpus")],
            ["train", "--corpus", str(corpus), *TRAIN_SIZES, "--out", str(tmp_path / "run")],
            ["eval", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
             "--out", str(tmp_path / "eval")],
            ["inspect", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "inspect")],
            ["oracle", "--checks", "projection", "--out", str(tmp_path / "oracle")],
        ]
        with mock.patch("builtins.open", recording_open):
            for argv in commands:
                code, _, _ = run(argv, capsys)
                assert code == 0
        names = ("corpus.tsv", "metrics.tsv", "eval.txt", "inspect.txt", "oracle.txt")
        assert newlines == {name: "\n" for name in names}
        for name in names:
            assert b"\r" not in next(tmp_path.rglob(name)).read_bytes()
