"""Tests for the command-line interface, run in-process through cli.main.

Each command is checked for its exit code, its printed output, and the files
it leaves behind; cross-command consistency (train metrics vs eval output)
is compared on the exact printed decimal strings.
"""

import argparse
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from qforage import cli, env, trainer

GEN_ARGS = [
    "gen-corpus",
    "--docs", "6",
    "--patches", "2",
    "--vocab", "40",
    "--keywords", "3",
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


class TestEval:
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

    def test_non_finite_actor_rows_are_runtime_error(
        self, corpus_dir, trained_dir, tmp_path, capsys
    ):
        checkpoint = trainer.load_checkpoint(str(trained_dir / "checkpoint.txt"))
        checkpoint.actor_amplitudes[:] = np.nan
        bad = tmp_path / "nan.txt"
        trainer.save_checkpoint(checkpoint, str(bad))
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
        checkpoint = trainer.load_checkpoint(str(trained_dir / "checkpoint.txt"))
        checkpoint.actor_amplitudes[3] *= 3.0
        bad = tmp_path / "scaled.txt"
        trainer.save_checkpoint(checkpoint, str(bad))
        argv = [
            "eval",
            "--corpus", str(corpus_dir / "corpus.tsv"),
            "--checkpoint", str(bad),
        ]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == []
        assert "error:" in err and "'actor.amplitudes' row 3" in err

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

    @pytest.mark.parametrize(
        "entry", ["scent_smoothing=0", "temperature=0", "episodes=abc"]
    )
    def test_invalid_config_echo_is_runtime_error(
        self, corpus_dir, trained_dir, tmp_path, capsys, entry
    ):
        key = entry.partition("=")[0]
        lines = (trained_dir / "checkpoint.txt").read_text().splitlines()
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


class TestInspect:
    def test_summarizes_checkpoint(self, trained_dir, capsys):
        code, out, _ = run(
            ["inspect", "--checkpoint", str(trained_dir / "checkpoint.txt")], capsys
        )
        assert code == 0
        assert out[0] == trainer.CHECKPOINT_HEADER
        assert any(l.startswith("global.factors: rank=4") for l in out)

    def test_actor_row_off_the_unit_sphere_is_runtime_error(self, trained_dir, tmp_path, capsys):
        checkpoint = trainer.load_checkpoint(str(trained_dir / "checkpoint.txt"))
        checkpoint.actor_amplitudes[3] *= 3.0
        bad = tmp_path / "scaled.txt"
        trainer.save_checkpoint(checkpoint, str(bad))
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

    def test_document_diagnostics_parse_and_check_the_checkpoint_once(
        self, corpus_dir, trained_dir, capsys, monkeypatch
    ):
        spies = {
            name: mock.Mock(wraps=getattr(trainer, name))
            for name in ("load_checkpoint", "check_invariants")
        }
        for name, spy in spies.items():
            monkeypatch.setattr(trainer, name, spy)
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

    def test_doc_without_corpus_is_usage_error(self, trained_dir, capsys):
        argv = [
            "inspect",
            "--checkpoint", str(trained_dir / "checkpoint.txt"),
            "--doc", "doc0000",
        ]
        code, _, _ = run(argv, capsys)
        assert code == 2

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

    def test_writes_report_with_out(self, tmp_path, capsys):
        code, out, _ = run(
            ["oracle", "--checks", "projection", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        assert (tmp_path / "oracle.txt").read_text().splitlines() == out


def subparser_dests(name):
    """Option dests of one subcommand, without --help."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        action.dest
        for action in commands.choices[name]._actions
        if not isinstance(action, argparse._HelpAction)
    }


class TestConfigKeysMatchFlags:
    """Every config key has a flag and every flag a key, so no flag is parsed and dropped."""

    def test_train(self):
        assert subparser_dests("train") - {"config", "out", "corpus"} == set(cli._TRAIN_KEYS)

    def test_gen_corpus(self):
        assert subparser_dests("gen-corpus") - {"config", "out"} == set(cli._GEN_KEYS)

    def test_inspect(self):
        dests = subparser_dests("inspect") - {"config", "out", "checkpoint", "corpus", "doc"}
        assert dests == set(cli._INSPECT_KEYS)


class TestEntryPoints:
    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qforage", "oracle", "--checks", "projection"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "projection" in proc.stdout
