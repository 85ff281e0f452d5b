"""Tests for the command-line interface, run in-process through cli.main.

Each command is checked for its exit code, its printed output, and the files
it leaves behind; cross-command consistency (train metrics vs eval output)
is compared on the exact printed decimal strings.
"""

import subprocess
import sys

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
        assert any(l.startswith("rng streams:") for l in out)

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
