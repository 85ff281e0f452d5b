"""Command-line front end: corpus generation, training, evaluation, inspection, checks.

Subcommands
    gen-corpus  synthesize a patchy corpus file
    train       run the actor-critic loop; writes checkpoint.txt and metrics.tsv
    eval        greedy evaluation of a checkpoint against a corpus
    inspect     dump checkpoint contents, or full diagnostics for one document
    oracle      run the self-check suite (optionally with an injected fault)

Shared flags: every subcommand takes --config (flat key=value text) and --out
(output directory); gen-corpus, train and oracle, the subcommands that draw
random numbers, take --seed. Each config key is also a flag, "--" plus the
key with dashes (actor_lr is --actor-lr), except vocab_size, candidates_per_doc
and keyword_count, whose flags are --vocab, --candidates and --keywords.
keyword_count is a train key only: a corpus file stores no keywords, and eval
reads the count from the checkpoint.
Precedence is flag > config file > built-in default, and unknown config keys
are rejected. The effective configuration is echoed as `# key=value` lines at
the top of every output file, so artifacts are self-describing and two
identical invocations write identical bytes.

Exit codes: 0 success, 1 runtime or IO failure, 2 usage or configuration
error, 3 one or more oracle checks failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import actor, critic, env, oracles, qrep, trainer
from .checkpoint import Checkpoint, load_checkpoint
from .errors import QForageError, SpecInvalid, undecodable_line
from .seeding import stream_rng

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3

CORPUS_FILENAME = "corpus.tsv"
CHECKPOINT_FILENAME = "checkpoint.txt"
METRICS_FILENAME = "metrics.tsv"
EVAL_FILENAME = "eval.txt"
ORACLE_FILENAME = "oracle.txt"


class UsageError(Exception):
    """Bad flags or config contents; maps to exit code 2."""


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}:{undecodable_line(data, exc.start)}: not UTF-8 text") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _effective(
    keys: dict[str, type],
    defaults: dict,
    args: argparse.Namespace,
) -> dict:
    """Merge defaults, config-file values, and flags; flags win."""
    effective = dict(defaults)
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in keys:
                raise UsageError(
                    f"unknown config key {key!r}; valid keys: {', '.join(sorted(keys))}"
                )
            try:
                effective[key] = keys[key](raw)
            except ValueError:
                raise UsageError(f"config key {key!r} has invalid value {raw!r}") from None
    for key in keys:
        flag_value = getattr(args, key)
        if flag_value is not None:
            effective[key] = flag_value
    return effective


def _echo_lines(effective: dict) -> list[str]:
    return [f"{key}={trainer.echo_text(value)}" for key, value in effective.items()]


def _ensure_out_dir(args: argparse.Namespace) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_lines(path: str, lines: list[str]) -> None:
    # newline="\n": the same bytes on every platform, not \r\n on Windows.
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _report(args: argparse.Namespace, filename: str, lines: list[str]) -> None:
    """Print a report and, with --out, write the same lines to filename there."""
    for line in lines:
        print(line)
    if args.out:
        _write_lines(os.path.join(_ensure_out_dir(args), filename), lines)


_GEN_KEYS = {**trainer.field_parsers(env.CorpusSpec), "seed": int}
_GEN_KEYS.pop("keyword_count")  # a corpus file stores no keywords
_TRAIN_KEYS = trainer.field_parsers(trainer.TrainConfig)
_EVAL_KEYS: dict[str, type] = {"scent_smoothing": float}
_INSPECT_KEYS: dict[str, type] = {"off_diagonals": int}
DEFAULT_OFF_DIAGONALS = 5  # inspect's --off-diagonals when neither flag nor config sets it
_ORACLE_KEYS: dict[str, type] = {"seed": int, "perturb": float, "checks": str}


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    defaults = {**dataclasses.asdict(env.CorpusSpec()), "seed": 0}
    del defaults["keyword_count"]
    effective = _effective(_GEN_KEYS, defaults, args)
    spec = env.CorpusSpec(**{k: v for k, v in effective.items() if k != "seed"})
    try:
        spec.validate()
    except SpecInvalid as exc:
        raise UsageError(str(exc)) from None
    corpus = env.gen_corpus(spec, stream_rng(effective["seed"], "gen-corpus"))
    path = os.path.join(_ensure_out_dir(args), CORPUS_FILENAME)
    env.save_corpus(corpus, path, echo=_echo_lines(effective))
    candidates = sum(len(d.candidates) for d in corpus.documents)
    print(f"wrote {path}")
    print(
        f"documents={len(corpus.documents)} patches={len(corpus.patch_ids)} "
        f"candidates={candidates} vocabulary={len(corpus.vocabulary)}"
    )
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    base = trainer.TrainConfig()
    defaults = {key: getattr(base, key) for key in _TRAIN_KEYS}
    effective = _effective(_TRAIN_KEYS, defaults, args)
    config = trainer.TrainConfig(**effective)
    try:
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out_dir = _ensure_out_dir(args)
    corpus = env.load_corpus(args.corpus, keyword_count=config.keyword_count)
    checkpoint_path = os.path.join(out_dir, CHECKPOINT_FILENAME)
    result = trainer.train(config, corpus, checkpoint_path)

    metrics_path = os.path.join(out_dir, METRICS_FILENAME)
    lines = [f"# {entry}" for entry in _echo_lines({**effective, "corpus": args.corpus})]
    lines.append("# columns: episode avg_reward greedy_accuracy critic_accuracy scent_scalar")
    lines.extend(result.metric_lines())
    _write_lines(metrics_path, lines)

    for row in result.metrics:
        print(row.line())
    print(f"wrote {checkpoint_path}")
    print(f"wrote {metrics_path}")
    return EXIT_OK


def _load_for_eval(checkpoint: Checkpoint, corpus_path: str) -> tuple:
    """Check the checkpoint once, read the corpus with its keyword count, and bind the rows."""
    config = trainer.checkpoint_config(checkpoint)
    corpus = env.load_corpus(corpus_path, keyword_count=config.keyword_count)
    params, critic_table = trainer.bind_params(checkpoint, corpus, config)
    return corpus, params, critic_table, config


def cmd_eval(args: argparse.Namespace) -> int:
    # Flags and config values are checked before any file is read; the
    # checkpoint's own settings fill in the rest.
    overrides = _effective(_EVAL_KEYS, {}, args)
    if "scent_smoothing" in overrides:
        try:
            env.check_smoothing(overrides["scent_smoothing"])
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    corpus, params, critic_table, config = _load_for_eval(
        load_checkpoint(args.checkpoint), args.corpus
    )
    effective = {"scent_smoothing": config.scent_smoothing, **overrides}
    ev = trainer.evaluate(
        params, critic_table, corpus, scent_smoothing=effective["scent_smoothing"]
    )
    echo = {**effective, "corpus": args.corpus, "checkpoint": args.checkpoint}
    lines = [f"# {entry}" for entry in _echo_lines(echo)]
    for doc_id, tokens, reward in ev.choices:
        lines.append(f"{doc_id}\t{' '.join(tokens)}\t{reward:d}")
    fmt = trainer.format_float

    def frequencies(freq: np.ndarray) -> str:
        return " ".join(f"{v}:{fmt(f)}" for v, f in zip(env.REWARD_VALUES, freq))

    lines.append(f"greedy_accuracy={fmt(ev.greedy_accuracy)}")
    lines.append(f"mean_reward={fmt(ev.mean_reward)}")
    lines.append(f"critic_accuracy={fmt(ev.critic_accuracy)}")
    lines.append(f"scent_scalar={fmt(ev.scent.scalar)}")
    lines.append(f"reward_frequencies={frequencies(ev.scent.frequencies)}")
    for patch_id, patch in ev.scent.per_patch.items():
        lines.append(
            f"patch {patch_id}: scent={fmt(patch.scalar)} count={patch.count} "
            + frequencies(patch.frequencies)
        )
    _report(args, EVAL_FILENAME, lines)
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    if args.doc is not None and not args.corpus:
        raise UsageError("--doc requires --corpus")
    if args.doc is None and args.corpus:
        raise UsageError("--corpus requires --doc")
    effective = _effective(_INSPECT_KEYS, {}, args)
    off_diagonals = effective.get("off_diagonals", DEFAULT_OFF_DIAGONALS)
    name = "--off-diagonals" if args.off_diagonals is not None else "config key 'off_diagonals'"
    if "off_diagonals" in effective and args.doc is None:
        raise UsageError(f"{name} requires --doc")
    if off_diagonals < 0:
        raise UsageError(f"{name} must be >= 0, got {off_diagonals}")
    checkpoint = load_checkpoint(args.checkpoint)
    if args.doc is None:
        trainer.checkpoint_config(checkpoint)
    else:
        corpus, params, critic_table, config = _load_for_eval(checkpoint, args.corpus)
    fmt = trainer.format_float
    lines = [checkpoint.header]
    lines.extend(f"# {k}={v}" for k, v in checkpoint.config_echo.items())
    rank, order, k = checkpoint.global_factors.shape
    lines.append(f"actor.amplitudes: {checkpoint.actor_amplitudes.shape}")
    lines.append(f"global.weights: rank={rank}")
    lines.append(f"global.factors: rank={rank} order={order} basis_dim={k}")
    lines.append(f"critic.amplitudes: {checkpoint.critic_amplitudes.shape}")
    # A v1 file stores its phases, which need not be the init draw.
    redrawn = not checkpoint.phases_stored
    source = "the init draw, redrawn from the echoed seed" if redrawn else "stored in the file"
    lines.append(
        f"critic.phases: {checkpoint.critic_phases.shape} {source}; training never updates them"
    )

    if args.doc is not None:
        try:
            doc = corpus.document(args.doc)
        except KeyError:
            raise QForageError(f"document id {args.doc!r} not found in {args.corpus}") from None
        rows = [qrep.embed_query(c.tokens, params.table, config.query_order).rows for c in doc.candidates]
        scores, pooled, _ = qrep.project_rows(params.global_rep, np.stack(rows))
        probs = actor.policy_probabilities(scores, params.temperature)
        chosen = int(actor.first_argmax(scores, [0])[0])
        lines.append(f"doc {doc.doc_id} patch {doc.patch_id}")
        lines.append(f"keywords: {' '.join(doc.keywords)}")
        for i, cand in enumerate(doc.candidates):
            marker = "*" if i == chosen else " "
            lines.append(
                f"{marker} [{i}] score={fmt(scores[i])} prob={fmt(probs[i])} "
                f"label={cand.label:+d} {' '.join(cand.tokens)}"
            )
        lines.append("pool: " + " ".join(fmt(v) for v in pooled[chosen]))
        query = doc.candidates[chosen].tokens
        p = critic.class_probabilities(list(doc.keywords) + list(query), critic_table)
        lines.append(
            "critic p: "
            + " ".join(f"{name}={fmt(p[i])}" for i, name in enumerate(critic.CLASS_NAMES))
            + f" sum={fmt(float(p.sum()))}"
        )
        lines.append(f"q_value: {fmt(critic.q_value(p))}")
        # The density matrix only for what the class probabilities do not show.
        rho = critic.critic_density(doc.keywords, query, critic_table)
        diag = rho.matrix.diagonal().real
        lines.append("rho diagonal: " + " ".join(fmt(v) for v in diag))
        iu = np.triu_indices(rho.dim, k=1)
        magnitudes = np.abs(rho.matrix)[iu]
        top = np.argsort(magnitudes)[::-1][:off_diagonals]
        pairs = ", ".join(f"({iu[0][t]},{iu[1][t]})={fmt(magnitudes[t])}" for t in top)
        phases = "init-time" if redrawn else "stored"
        lines.append(f"top off-diagonals ({phases} phases): {pairs}")

    _report(args, "inspect.txt", lines)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    defaults = {"seed": 0, "perturb": 0.0, "checks": ""}
    effective = _effective(_ORACLE_KEYS, defaults, args)
    names = [n for n in effective["checks"].split(",") if n] or None
    try:
        reports = oracles.run_oracles(names, seed=effective["seed"], perturb=effective["perturb"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    lines = [f"# {entry}" for entry in _echo_lines(effective)]
    for report in reports:
        status = "ok" if report.passed else "FAIL"
        lines.append(f"{status:4s} {report.name:12s} {report.detail}")
    _report(args, ORACLE_FILENAME, lines)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_ORACLE


# The flags not named "--" plus their config key with dashes.
_SHORT_FLAGS = {
    "vocab_size": "--vocab",
    "candidates_per_doc": "--candidates",
    "keyword_count": "--keywords",
}

_HELP = {
    "gen-corpus": "synthesize a patchy corpus file",
    "train": "train actor and critic on a corpus",
    "eval": "greedy evaluation of a checkpoint",
    "inspect": "dump a checkpoint, optionally one document's diagnostics",
    "oracle": "run the self-check suite",
    "config": "flat key=value config file",
    "out": "output directory (default: current)",
    "corpus": "corpus file",
    "inspect corpus": "corpus file (inspect takes it with --doc, and only then)",
    "doc": "document id to diagnose",
    "seed": "root seed for all randomness",
    "noise": "label noise rate in [0, 1]",
    "mode": "bandit or session",
    "off_diagonals": f"how many of the largest off-diagonal magnitudes to print (default {DEFAULT_OFF_DIAGONALS})",
    "checks": f"comma-separated subset of {', '.join(oracles.ORACLE_NAMES)}",
    "perturb": "inject a fault of this magnitude; a meaningful size must make checks fail",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qforage",
        description="Quantum-inspired query foraging: corpus tools, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand takes --config, --out, its file arguments (name: required)
    # and one flag per config key.
    for name, func, keys, files in (
        ("gen-corpus", cmd_gen_corpus, _GEN_KEYS, {}),
        ("train", cmd_train, _TRAIN_KEYS, {"corpus": True}),
        ("eval", cmd_eval, _EVAL_KEYS, {"corpus": True, "checkpoint": True}),
        ("inspect", cmd_inspect, _INSPECT_KEYS, {"checkpoint": True, "corpus": False, "doc": False}),
        ("oracle", cmd_oracle, _ORACLE_KEYS, {}),
    ):
        p = sub.add_parser(name, help=_HELP[name])
        for key, required in {"config": False, "out": False, **files}.items():
            # A subcommand's own text for a key ("inspect corpus") comes first.
            text = _HELP.get(f"{name} {key}", _HELP.get(key))
            p.add_argument(f"--{key}", required=required, help=text)
        for key, parse in keys.items():
            flag = _SHORT_FLAGS.get(key, "--" + key.replace("_", "-"))
            p.add_argument(flag, type=parse, dest=key, help=_HELP.get(key))
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QForageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
