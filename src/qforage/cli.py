"""Command-line front end: corpus generation, training, evaluation, inspection, checks.

Subcommands
    gen-corpus  synthesize a patchy corpus file
    train       run the actor-critic loop; writes checkpoint.txt and metrics.tsv
    eval        greedy evaluation of a checkpoint against a corpus
    inspect     dump checkpoint contents, or full diagnostics for one document
    oracle      run the self-check suite (optionally with an injected fault)

Shared flags: every subcommand takes --seed, --config (flat key=value text),
and --out (output directory). Precedence is flag > config file > built-in
default, and unknown config keys are rejected. The effective configuration is
echoed as `# key=value` lines at the top of every output file, so artifacts
are self-describing and two identical invocations write identical bytes.

Exit codes: 0 success, 1 runtime or IO failure, 2 usage or configuration
error, 3 one or more oracle checks failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import actor, critic, env, oracles, trainer
from .errors import QForageError, SpecInvalid
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
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
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
    config_path = getattr(args, "config", None)
    if config_path:
        for key, raw in _read_config_file(config_path).items():
            if key not in keys:
                raise UsageError(
                    f"unknown config key {key!r}; valid keys: {', '.join(sorted(keys))}"
                )
            try:
                effective[key] = keys[key](raw)
            except ValueError:
                raise UsageError(f"config key {key!r} has invalid value {raw!r}") from None
    for key in keys:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            effective[key] = flag_value
    return effective


def _echo_lines(effective: dict) -> list[str]:
    return [f"{key}={trainer.echo_text(value)}" for key, value in effective.items()]


def _ensure_out_dir(args: argparse.Namespace) -> str:
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


_GEN_KEYS = {**trainer.field_parsers(env.CorpusSpec), "seed": int}
_TRAIN_KEYS = trainer.field_parsers(trainer.TrainConfig)
del _TRAIN_KEYS["checkpoint_path"]  # train sets it from --out
_EVAL_KEYS: dict[str, type] = {"scent_smoothing": float, "seed": int}
_INSPECT_KEYS: dict[str, type] = {"seed": int, "off_diagonals": int}
_ORACLE_KEYS: dict[str, type] = {"seed": int, "perturb": float, "checks": str}


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    defaults = {**dataclasses.asdict(env.CorpusSpec()), "seed": 0}
    effective = _effective(_GEN_KEYS, defaults, args)
    seed = effective.pop("seed")
    spec = env.CorpusSpec(**effective)
    try:
        spec.validate()
    except SpecInvalid as exc:
        raise UsageError(str(exc)) from None
    corpus = env.gen_corpus(spec, stream_rng(seed, "gen-corpus"))
    out_dir = _ensure_out_dir(args)
    path = os.path.join(out_dir, CORPUS_FILENAME)
    echo = _echo_lines({**effective, "seed": seed})
    env.save_corpus(corpus, path, echo=echo)
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
    out_dir = _ensure_out_dir(args)
    config = trainer.TrainConfig(
        **effective, checkpoint_path=os.path.join(out_dir, CHECKPOINT_FILENAME)
    )
    try:
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    corpus = env.load_corpus(args.corpus, keyword_count=config.keyword_count)
    result = trainer.train(config, corpus)

    metrics_path = os.path.join(out_dir, METRICS_FILENAME)
    lines = [f"# {entry}" for entry in _echo_lines({**effective, "corpus": args.corpus})]
    lines.append("# columns: episode avg_reward greedy_accuracy critic_accuracy scent_scalar")
    lines.extend(result.metric_lines())
    _write_lines(metrics_path, lines)

    for row in result.metrics:
        print(row.line())
    print(f"wrote {config.checkpoint_path}")
    print(f"wrote {metrics_path}")
    return EXIT_OK


def _load_for_eval(checkpoint: trainer.Checkpoint, corpus_path: str) -> tuple:
    """Check the echo once, read the corpus with its keyword count, and bind the rows."""
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
        trainer.load_checkpoint(args.checkpoint), args.corpus
    )
    defaults = {"scent_smoothing": config.scent_smoothing, "seed": config.seed}
    effective = {**defaults, **overrides}
    ev = trainer.evaluate(
        params, critic_table, corpus, scent_smoothing=effective["scent_smoothing"]
    )
    lines = [
        f"# {entry}"
        for entry in _echo_lines(
            {**effective, "corpus": args.corpus, "checkpoint": args.checkpoint}
        )
    ]
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
    for line in lines:
        print(line)
    if getattr(args, "out", None):
        out_dir = _ensure_out_dir(args)
        _write_lines(os.path.join(out_dir, EVAL_FILENAME), lines)
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    if args.doc is not None and not args.corpus:
        raise UsageError("--doc requires --corpus")
    effective = _effective(_INSPECT_KEYS, {"off_diagonals": 5}, args)
    off_diagonals = effective["off_diagonals"]
    if off_diagonals < 0:
        name = "--off-diagonals" if args.off_diagonals is not None else "config key 'off_diagonals'"
        raise UsageError(f"{name} must be >= 0, got {off_diagonals}")
    checkpoint = trainer.load_checkpoint(args.checkpoint)
    if args.doc is None:
        trainer.checkpoint_config(checkpoint)
        trainer.check_invariants(checkpoint)
    else:  # _load_for_eval checks the echo and the invariants as it binds the rows.
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
    redrawn = checkpoint.header == trainer.CHECKPOINT_HEADER
    source = "the init draw, redrawn from the echoed seed" if redrawn else "stored in the file"
    lines.append(
        f"critic.phases: {checkpoint.critic_phases.shape} {source}; training never updates them"
    )

    if args.doc is not None:
        try:
            doc = corpus.document(args.doc)
        except KeyError:
            raise QForageError(f"document id {args.doc!r} not found in {args.corpus}") from None
        first = int(corpus.compiled.offsets[corpus.documents.index(doc)])
        rows = slice(first, first + len(doc.candidates))
        ids = trainer.query_row_ids(corpus.compiled, config.query_order)[rows]
        scores, pooled, _ = actor.project_rows(params.global_rep, params.table.amplitudes[ids])
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
        rho = critic.critic_density(doc.keywords, doc.candidates[chosen].tokens, critic_table)
        measurement = critic.measure_classes(rho)
        p = measurement.probabilities
        lines.append(
            "critic p: "
            + " ".join(f"{name}={fmt(p[i])}" for i, name in enumerate(critic.CLASS_NAMES))
            + f" sum={fmt(float(p.sum()))}"
        )
        lines.append(f"q_value: {fmt(critic.q_value(measurement))}")
        diag = rho.matrix.diagonal().real
        lines.append("rho diagonal: " + " ".join(fmt(v) for v in diag))
        dim = rho.dim
        magnitudes = np.abs(rho.matrix)
        iu = np.triu_indices(dim, k=1)
        top = np.argsort(magnitudes[iu])[::-1][:off_diagonals]
        pairs = ", ".join(
            f"({iu[0][t]},{iu[1][t]})={fmt(magnitudes[iu][t])}" for t in top
        )
        phases = "init-time" if redrawn else "stored"
        lines.append(f"top off-diagonals ({phases} phases): {pairs}")

    for line in lines:
        print(line)
    if getattr(args, "out", None):
        out_dir = _ensure_out_dir(args)
        _write_lines(os.path.join(out_dir, "inspect.txt"), lines)
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
    for line in lines:
        print(line)
    if getattr(args, "out", None):
        out_dir = _ensure_out_dir(args)
        _write_lines(os.path.join(out_dir, ORACLE_FILENAME), lines)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_ORACLE


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="root seed for all randomness")
    sub.add_argument("--config", default=None, help="flat key=value config file")
    sub.add_argument("--out", default=None, help="output directory (default: current)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qforage",
        description="Quantum-inspired query foraging: corpus tools, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="synthesize a patchy corpus file")
    _add_common(p)
    p.add_argument("--docs", type=int, default=None)
    p.add_argument("--patches", type=int, default=None)
    p.add_argument("--vocab", type=int, dest="vocab_size", default=None)
    p.add_argument("--candidates", type=int, dest="candidates_per_doc", default=None)
    p.add_argument("--noise", type=float, default=None, help="label noise rate in [0, 1]")
    p.add_argument("--doc-len", type=int, dest="doc_len", default=None)
    p.add_argument("--query-len", type=int, dest="query_len", default=None)
    p.add_argument("--keywords", type=int, dest="keyword_count", default=None)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("train", help="train actor and critic on a corpus")
    _add_common(p)
    p.add_argument("--corpus", required=True, help="corpus file to train on")
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--actor-lr", type=float, dest="actor_lr", default=None)
    p.add_argument("--critic-lr", type=float, dest="critic_lr", default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--scent-smoothing", type=float, dest="scent_smoothing", default=None)
    p.add_argument("--mode", choices=("bandit", "session"), default=None)
    p.add_argument("--eval-interval", type=int, dest="eval_interval", default=None)
    p.add_argument("--basis-dim", type=int, dest="basis_dim", default=None)
    p.add_argument("--query-order", type=int, dest="query_order", default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--embed-dim", type=int, dest="embed_dim", default=None)
    p.add_argument("--keywords", type=int, dest="keyword_count", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="greedy evaluation of a checkpoint")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scent-smoothing", type=float, dest="scent_smoothing", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="dump a checkpoint, optionally one document's diagnostics")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", default=None, help="needed with --doc")
    p.add_argument("--doc", default=None, help="document id to diagnose")
    p.add_argument(
        "--off-diagonals", type=int, dest="off_diagonals", default=None,
        help="how many of the largest off-diagonal magnitudes to print (default 5)",
    )
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("oracle", help="run the self-check suite")
    _add_common(p)
    p.add_argument(
        "--checks", default=None,
        help=f"comma-separated subset of {', '.join(oracles.ORACLE_NAMES)}",
    )
    p.add_argument(
        "--perturb", type=float, default=None,
        help="inject a fault of this magnitude; a meaningful size must make checks fail",
    )
    p.set_defaults(func=cmd_oracle)

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
    except QForageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
