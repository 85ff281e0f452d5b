"""Actor-critic training loop, evaluation, and text checkpoints.

One step: the actor samples a candidate from its softmax policy, the
environment pays the candidate's label as reward, the critic judges the
(keywords, chosen query) pair, and both sides take a plain SGD step. The critic
judges by its class block masses (critic.class_probabilities), which equal
measuring its density matrix on unit rows, so no density matrix is built
during training or evaluation. The actor coefficient is the advantage, reward
minus the critic's expected-reward estimate; the critic trains supervised
against the true label. The policy gradient reuses the forward pass and the
softmax the action was sampled from, and the critic's estimate is read from
the class probabilities its loss is taken on.

A step touches only its tokens' rows: gradients carry (row ids, row values),
and the update subtracts and renormalizes those rows alone, so its cost does
not grow with the vocabulary. Every other row has zero gradient and is
already unit within the renormalization dead band, so the result is the same
as a dense update. After every step every unit-norm row (actor amplitudes,
factor vectors, critic amplitudes) is unit again, the actor padding row stays
pinned, and critic amplitudes stay nonnegative.

Both modes run the same step: the next document never depends on the action,
so each step updates the actor at once with its one-step advantage. Mode only
picks the document order (env.Environment): a bandit episode is one document,
a session episode one pass through a patch.

Evaluation is one batched pass, not a loop over documents. The corpus is
compiled once into arrays of vocabulary indices (env.Corpus.compiled); every
candidate is scored at once by actor.score_rows, the scorer actor_forward
calls on a step, and every (document, candidate) pair is judged at once from
per-word block masses. Scores and class probabilities keep the bits of a
per-document pass. Scent statistics come from the array of chosen rewards
(env.reward_scent), and training's scent scalar uses the same recurrence.

Checkpoints are UTF-8 text: a `qforage-checkpoint v1` header, `# key=value`
config echo lines, then named decimal matrix blocks (Checkpoint.blocks).
Floats print with 17 significant digits, so save followed by load reproduces
every parameter bit for bit. Each block is formatted by one `%` operation and
parsed by one np.loadtxt call, not one Python call per value; only a block
that fails to parse is walked row by row, to name the bad line. A save writes
a temporary file block by block and renames it onto the target, so a failed
save never truncates an earlier checkpoint.
The vocabulary-to-row mapping is not stored; it is rebuilt as (null, unk) +
sorted corpus vocabulary, and shape validation rejects a checkpoint paired
with the wrong corpus.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import actor, critic, env, qcore, qrep
from .errors import (
    CheckpointInvalid,
    CheckpointMismatch,
    EmptyCorpus,
    ParseError,
    ShapeMismatch,
    VersionMismatch,
)
from .seeding import stream_rng

CHECKPOINT_HEADER = "qforage-checkpoint v1"


def format_float(x: float) -> str:
    """Decimal form with 17 significant digits; parses back to the same float64."""
    return f"{float(x):.17g}"


def echo_text(value) -> str:
    """A setting as echo-line text: floats by format_float, anything else by str."""
    return format_float(value) if isinstance(value, float) else str(value)


_PARSERS = {"int": int, "float": float, "str": str, "str | None": str}


def field_parsers(cls) -> dict:
    """The parser of each of a settings dataclass's fields, in field order."""
    return {f.name: _PARSERS[f.type] for f in dataclasses.fields(cls)}


@dataclass
class TrainConfig:
    """Run settings: loop counts, learning rates, model sizes, and the seed."""

    episodes: int = 2000
    actor_lr: float = 0.1
    critic_lr: float = 0.2
    temperature: float = 1.0
    scent_smoothing: float = 0.1
    seed: int = 0
    mode: str = "bandit"
    eval_interval: int = 200
    checkpoint_path: str | None = None
    basis_dim: int = qrep.DEFAULT_BASIS_DIM
    query_order: int = qrep.DEFAULT_QUERY_ORDER
    rank: int = qrep.DEFAULT_RANK
    embed_dim: int = critic.DEFAULT_EMBED_DIM
    keyword_count: int = env.DEFAULT_KEYWORD_COUNT

    def validate(self) -> None:
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        if self.actor_lr <= 0.0 or self.critic_lr <= 0.0:
            raise ValueError("learning rates must be positive")
        if not (actor.TEMPERATURE_MIN <= self.temperature <= actor.TEMPERATURE_MAX):
            raise ValueError(f"temperature {self.temperature!r} outside the supported range")
        env.check_smoothing(self.scent_smoothing)
        if self.mode not in ("bandit", "session"):
            raise ValueError(f"mode must be 'bandit' or 'session', got {self.mode!r}")
        if self.eval_interval < 0:
            raise ValueError(f"eval interval must be >= 0, got {self.eval_interval}")
        if self.basis_dim < 1 or self.query_order < 1 or self.rank < 1:
            raise ValueError("model sizes must be positive")
        if self.embed_dim < 3 or self.embed_dim % 3 != 0:
            raise ValueError(f"embed_dim must be a positive multiple of 3, got {self.embed_dim}")
        if self.keyword_count < 1:
            raise ValueError(f"keyword_count must be >= 1, got {self.keyword_count}")

    def echo(self) -> dict[str, str]:
        """Effective settings as strings, for echo lines in output artifacts."""
        values = dataclasses.asdict(self)
        return {name: echo_text(value) for name, value in values.items() if value is not None}

    @classmethod
    def from_echo(cls, echo: dict[str, str]) -> "TrainConfig":
        """Rebuild a config from echo lines; unknown keys are ignored."""
        kwargs = {}
        for name, parse in field_parsers(cls).items():
            if name in echo:
                try:
                    kwargs[name] = parse(echo[name])
                except ValueError:
                    raise ValueError(
                        f"{name}={echo[name]!r} is not a valid {parse.__name__}"
                    ) from None
        return cls(**kwargs)


@dataclass(frozen=True)
class StepMetrics:
    reward: int
    q_estimate: float
    advantage: float
    critic_loss: float
    log_probability: float


@dataclass(frozen=True)
class MetricRow:
    """One evaluation record in the metric log."""

    episode: int
    avg_reward: float
    greedy_accuracy: float
    critic_accuracy: float
    scent_scalar: float

    def line(self) -> str:
        return "\t".join(
            [str(self.episode)]
            + [
                format_float(v)
                for v in (
                    self.avg_reward,
                    self.greedy_accuracy,
                    self.critic_accuracy,
                    self.scent_scalar,
                )
            ]
        )


def init_params(
    corpus: env.Corpus, config: TrainConfig
) -> tuple[actor.ActorParams, critic.ComplexEmbeddingTable]:
    """Fresh parameters over the corpus vocabulary, seeded from the init stream."""
    rng = stream_rng(config.seed, "init")
    table = qrep.AmplitudeTable.from_vocab(corpus.vocabulary, config.basis_dim, rng)
    global_rep = qrep.GlobalRepresentation.from_random(
        config.query_order, config.basis_dim, config.rank, rng
    )
    critic_table = critic.ComplexEmbeddingTable.from_vocab(
        corpus.vocabulary, config.embed_dim, rng
    )
    params = actor.ActorParams(
        table=table, global_rep=global_rep, temperature=config.temperature
    )
    return params, critic_table


def _apply_actor_update(
    params: actor.ActorParams, grads: actor.ActorGradients, lr: float
) -> None:
    params.table.amplitudes[grads.ids] -= lr * grads.rows
    params.global_rep.weights -= lr * grads.weights
    params.global_rep.factors -= lr * grads.factors
    params.table.renormalize(grads.ids)
    params.global_rep.renormalize()


def _apply_critic_update(
    table: critic.ComplexEmbeddingTable, grads: critic.CriticGradients, lr: float
) -> None:
    table.amplitudes[grads.ids] -= lr * grads.amplitude_rows
    table.salience[grads.ids] -= lr * grads.salience_rows
    table.renormalize(grads.ids)


def train_step(
    params: actor.ActorParams,
    critic_table: critic.ComplexEmbeddingTable,
    observation: env.Observation,
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[env.Transition, StepMetrics]:
    """Sample, collect the reward, judge, then update the critic and the actor.

    The critic's expected reward q is read from its block masses before this
    step's critic update. The actor steps on the one-step advantage reward - q,
    with gradients taken through the forward pass the action was sampled from.
    A zero advantage leaves actor parameters bit-identical; a zero learning
    rate does the same for that side.
    """
    candidates = [
        qrep.embed_query(c.tokens, params.table, config.query_order)
        for c in observation.candidates
    ]
    out = actor.act(params, candidates, rng)
    reward, transition = env.step(observation, out.index)

    tokens = list(observation.keywords) + list(observation.candidates[out.index].tokens)
    critic_loss, critic_grads = critic.critic_loss_and_gradients(
        tokens, critic.class_of_reward(reward), critic_table
    )
    q_estimate = float(np.dot(critic.CLASS_REWARDS, critic_grads.probabilities))
    if config.critic_lr != 0.0:
        _apply_critic_update(critic_table, critic_grads, config.critic_lr)

    advantage = reward - q_estimate
    if config.actor_lr != 0.0 and advantage != 0.0:
        grads = actor.actor_gradients(
            params,
            candidates,
            out.index,
            advantage,
            forward=out.forward,
            probabilities=out.probabilities,
        )
        _apply_actor_update(params, grads, config.actor_lr)

    metrics = StepMetrics(
        reward=reward,
        q_estimate=q_estimate,
        advantage=advantage,
        critic_loss=critic_loss,
        log_probability=out.log_probability,
    )
    return replace(transition, log_probability=out.log_probability), metrics


@dataclass(eq=False)
class EvalMetrics:
    greedy_accuracy: float
    mean_reward: float
    critic_accuracy: float
    scent: env.ScentStats
    choices: list[tuple[str, tuple[str, ...], int]]


def evaluate(
    params: actor.ActorParams,
    critic_table: critic.ComplexEmbeddingTable,
    corpus: env.Corpus,
    scent_smoothing: float = 0.1,
) -> EvalMetrics:
    """Greedy pass over every document in corpus order; no randomness anywhere.

    Greedy accuracy is the fraction of documents whose argmax candidate is
    labeled +1; critic accuracy is the fraction of all (document, candidate)
    pairs whose most probable class matches the label.

    One batched pass over the corpus's compiled form (env.Corpus.compiled,
    built once per corpus): every candidate is scored at once by
    actor.score_rows, the scorer actor_forward uses, each document's choice
    is the first argmax of its segment, and every pair is judged at once by
    critic.batch_class_probabilities. Each score and class probability has
    the bits a per-document pass would give. Scent is env.reward_scent of the
    array of chosen rewards. Both tables must be built over the corpus
    vocabulary, as init_params and restore_params build them.
    """
    if len(corpus.documents) == 0:
        raise EmptyCorpus("evaluate needs at least one document")
    env.check_smoothing(scent_smoothing)
    for name, table in (("actor", params.table), ("critic", critic_table)):
        if table.words != corpus.vocabulary:
            raise ShapeMismatch(f"{name} table rows are not built over the corpus vocabulary")
    compiled = corpus.compiled

    order = params.global_rep.order
    tokens = compiled.query_tokens[:, :order]
    if tokens.shape[1] < order:
        tokens = np.pad(tokens, ((0, 0), (0, order - tokens.shape[1])), constant_values=-1)
    in_query = np.arange(order) < compiled.query_lengths[:, None]
    ids = np.where(in_query, tokens + qrep.WORD_ROW_OFFSET, qrep.NULL_ID)
    scores = actor.score_rows(params.global_rep, params.table.amplitudes[ids]).scores
    chosen = actor.first_argmax(scores, compiled.offsets)
    rewards = compiled.labels[compiled.offsets + chosen]

    probabilities = critic.batch_class_probabilities(
        compiled.pair_tokens + critic.WORD_ROW_OFFSET, compiled.pair_lengths, critic_table
    )
    # class_of_reward of every label, since CLASS_REWARDS is sorted.
    classes = np.searchsorted(critic.CLASS_REWARDS, compiled.labels)
    critic_hits = int(np.count_nonzero(np.argmax(probabilities, axis=1) == classes))

    return EvalMetrics(
        greedy_accuracy=int(np.count_nonzero(rewards == 1)) / len(corpus.documents),
        mean_reward=float(np.mean(rewards)),
        critic_accuracy=critic_hits / len(compiled.labels),
        scent=env.reward_scent(rewards, compiled.patches, corpus.patch_ids, scent_smoothing),
        choices=[
            (doc.doc_id, doc.candidates[index].tokens, reward)
            for doc, index, reward in zip(corpus.documents, chosen.tolist(), rewards.tolist())
        ],
    )


@dataclass(eq=False)
class Checkpoint:
    """All trainable parameters plus the config echo."""

    actor_amplitudes: np.ndarray
    global_weights: np.ndarray
    global_factors: np.ndarray
    critic_amplitudes: np.ndarray
    critic_phases: np.ndarray
    critic_salience: np.ndarray
    config_echo: dict[str, str]

    def blocks(self) -> dict[str, np.ndarray]:
        """Each file block's name and 2-D array, in file order.

        Vectors are columns; factors (R, order, k) are rows r * order + i.
        """
        return {
            "actor.amplitudes": self.actor_amplitudes,
            "global.weights": self.global_weights.reshape(-1, 1),
            "global.factors": self.global_factors.reshape(-1, self.global_factors.shape[-1]),
            "critic.amplitudes": self.critic_amplitudes,
            "critic.phases": self.critic_phases,
            "critic.salience": self.critic_salience.reshape(-1, 1),
        }


def make_checkpoint(
    params: actor.ActorParams,
    critic_table: critic.ComplexEmbeddingTable,
    config: TrainConfig,
) -> Checkpoint:
    return Checkpoint(
        actor_amplitudes=params.table.amplitudes.copy(),
        global_weights=params.global_rep.weights.copy(),
        global_factors=params.global_rep.factors.copy(),
        critic_amplitudes=critic_table.amplitudes.copy(),
        critic_phases=critic_table.phases.copy(),
        critic_salience=critic_table.salience.copy(),
        config_echo=config.echo(),
    )


def checkpoint_text(checkpoint: Checkpoint) -> Iterator[str]:
    """The file's text in order: header and echo, then each block's header and rows.

    Every piece ends in a newline. A block's rows are one `%` operation over
    its values; `%.17g` prints what format_float prints.
    """
    yield "".join(
        [CHECKPOINT_HEADER + "\n"]
        + [f"# {key}={value}\n" for key, value in checkpoint.config_echo.items()]
    )
    for name, block in checkpoint.blocks().items():
        rows, cols = block.shape
        yield f"[{name} {rows} {cols}]\n"
        row = " ".join(["%.17g"] * cols) + "\n"
        yield row * rows % tuple(block.ravel().tolist())


def checkpoint_lines(checkpoint: Checkpoint) -> list[str]:
    """The file's lines, without newlines."""
    return "".join(checkpoint_text(checkpoint)).split("\n")[:-1]


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Write the file beside `path` and rename it into place.

    A save that fails leaves any earlier file at `path` as it was and no
    temporary file behind.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for text in checkpoint_text(checkpoint):
                fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


_PARAM_BLOCKS = (
    "actor.amplitudes",
    "global.weights",
    "global.factors",
    "critic.amplitudes",
    "critic.phases",
    "critic.salience",
)


def _parse_rows(rows: list[str]) -> np.ndarray:
    with warnings.catch_warnings():
        # Rows that are all blank warn "input contained no data"; the caller's
        # shape check rejects them.
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)


def _parse_block(lines: list[str], start: int, name: str, rows: int, cols: int) -> np.ndarray:
    """The (rows, cols) values on lines[start:start + rows], parsed in one call.

    A block that does not parse whole is walked row by row to raise
    ParseError at its first bad line. A block without values parses to an
    empty array once every row is checked.
    """
    try:
        data = _parse_rows(lines[start : start + rows])
    except ValueError:
        pass
    else:
        if data.shape == (rows, cols):
            return data
    for r in range(rows):
        j = start + r
        if j >= len(lines):
            raise ParseError(f"block {name!r} truncated at row {r}", line=len(lines))
        count = len(lines[j].split())
        if count != cols:
            raise ParseError(f"block {name!r} row has {count} values, expected {cols}", line=j + 1)
        try:
            _parse_rows([lines[j]])
        except ValueError:
            raise ParseError(f"non-numeric value in block {name!r}", line=j + 1) from None
    if rows * cols > 0:  # Not reached while np.loadtxt splits rows as str.split does.
        raise ParseError(f"block {name!r} does not parse", line=start)
    return np.empty((rows, cols), dtype=np.float64)


def load_checkpoint(path: str) -> Checkpoint:
    """Parse a checkpoint file; malformed structure raises ParseError with a line number."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_HEADER:
        found = lines[0] if lines else "<empty file>"
        raise VersionMismatch(f"expected header {CHECKPOINT_HEADER!r}, found {found!r}")
    echo: dict[str, str] = {}
    blocks: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                echo[key.strip()] = value
            i += 1
            continue
        if not (line.startswith("[") and line.endswith("]")):
            raise ParseError(f"expected a block header, got {line!r}", line=i + 1)
        parts = line[1:-1].split()
        if len(parts) != 3:
            raise ParseError(f"malformed block header {line!r}", line=i + 1)
        name = parts[0]
        try:
            rows, cols = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"non-integer block shape in {line!r}", line=i + 1) from None
        if name not in _PARAM_BLOCKS and not name.startswith("rng."):
            raise ParseError(f"unknown block {name!r}", line=i + 1)
        data = _parse_block(lines, i + 1, name, rows, cols)
        # rng.* blocks hold stream states earlier versions wrote; nothing reads them.
        if not name.startswith("rng."):
            blocks[name] = data
        i += 1 + rows
    missing = [b for b in _PARAM_BLOCKS if b not in blocks]
    if missing:
        raise ParseError(f"missing parameter blocks: {missing}", line=len(lines))
    weights = blocks["global.weights"].ravel()
    rank = weights.shape[0]
    factors_flat = blocks["global.factors"]
    if rank == 0 or factors_flat.shape[0] % rank != 0:
        raise ParseError(
            f"factor rows {factors_flat.shape[0]} not divisible by rank {rank}",
            line=len(lines),
        )
    order = factors_flat.shape[0] // rank
    return Checkpoint(
        actor_amplitudes=blocks["actor.amplitudes"],
        global_weights=weights,
        global_factors=factors_flat.reshape(rank, order, factors_flat.shape[1]),
        critic_amplitudes=blocks["critic.amplitudes"],
        critic_phases=blocks["critic.phases"],
        critic_salience=blocks["critic.salience"].ravel(),
        config_echo=echo,
    )


def check_invariants(checkpoint: Checkpoint) -> None:
    """Reject parameters that training never produces, naming the block and row.

    Every value is finite; actor, factor and critic rows are unit length
    within qcore.UNIT_TOL; the actor padding row is exactly the first basis
    vector; critic amplitudes are nonnegative. Rows are numbered as the
    checkpoint file lays its blocks out.
    """
    blocks = checkpoint.blocks()
    # Whole-array tests first; the offending row is looked up only on failure.
    for name, block in blocks.items():
        if not np.isfinite(block).all():
            row = int(np.argmin(np.isfinite(block).all(axis=1)))
            raise CheckpointInvalid(f"block {name!r} row {row} holds a non-finite value")
    for name in ("actor.amplitudes", "global.factors", "critic.amplitudes"):
        rows = blocks[name]
        off_unit = np.abs(np.sqrt(np.einsum("ij,ij->i", rows, rows)) - 1.0) > qcore.UNIT_TOL
        if off_unit.any():
            row = int(np.argmax(off_unit))
            raise CheckpointInvalid(
                f"block {name!r} row {row} has norm {float(np.linalg.norm(rows[row]))!r}, "
                f"expected 1 within {qcore.UNIT_TOL}"
            )
    padding = qcore.basis_vector(checkpoint.actor_amplitudes.shape[1], 0)
    if checkpoint.actor_amplitudes[qrep.NULL_ID].tobytes() != padding.tobytes():
        raise CheckpointInvalid(
            f"block 'actor.amplitudes' row {qrep.NULL_ID} is the padding row and must be "
            f"exactly {padding.tolist()}"
        )
    negative = checkpoint.critic_amplitudes < 0.0
    if negative.any():
        row = int(np.argmax(negative.any(axis=1)))
        raise CheckpointInvalid(f"block 'critic.amplitudes' row {row} has a negative amplitude")


def checkpoint_config(checkpoint: Checkpoint) -> TrainConfig:
    """The settings a checkpoint echoes; an echo train would refuse raises CheckpointInvalid."""
    try:
        config = TrainConfig.from_echo(checkpoint.config_echo)
        config.validate()
    except ValueError as exc:
        raise CheckpointInvalid(f"config echo: {exc}") from None
    return config


def restore_params(
    checkpoint: Checkpoint, corpus: env.Corpus
) -> tuple[actor.ActorParams, critic.ComplexEmbeddingTable, TrainConfig]:
    """Rebind checkpoint arrays to the corpus vocabulary.

    Rows are (null, unk) + sorted vocabulary on the actor side, (unk) + sorted
    vocabulary on the critic side; a shape disagreement means the checkpoint
    was trained against a different corpus. Parameters that break a training
    invariant, or an echoed config that train would refuse, raise
    CheckpointInvalid.
    """
    config = checkpoint_config(checkpoint)
    if config.keyword_count != corpus.keyword_count:
        raise CheckpointMismatch(
            f"checkpoint has keyword_count={config.keyword_count}, corpus has {corpus.keyword_count}"
        )
    vocab = corpus.vocabulary
    if checkpoint.actor_amplitudes.shape[0] != len(vocab) + 2:
        raise CheckpointMismatch(
            f"checkpoint has {checkpoint.actor_amplitudes.shape[0]} actor rows, "
            f"corpus vocabulary needs {len(vocab) + 2}"
        )
    if checkpoint.critic_amplitudes.shape[0] != len(vocab) + 1:
        raise CheckpointMismatch(
            f"checkpoint has {checkpoint.critic_amplitudes.shape[0]} critic rows, "
            f"corpus vocabulary needs {len(vocab) + 1}"
        )
    if checkpoint.critic_phases.shape != checkpoint.critic_amplitudes.shape:
        raise CheckpointMismatch("critic amplitude and phase shapes disagree")
    check_invariants(checkpoint)
    table = qrep.AmplitudeTable(words=vocab, amplitudes=checkpoint.actor_amplitudes.copy())
    global_rep = qrep.GlobalRepresentation(
        weights=checkpoint.global_weights.copy(),
        factors=checkpoint.global_factors.copy(),
    )
    params = actor.ActorParams(
        table=table, global_rep=global_rep, temperature=config.temperature
    )
    critic_table = critic.ComplexEmbeddingTable(
        words=vocab,
        amplitudes=checkpoint.critic_amplitudes.copy(),
        phases=checkpoint.critic_phases.copy(),
        salience=checkpoint.critic_salience.copy(),
    )
    return params, critic_table, config


@dataclass(eq=False)
class TrainResult:
    params: actor.ActorParams
    critic_table: critic.ComplexEmbeddingTable
    checkpoint: Checkpoint
    metrics: list[MetricRow]
    rewards: list[int]

    def metric_lines(self) -> list[str]:
        return [row.line() for row in self.metrics]


def train(config: TrainConfig, corpus: env.Corpus) -> TrainResult:
    """Run the full loop: episodes, periodic evaluation records, checkpoints.

    Everything random flows from config.seed through named streams (init, env,
    policy), so two identical calls produce bitwise-identical parameters,
    metric rows, and checkpoint files. When evaluation is enabled a final
    record at the last episode is always emitted; when a checkpoint path is
    set the file is rewritten at each interval and once at the end.
    """
    config.validate()
    if len(corpus.documents) == 0:
        raise EmptyCorpus("train needs at least one document")
    if config.keyword_count != corpus.keyword_count:
        raise ValueError(
            f"keyword_count={config.keyword_count}, but the corpus has {corpus.keyword_count}"
        )
    params, critic_table = init_params(corpus, config)
    policy_rng = stream_rng(config.seed, "policy")
    environment = env.Environment(corpus, stream_rng(config.seed, "env"), mode=config.mode)

    rewards: list[int] = []
    metrics: list[MetricRow] = []
    scent_scalar = 0.0
    recorded = 0  # rewards[:recorded] are folded into scent_scalar

    def record(episode: int) -> None:
        nonlocal scent_scalar, recorded
        since = rewards[recorded:]  # never empty: every episode takes a step
        recorded = len(rewards)
        scent_scalar = env.smoothed(since, config.scent_smoothing, start=scent_scalar)
        ev = evaluate(params, critic_table, corpus, scent_smoothing=config.scent_smoothing)
        metrics.append(
            MetricRow(
                episode=episode,
                avg_reward=float(np.mean(since)),
                greedy_accuracy=ev.greedy_accuracy,
                critic_accuracy=ev.critic_accuracy,
                scent_scalar=scent_scalar,
            )
        )
        if config.checkpoint_path:
            save_checkpoint(make_checkpoint(params, critic_table, config), config.checkpoint_path)

    for episode in range(1, config.episodes + 1):
        while True:
            _, step_metrics = train_step(
                params, critic_table, environment.reset(), config, policy_rng
            )
            rewards.append(step_metrics.reward)
            if environment.last_of_patch:
                break
        if config.eval_interval > 0 and episode % config.eval_interval == 0:
            record(episode)

    if config.eval_interval > 0 and (not metrics or metrics[-1].episode != config.episodes):
        record(config.episodes)

    checkpoint = make_checkpoint(params, critic_table, config)
    if config.checkpoint_path:
        save_checkpoint(checkpoint, config.checkpoint_path)
    return TrainResult(
        params=params,
        critic_table=critic_table,
        checkpoint=checkpoint,
        metrics=metrics,
        rewards=rewards,
    )
