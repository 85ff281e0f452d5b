"""Actor-critic training loop, evaluation, and text checkpoints.

One step: the actor samples a candidate from its softmax policy, the
environment pays the candidate's label as reward, the critic judges the
(keywords, chosen query) pair, and both sides take a plain SGD step. The critic
judges by its class block masses (critic.class_probabilities), which equal
measuring its density matrix on unit rows, so no density matrix is built
during training or evaluation. The actor coefficient is the advantage, reward
minus the critic's expected-reward estimate; the critic trains supervised
against the true label. The policy gradient reuses the forward pass the action
was sampled from. After every step all unit-norm rows (actor amplitudes,
factor vectors, critic amplitudes) are renormalized, the actor padding row
stays pinned, and critic amplitudes stay nonnegative.

Both modes share one step routine. Bandit mode treats every document as a
one-step episode and updates the actor at once. Session mode walks a patch to
exhaustion per episode and scales each step's policy gradient by its
discounted return minus the critic estimate.

Checkpoints are UTF-8 text: a `qforage-checkpoint v1` header, `# key=value`
config echo lines, then named decimal matrix blocks. Floats print with 17
significant digits, so save followed by load reproduces every parameter bit
for bit. The vocabulary-to-row mapping is not stored; it is rebuilt as
(null, unk) + sorted corpus vocabulary, and shape validation rejects a
checkpoint paired with the wrong corpus.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import actor, critic, env, qrep
from .errors import (
    CheckpointMismatch,
    EmptyCorpus,
    ParseError,
    VersionMismatch,
)
from .seeding import stream_rng

CHECKPOINT_HEADER = "qforage-checkpoint v1"


def format_float(x: float) -> str:
    """Decimal form with 17 significant digits; parses back to the same float64."""
    return f"{float(x):.17g}"


@dataclass
class TrainConfig:
    """Run settings: loop counts, learning rates, model sizes, and the seed."""

    episodes: int = 2000
    actor_lr: float = 0.1
    critic_lr: float = 0.2
    temperature: float = 1.0
    scent_smoothing: float = 0.1
    discount: float = 0.9
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
        if not (0.0 < self.scent_smoothing <= 1.0):
            raise ValueError(f"scent smoothing must lie in (0, 1], got {self.scent_smoothing!r}")
        if not (0.0 <= self.discount <= 1.0):
            raise ValueError(f"discount must lie in [0, 1], got {self.discount!r}")
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
        out: dict[str, str] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            out[f.name] = format_float(value) if isinstance(value, float) else str(value)
        return out

    @classmethod
    def from_echo(cls, echo: dict[str, str]) -> "TrainConfig":
        """Rebuild a config from echo lines; unknown keys are ignored."""
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name not in echo:
                continue
            raw = echo[f.name]
            if f.type in ("int", int):
                kwargs[f.name] = int(raw)
            elif f.type in ("float", float):
                kwargs[f.name] = float(raw)
            else:
                kwargs[f.name] = raw
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


@dataclass(eq=False)
class EpisodeTrace:
    """Ordered record of one episode's transitions and their step metrics."""

    transitions: list[env.Transition] = field(default_factory=list)
    metrics: list[StepMetrics] = field(default_factory=list)


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
    params.table.amplitudes -= lr * grads.table
    params.global_rep.weights -= lr * grads.weights
    params.global_rep.factors -= lr * grads.factors
    params.table.renormalize()
    params.global_rep.renormalize()


def _apply_critic_update(
    table: critic.ComplexEmbeddingTable, grads: critic.CriticGradients, lr: float
) -> None:
    table.amplitudes -= lr * grads.amplitudes
    table.salience -= lr * grads.salience
    table.renormalize()


def _step(
    params: actor.ActorParams,
    critic_table: critic.ComplexEmbeddingTable,
    observation: env.Observation,
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[env.Transition, StepMetrics, Callable[[float], actor.ActorGradients]]:
    """The step both modes share: sample, collect the reward, judge, train the critic.

    The critic's expected reward is read from its block masses before this
    step's critic update, and the metrics carry the one-step advantage
    reward - q. The third value maps an advantage to actor gradients taken
    through the forward pass the action was sampled from.
    """
    candidates = [
        qrep.embed_query(c.tokens, params.table, config.query_order)
        for c in observation.candidates
    ]
    out = actor.act(params, candidates, rng)
    reward, transition = env.step(observation, out.index)

    tokens = list(observation.keywords) + list(observation.candidates[out.index].tokens)
    probabilities = critic.class_probabilities(tokens, critic_table)
    q_estimate = float(np.dot(critic.CLASS_REWARDS, probabilities))
    critic_loss, critic_grads = critic.critic_loss_and_gradients(
        tokens, critic.class_of_reward(reward), critic_table
    )
    if config.critic_lr != 0.0:
        _apply_critic_update(critic_table, critic_grads, config.critic_lr)

    metrics = StepMetrics(
        reward=reward,
        q_estimate=q_estimate,
        advantage=reward - q_estimate,
        critic_loss=critic_loss,
        log_probability=out.log_probability,
    )
    gradients = functools.partial(
        actor.actor_gradients, params, candidates, out.index, forward=out.forward
    )
    return replace(transition, log_probability=out.log_probability), metrics, gradients


def train_step(
    params: actor.ActorParams,
    critic_table: critic.ComplexEmbeddingTable,
    observation: env.Observation,
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[env.Transition, StepMetrics]:
    """One bandit step: the shared step, then the actor update at its advantage.

    A zero advantage leaves actor parameters bit-identical; a zero learning
    rate does the same for that side.
    """
    transition, metrics, gradients = _step(params, critic_table, observation, config, rng)
    if config.actor_lr != 0.0 and metrics.advantage != 0.0:
        _apply_actor_update(params, gradients(metrics.advantage), config.actor_lr)
    return transition, metrics


def _session_episode(
    params: actor.ActorParams,
    critic_table: critic.ComplexEmbeddingTable,
    environment: env.Environment,
    config: TrainConfig,
    rng: np.random.Generator,
) -> EpisodeTrace:
    """One pass through a patch; policy gradients scale by discounted return minus Q.

    Actor gradients are taken during the rollout with coefficient 1 (actor
    parameters do not move mid-episode), scaled once returns are known, and
    applied as a single summed update. The critic updates per step.
    """
    trace = EpisodeTrace()
    staged: list[actor.ActorGradients] = []
    while True:
        transition, metrics, gradients = _step(
            params, critic_table, environment.reset(), config, rng
        )
        staged.append(gradients(1.0))
        trace.transitions.append(transition)
        trace.metrics.append(metrics)
        if environment.last_of_patch:
            break

    discounted = 0.0
    total_table = np.zeros_like(params.table.amplitudes)
    total_weights = np.zeros_like(params.global_rep.weights)
    total_factors = np.zeros_like(params.global_rep.factors)
    any_update = False
    for t in reversed(range(len(staged))):
        discounted = trace.transitions[t].reward + config.discount * discounted
        advantage = discounted - trace.metrics[t].q_estimate
        trace.metrics[t] = replace(trace.metrics[t], advantage=advantage)
        if advantage != 0.0:
            grads = staged[t]
            total_table += advantage * grads.table
            total_weights += advantage * grads.weights
            total_factors += advantage * grads.factors
            any_update = True
    if config.actor_lr != 0.0 and any_update:
        _apply_actor_update(
            params,
            actor.ActorGradients(table=total_table, weights=total_weights, factors=total_factors),
            config.actor_lr,
        )
    return trace


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
    """
    if len(corpus.documents) == 0:
        raise EmptyCorpus("evaluate needs at least one document")
    order = params.global_rep.order
    transitions: list[env.Transition] = []
    choices: list[tuple[str, tuple[str, ...], int]] = []
    hits = 0
    critic_hits = 0
    critic_total = 0
    rewards: list[int] = []
    for doc in corpus.documents:
        candidates = [qrep.embed_query(c.tokens, params.table, order) for c in doc.candidates]
        scores = actor.actor_forward(params, candidates).scores
        index, _ = actor.select_action(scores, params.temperature, None, greedy=True)
        reward = doc.candidates[index].label
        rewards.append(reward)
        hits += int(reward == 1)
        transitions.append(
            env.Transition(
                doc_id=doc.doc_id,
                patch_id=doc.patch_id,
                candidates=doc.candidates,
                chosen_index=index,
                reward=reward,
            )
        )
        choices.append((doc.doc_id, doc.candidates[index].tokens, reward))
        for cand in doc.candidates:
            p = critic.class_probabilities(
                list(doc.keywords) + list(cand.tokens), critic_table
            )
            critic_hits += int(int(np.argmax(p)) == critic.class_of_reward(cand.label))
            critic_total += 1
    n = len(corpus.documents)
    return EvalMetrics(
        greedy_accuracy=hits / n,
        mean_reward=float(np.mean(rewards)),
        critic_accuracy=critic_hits / critic_total,
        scent=env.scent_stats(transitions, scent_smoothing),
        choices=choices,
    )


@dataclass(eq=False)
class Checkpoint:
    """All trainable parameters plus the config echo and RNG stream states."""

    actor_amplitudes: np.ndarray
    global_weights: np.ndarray
    global_factors: np.ndarray
    critic_amplitudes: np.ndarray
    critic_phases: np.ndarray
    critic_salience: np.ndarray
    config_echo: dict[str, str]
    rng_states: dict[str, tuple[int, int, int, int]]


def _pcg64_state(rng: np.random.Generator) -> tuple[int, int, int, int]:
    st = rng.bit_generator.state
    return (
        int(st["state"]["state"]),
        int(st["state"]["inc"]),
        int(st["has_uint32"]),
        int(st["uinteger"]),
    )


def restore_stream(state: tuple[int, int, int, int]) -> np.random.Generator:
    bg = np.random.PCG64()
    bg.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": state[2],
        "uinteger": state[3],
    }
    return np.random.Generator(bg)


def make_checkpoint(
    params: actor.ActorParams,
    critic_table: critic.ComplexEmbeddingTable,
    config: TrainConfig,
    rng_streams: dict[str, np.random.Generator] | None = None,
) -> Checkpoint:
    return Checkpoint(
        actor_amplitudes=params.table.amplitudes.copy(),
        global_weights=params.global_rep.weights.copy(),
        global_factors=params.global_rep.factors.copy(),
        critic_amplitudes=critic_table.amplitudes.copy(),
        critic_phases=critic_table.phases.copy(),
        critic_salience=critic_table.salience.copy(),
        config_echo=config.echo(),
        rng_states={
            name: _pcg64_state(gen) for name, gen in (rng_streams or {}).items()
        },
    )


def _write_block(lines: list[str], name: str, matrix: np.ndarray, fmt=format_float) -> None:
    m = np.atleast_2d(matrix)
    lines.append(f"[{name} {m.shape[0]} {m.shape[1]}]")
    for row in m:
        lines.append(" ".join(fmt(v) for v in row))


def checkpoint_lines(checkpoint: Checkpoint) -> list[str]:
    lines = [CHECKPOINT_HEADER]
    for key, value in checkpoint.config_echo.items():
        lines.append(f"# {key}={value}")
    rank, order, k = checkpoint.global_factors.shape
    _write_block(lines, "actor.amplitudes", checkpoint.actor_amplitudes)
    _write_block(lines, "global.weights", checkpoint.global_weights.reshape(-1, 1))
    _write_block(lines, "global.factors", checkpoint.global_factors.reshape(rank * order, k))
    _write_block(lines, "critic.amplitudes", checkpoint.critic_amplitudes)
    _write_block(lines, "critic.phases", checkpoint.critic_phases)
    _write_block(lines, "critic.salience", checkpoint.critic_salience.reshape(-1, 1))
    for name, state in checkpoint.rng_states.items():
        _write_block(lines, f"rng.{name}", np.array([state], dtype=object), fmt=str)
    return lines


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in checkpoint_lines(checkpoint):
            fh.write(line + "\n")


_PARAM_BLOCKS = (
    "actor.amplitudes",
    "global.weights",
    "global.factors",
    "critic.amplitudes",
    "critic.phases",
    "critic.salience",
)


def load_checkpoint(path: str) -> Checkpoint:
    """Parse a checkpoint file; malformed structure raises ParseError with a line number."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_HEADER:
        found = lines[0] if lines else "<empty file>"
        raise VersionMismatch(f"expected header {CHECKPOINT_HEADER!r}, found {found!r}")
    echo: dict[str, str] = {}
    blocks: dict[str, np.ndarray] = {}
    rng_states: dict[str, tuple[int, int, int, int]] = {}
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
        data = np.empty((rows, cols), dtype=np.float64 if not name.startswith("rng.") else object)
        for r in range(rows):
            j = i + 1 + r
            if j >= len(lines):
                raise ParseError(f"block {name!r} truncated at row {r}", line=len(lines))
            values = lines[j].split()
            if len(values) != cols:
                raise ParseError(
                    f"block {name!r} row has {len(values)} values, expected {cols}", line=j + 1
                )
            try:
                if name.startswith("rng."):
                    data[r] = [int(v) for v in values]
                else:
                    data[r] = [float(v) for v in values]
            except ValueError:
                raise ParseError(f"non-numeric value in block {name!r}", line=j + 1) from None
        if name.startswith("rng."):
            if data.shape != (1, 4):
                raise ParseError(f"rng block {name!r} must be 1x4", line=i + 1)
            rng_states[name[4:]] = tuple(int(v) for v in data[0])
        else:
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
        rng_states=rng_states,
    )


def restore_params(
    checkpoint: Checkpoint, corpus: env.Corpus
) -> tuple[actor.ActorParams, critic.ComplexEmbeddingTable, TrainConfig]:
    """Rebind checkpoint arrays to the corpus vocabulary.

    Rows are (null, unk) + sorted vocabulary on the actor side, (unk) + sorted
    vocabulary on the critic side; a shape disagreement means the checkpoint
    was trained against a different corpus.
    """
    config = TrainConfig.from_echo(checkpoint.config_echo)
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
    params, critic_table = init_params(corpus, config)
    env_rng = stream_rng(config.seed, "env")
    policy_rng = stream_rng(config.seed, "policy")
    environment = env.Environment(corpus, env_rng, mode=config.mode)
    streams = {"env": env_rng, "policy": policy_rng}

    rewards: list[int] = []
    window: list[int] = []
    metrics: list[MetricRow] = []
    scent_scalar = 0.0

    def record(episode: int) -> None:
        ev = evaluate(params, critic_table, corpus, scent_smoothing=config.scent_smoothing)
        avg = float(np.mean(window)) if window else 0.0
        metrics.append(
            MetricRow(
                episode=episode,
                avg_reward=avg,
                greedy_accuracy=ev.greedy_accuracy,
                critic_accuracy=ev.critic_accuracy,
                scent_scalar=scent_scalar,
            )
        )
        window.clear()
        if config.checkpoint_path:
            save_checkpoint(
                make_checkpoint(params, critic_table, config, streams), config.checkpoint_path
            )

    for episode in range(1, config.episodes + 1):
        if config.mode == "bandit":
            observation = environment.reset()
            _, step_metrics = train_step(params, critic_table, observation, config, policy_rng)
            episode_rewards = [step_metrics.reward]
        else:
            trace = _session_episode(params, critic_table, environment, config, policy_rng)
            episode_rewards = [t.reward for t in trace.transitions]
        for r in episode_rewards:
            rewards.append(r)
            window.append(r)
            scent_scalar = (
                config.scent_smoothing * r + (1.0 - config.scent_smoothing) * scent_scalar
            )
        if config.eval_interval > 0 and episode % config.eval_interval == 0:
            record(episode)

    if config.eval_interval > 0 and (not metrics or metrics[-1].episode != config.episodes):
        record(config.episodes)

    checkpoint = make_checkpoint(params, critic_table, config, streams)
    if config.checkpoint_path:
        save_checkpoint(checkpoint, config.checkpoint_path)
    return TrainResult(
        params=params,
        critic_table=critic_table,
        checkpoint=checkpoint,
        metrics=metrics,
        rewards=rewards,
    )
