"""Actor-critic training loop, evaluation, and binding checkpoints to the agent.

One step: the actor samples a candidate from its softmax policy, the
environment pays the candidate's label as reward, the critic judges the
(keywords, chosen query) pair, and both sides take a plain SGD step. The critic
judges by its class block masses (critic.class_probabilities), which equal
measuring its density matrix on unit rows, so no density matrix is built
during training or evaluation. The actor coefficient is the advantage, reward
minus the critic's expected-reward estimate (critic.q_value); the critic
trains supervised against the true label. The policy gradient reuses the
forward pass and the softmax the action was sampled from, and the critic's
estimate is read from the class probabilities its loss is taken on.

A step touches only its tokens' rows: gradients come as the rows of the
touched ids, and each side's update steps those rows once, clamps (critic
only), renormalizes and writes them back once, so its cost does not grow with
the vocabulary. The critic steps the rows its loss gathered; the actor steps
its gathered table rows and its factor rows as one block. Every other row has
zero gradient and is already unit within the renormalization dead band, so
the result is the same as a dense update. After every step every unit-norm
row (actor amplitudes, factor vectors, critic amplitudes) is unit again, the
actor padding row stays pinned (re-pinned when the step touched it), and
critic amplitudes stay nonnegative.

Both modes run the same step: the next document never depends on the action,
so each step updates the actor at once with its one-step advantage. Mode only
picks the document order (env.Environment): a bandit episode is one document,
a session episode one pass through a patch.

Training and evaluation both run on the corpus compiled once into arrays of
vocabulary indices (env.Corpus.compiled); query_row_ids turns its -1-padded
query tokens into every candidate's actor table rows. What only the corpus and
the query order decide is compiled once per train call into a StepPlan
(compile_step_plan), and a step reads nothing else off the corpus: the query
rows, the labels, each document's sorted unique actor rows with the gradient
cells of each candidate's positions into them (actor.gradient_cells), and
each pair's critic rows with their sorted unique values and each token's index
among them. One qrep.segment_unique call builds each side for every document
or pair at once, with one np.sort of keys that pack each id's segment, value
and position; the plan's bounds are Python lists, built once. A step takes
the drawn document's candidates as compiled rows (env.Environment.draw),
gathers their amplitude rows in one take and slices everything else from the
plan. The drawn rows' positions, read in drawn order, are what np.unique
gives for the gathered ids, so the gradients add into the merged rows in the
same order, with the same bits, as a step from token strings through
qrep.embed_query.

A step runs on plain arrays, one array routine per layer, each called
through its module: actor.sample_rows scores and samples,
critic.loss_gradient_rows takes the critic's loss and gradient rows and
the rows it gathered, critic.ComplexEmbeddingTable.descend steps those,
actor.policy_gradient takes the policy gradient and actor.descend makes the
one actor update; the two descend routines are the only updates that touch
part of a table. Each quantity has one computation, written with as few
NumPy calls as keep its bits: ufunc reductions in place of the array
methods that wrap them, one np.bincount in place of np.add.at, no buffers
allocated per step for constants. The step builds no dataclass; the
StepMetrics it returns is a NamedTuple. It re-checks nothing that compile or
validate time settles: env.compile_corpus checks the labels, so the critic's
class is reward + 1; ActorParams checks the temperature; the plan fixes the
candidates' shape and count, and the sampler clamps the drawn index. It does
check every step that the scores are finite. The checked entry points
(actor.act, actor.actor_gradients, critic.critic_loss_and_gradients) check
their inputs and return the tuples of the routines they wrap, so each
quantity is computed one way and has one shape; training never calls them.

Evaluation is one batched pass, not a loop over documents: every candidate is
scored at once by qrep.project_slots, and every (document, candidate) pair is
judged at once from per-word block masses. What only the corpus and the query
order decide is compiled into an EvalPlan (eval_plan): the slot map of the
candidates' query rows (qrep.slot_map) and the pairs' critic rows grouped by
length (critic.pair_groups), all read-only. eval_plan keeps one plan per
compiled corpus and order, weakly keyed by the CompiledCorpus, which hashes
by identity, so later calls read it and a dropped corpus frees it. Only
evaluate builds it, so training allocates what it did without it. A
candidate's inner products at a position depend only on the table row
there, so project_slots takes each distinct (position, row) slot's R dots
once, with the length-k einsum reduction that qrep.project_rows, the scoring
a training step uses, makes for every slot; it multiplies them in position
order and weights them by qrep.pooled_scores, the score formula project_rows
also calls. So scores keep project_rows' bits. Block masses are gathered with
ndarray.take(ids, axis=0), an exact copy. Scores and class probabilities
keep the bits of a per-document pass. Scent statistics come from the array
of chosen rewards (env.reward_scent), and training's scent scalar uses the
same recurrence.

The checkpoint module holds the file format and the init stream's draw order
(init_draws), which init_params builds fresh parameters from. checkpoint_config
is the one check of a loaded checkpoint: its echo, then its block shapes, then
its invariants. The vocabulary-to-row mapping is not stored; it is rebuilt as
(null, unk) + sorted corpus vocabulary, and bind_params rejects a checkpoint
paired with the wrong corpus.
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import actor, critic, env, qrep
# load_checkpoint is imported only so that the benchmark finds it here.
from .checkpoint import Checkpoint, check_invariants, init_draws, load_checkpoint, save_checkpoint
from .errors import CheckpointInvalid, CheckpointMismatch, EmptyCorpus, ShapeMismatch
from .seeding import stream_rng


def format_float(x: float) -> str:
    """Decimal form with 17 significant digits; parses back to the same float64."""
    return f"{float(x):.17g}"


def echo_text(value) -> str:
    """A setting as echo-line text: floats by format_float, anything else by str."""
    return format_float(value) if isinstance(value, float) else str(value)


_PARSERS = {"int": int, "float": float, "str": str}


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
    basis_dim: int = qrep.DEFAULT_BASIS_DIM
    query_order: int = qrep.DEFAULT_QUERY_ORDER
    rank: int = qrep.DEFAULT_RANK
    embed_dim: int = critic.DEFAULT_EMBED_DIM
    keyword_count: int = env.DEFAULT_KEYWORD_COUNT

    def validate(self) -> None:
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        for name in ("actor_lr", "critic_lr"):
            lr = getattr(self, name)
            # Written so that NaN fails too.
            if not (0.0 < lr < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {lr!r}")
        actor.check_temperature(self.temperature)
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
        return {name: echo_text(value) for name, value in dataclasses.asdict(self).items()}

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


class StepMetrics(NamedTuple):
    chosen_index: int  # position of the chosen candidate in the step's rows
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
    """Fresh parameters over the corpus vocabulary, built from init_draws."""
    vocab = corpus.vocabulary
    actor_normal, factor_normal, weight_normal, critic_normal, phases = init_draws(
        config.seed,
        (len(vocab) + qrep.WORD_ROW_OFFSET, config.basis_dim),
        (config.rank, config.query_order, config.basis_dim),
        (len(vocab) + critic.WORD_ROW_OFFSET, config.embed_dim),
    )
    params = actor.ActorParams(
        table=qrep.AmplitudeTable.from_normal(vocab, actor_normal),
        global_rep=qrep.GlobalRepresentation.from_normal(factor_normal, weight_normal),
        temperature=config.temperature,
    )
    return params, critic.ComplexEmbeddingTable.from_draws(vocab, critic_normal, phases)


def query_row_ids(compiled: env.CompiledCorpus, order: int) -> np.ndarray:
    """The (N, order) actor table rows of every compiled candidate query.

    The compiled tokens' -1 padding becomes qrep.NULL_ID, and rows pad with
    it or truncate at `order`; for a table built over the corpus vocabulary,
    row i is what qrep.embed_query gives as word_ids for candidate i.
    """
    tokens = compiled.query_tokens[:, :order]
    if tokens.shape[1] < order:
        tokens = np.pad(tokens, ((0, 0), (0, order - tokens.shape[1])), constant_values=-1)
    return np.where(tokens >= 0, tokens + qrep.WORD_ROW_OFFSET, qrep.NULL_ID)


@dataclass(frozen=True, eq=False)
class StepPlan:
    """Everything a training step reads off the corpus, fixed by it and the query order.

    Flat arrays cut by bounds, built once per train call
    (compile_step_plan); the bounds are lists, so a step slices with
    Python ints. query_ids are query_row_ids of the compiled corpus and
    labels its compiled labels. Document j's sorted unique actor table rows
    are actor_rows[actor_bounds[j]:actor_bounds[j + 1]], and actor_cells[i]
    are actor.gradient_cells of candidate i's (order,) indices into them:
    the flat cells of the table gradient its (order, k) gradient rows add
    into. Compiled pair i's critic table rows, in token order, are
    pair_ids[pair_bounds[i]:pair_bounds[i + 1]], their indices into the
    pair's sorted unique rows lie at the same slice of occurrence, and those
    rows are critic_rows[critic_bounds[i]:critic_bounds[i + 1]].
    """

    query_ids: np.ndarray         # (N, order)
    labels: np.ndarray            # (N,)
    actor_rows: np.ndarray
    actor_bounds: list[int]       # D + 1
    actor_cells: np.ndarray       # (N, order * k)
    pair_ids: np.ndarray
    occurrence: np.ndarray
    pair_bounds: list[int]        # N + 1
    critic_rows: np.ndarray
    critic_bounds: list[int]      # N + 1

    def actor_unique(self, j: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique rows of query_ids[rows] and the gradient cells of every id.

        `rows` hold every candidate of document `j`, in any order; the cells
        come flat in that order (actor.policy_gradient's `cells`).
        """
        return (
            self.actor_rows[self.actor_bounds[j] : self.actor_bounds[j + 1]],
            self.actor_cells.take(rows, axis=0).ravel(),
        )

    def critic_unique(self, row: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compiled pair `row`'s critic rows in token order, sorted unique, and each one's index."""
        pair = slice(self.pair_bounds[row], self.pair_bounds[row + 1])
        return (
            self.pair_ids[pair],
            self.critic_rows[self.critic_bounds[row] : self.critic_bounds[row + 1]],
            self.occurrence[pair],
        )


def compile_step_plan(compiled: env.CompiledCorpus, order: int, basis_dim: int) -> StepPlan:
    """The StepPlan of a compiled corpus for queries of `order` words over k = basis_dim.

    One qrep.segment_unique call takes every document and one every pair,
    so the indices are what np.unique gives each of them alone.
    """
    query_ids = query_row_ids(compiled, order)
    num_rows = query_ids.shape[0]
    candidates = np.diff(compiled.offsets, append=num_rows)
    actor_rows, actor_bounds, positions = qrep.segment_unique(
        query_ids.ravel(), candidates * order
    )
    in_pair = np.arange(compiled.pair_tokens.shape[1]) < compiled.pair_lengths[:, None]
    pair_ids = compiled.pair_tokens[in_pair] + critic.WORD_ROW_OFFSET
    critic_rows, critic_bounds, occurrence = qrep.segment_unique(pair_ids, compiled.pair_lengths)
    return StepPlan(
        query_ids=query_ids,
        labels=compiled.labels,
        actor_rows=actor_rows,
        actor_bounds=actor_bounds.tolist(),
        actor_cells=actor.gradient_cells(positions.reshape(num_rows, order), basis_dim),
        pair_ids=pair_ids,
        occurrence=occurrence,
        pair_bounds=[0] + np.cumsum(compiled.pair_lengths).tolist(),
        critic_rows=critic_rows,
        critic_bounds=critic_bounds.tolist(),
    )


def train_step(
    params: actor.ActorParams,
    critic_table: critic.ComplexEmbeddingTable,
    plan: StepPlan,
    j: int,
    rows: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> StepMetrics:
    """Sample, collect the reward, judge, then update the critic and the actor.

    `j` is the document the environment drew (env.Environment.draw) and
    `rows` are its candidates as compiled rows in the drawn order, and `plan` is
    compile_step_plan of the corpus they come from. The candidates'
    amplitude rows are gathered once; the reward, the critic's rows and the
    rows each gradient merges into are sliced from the plan. The critic's
    expected reward q is read from its block masses before this step's
    critic update. The actor steps on the one-step advantage reward - q,
    with gradients taken through the forward pass the action was sampled
    from. A zero advantage leaves actor parameters bit-identical; a zero
    learning rate does the same for that side. The step runs on arrays and
    re-checks nothing the compiled corpus or ActorParams settles (see the
    module docstring).
    """
    ids = plan.query_ids.take(rows, axis=0)
    g = params.global_rep
    amplitude_rows = params.table.amplitudes.take(ids, axis=0)
    index, log_probability, probabilities, _, pooled, dots = actor.sample_rows(
        g, amplitude_rows, params.temperature, rng
    )
    row = int(rows[index])
    reward = int(plan.labels[row])

    pair, critic_rows, occurrence = plan.critic_unique(row)
    critic_loss, class_probabilities, amplitude_grad, salience_grad, critic_block = (
        critic.loss_gradient_rows(critic_table, pair, reward + 1, critic_rows, occurrence)
    )
    q_estimate = critic.q_value(class_probabilities)
    if config.critic_lr != 0.0:
        critic_table.descend(
            critic_rows, config.critic_lr, amplitude_grad, salience_grad, critic_block
        )

    advantage = reward - q_estimate
    if config.actor_lr != 0.0 and advantage != 0.0:
        table_ids, cells = plan.actor_unique(j, rows)
        table_grad, weights_grad, factors_grad = actor.policy_gradient(
            g,
            params.temperature,
            amplitude_rows,
            pooled,
            dots,
            probabilities,
            index,
            advantage,
            cells,
            table_ids.shape[0],
        )
        actor.descend(params, table_ids, config.actor_lr, table_grad, weights_grad, factors_grad)

    return StepMetrics(index, reward, q_estimate, advantage, critic_loss, log_probability)


@dataclass(frozen=True, eq=False)
class EvalPlan:
    """Everything evaluation reads off the corpus, fixed by it and the query order.

    slots is qrep.slot_map of the candidates' query_row_ids, and
    pair_groups is critic.pair_groups of every (document, candidate) pair's
    critic table rows. Every array is read-only; nothing here depends on the
    parameters.
    """

    slots: tuple[tuple[np.ndarray, np.ndarray], ...]
    pair_groups: tuple[tuple[np.ndarray, np.ndarray], ...]


#: Each compiled corpus's evaluation plans by query order, kept while the
#: compiled corpus lives. CompiledCorpus hashes by identity, so a lookup
#: never reads the corpus's contents (a Corpus hash walks every document).
_EVAL_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def eval_plan(compiled: env.CompiledCorpus, order: int) -> EvalPlan:
    """The EvalPlan of a compiled corpus for queries of `order` words, built on first use."""
    plans = _EVAL_PLANS.setdefault(compiled, {})
    if order not in plans:
        plans[order] = EvalPlan(
            slots=qrep.slot_map(query_row_ids(compiled, order)),
            pair_groups=critic.pair_groups(
                compiled.pair_tokens + critic.WORD_ROW_OFFSET, compiled.pair_lengths
            ),
        )
    return plans[order]


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
    scent_smoothing: float = TrainConfig.scent_smoothing,
) -> EvalMetrics:
    """Greedy pass over every document in corpus order; no randomness anywhere.

    Greedy accuracy is the fraction of documents whose argmax candidate is
    labeled +1; critic accuracy is the fraction of all (document, candidate)
    pairs whose most probable class matches the label.

    One batched pass over the corpus's compiled form (env.Corpus.compiled,
    built once per corpus) and its EvalPlan (eval_plan, built on the first
    call for the compiled corpus and the query order, then read): every
    candidate is scored at once by qrep.project_slots from the plan's slot
    map, taking each distinct (position, row) slot once with the bits of
    qrep.project_rows, the scoring a training step uses; each document's
    choice is the first argmax of its segment, and every pair is judged at
    once by critic.batch_class_probabilities from the plan's groups. Each
    score and class probability has the bits a per-document pass would give,
    and a non-finite score raises NonFiniteScore (actor.first_argmax); a
    table row no candidate uses is never read. Scent is env.reward_scent of the
    array of chosen rewards. Both tables must be built over the corpus
    vocabulary, as init_params and restore_params build them.
    """
    if len(corpus.documents) == 0:
        raise EmptyCorpus("evaluate needs at least one document")
    env.check_smoothing(scent_smoothing)
    for name, table in (("actor", params.table), ("critic", critic_table)):
        if table.words is not corpus.vocabulary and table.words != corpus.vocabulary:
            raise ShapeMismatch(f"{name} table rows are not built over the corpus vocabulary")
    compiled = corpus.compiled

    plan = eval_plan(compiled, params.global_rep.order)
    scores = qrep.project_slots(params.global_rep, params.table.amplitudes, plan.slots)[0]
    chosen = actor.first_argmax(scores, compiled.offsets)
    rewards = compiled.labels[compiled.offsets + chosen]

    probabilities = critic.batch_class_probabilities(plan.pair_groups, critic_table)
    critic_hits = int(np.count_nonzero(np.argmax(probabilities, axis=1) == compiled.labels + 1))

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


def _live_arrays(
    params: actor.ActorParams, critic_table: critic.ComplexEmbeddingTable
) -> dict[str, np.ndarray]:
    """The tables a checkpoint holds, by Checkpoint field, uncopied."""
    return {
        "actor_amplitudes": params.table.amplitudes,
        "global_weights": params.global_rep.weights,
        "global_factors": params.global_rep.factors,
        "critic_amplitudes": critic_table.amplitudes,
        "critic_phases": critic_table.phases,
        "critic_salience": critic_table.salience,
    }


def make_checkpoint(
    params: actor.ActorParams,
    critic_table: critic.ComplexEmbeddingTable,
    config: TrainConfig,
) -> Checkpoint:
    """A checkpoint of copies of the tables, which later training leaves as they are."""
    arrays = _live_arrays(params, critic_table)
    return Checkpoint(
        **{field: array.copy() for field, array in arrays.items()}, config_echo=config.echo()
    )


def _check_shapes(checkpoint: Checkpoint, config: TrainConfig) -> None:
    """Reject blocks whose shapes disagree with the settings the checkpoint echoes.

    rank, query_order, basis_dim and embed_dim fix every block but the
    number of table rows. The actor table holds at least the padding and
    unknown rows, and the critic table one row fewer (no padding row).
    """
    actor_rows = checkpoint.actor_amplitudes.shape[0]
    if actor_rows < qrep.WORD_ROW_OFFSET:
        raise CheckpointInvalid(
            f"block 'actor.amplitudes' has {actor_rows} rows, fewer than the "
            f"{qrep.WORD_ROW_OFFSET} padding and unknown rows"
        )
    critic_rows = actor_rows - qrep.WORD_ROW_OFFSET + critic.WORD_ROW_OFFSET
    expected = {
        "actor.amplitudes": (actor_rows, config.basis_dim),
        "global.weights": (config.rank, 1),
        "global.factors": (config.rank * config.query_order, config.basis_dim),
        "critic.amplitudes": (critic_rows, config.embed_dim),
        "critic.phases": (critic_rows, config.embed_dim),
        "critic.salience": (critic_rows, 1),
    }
    for name, block in checkpoint.blocks().items():
        if block.shape != expected[name]:
            raise CheckpointInvalid(
                f"block {name!r} has shape {block.shape}, expected {expected[name]} from "
                f"{actor_rows} actor rows and the echoed rank={config.rank} "
                f"query_order={config.query_order} basis_dim={config.basis_dim} "
                f"embed_dim={config.embed_dim}"
            )


def checkpoint_config(checkpoint: Checkpoint) -> TrainConfig:
    """The settings a checkpoint echoes, once the whole checkpoint is checked.

    An echo train would refuse, a block it does not fit, or parameters that
    break a training invariant (check_invariants, once every block is safe
    to index) raise CheckpointInvalid.
    """
    try:
        config = TrainConfig.from_echo(checkpoint.config_echo)
        config.validate()
    except ValueError as exc:
        raise CheckpointInvalid(f"config echo: {exc}") from None
    _check_shapes(checkpoint, config)
    check_invariants(checkpoint)
    return config


def restore_params(
    checkpoint: Checkpoint, corpus: env.Corpus
) -> tuple[actor.ActorParams, critic.ComplexEmbeddingTable, TrainConfig]:
    """bind_params under the settings the checkpoint echoes (checkpoint_config).

    An echoed config that train would refuse, blocks that do not fit it and
    broken invariants raise CheckpointInvalid.
    """
    config = checkpoint_config(checkpoint)
    params, critic_table = bind_params(checkpoint, corpus, config)
    return params, critic_table, config


def bind_params(
    checkpoint: Checkpoint, corpus: env.Corpus, config: TrainConfig
) -> tuple[actor.ActorParams, critic.ComplexEmbeddingTable]:
    """Rebind checkpoint arrays to the corpus vocabulary.

    `config` is checkpoint_config(checkpoint), which checked the checkpoint;
    this only binds. Rows are (null, unk) + sorted vocabulary on the actor
    side, (unk) + sorted vocabulary on the critic side; a keyword or row
    count disagreement means a different corpus (CheckpointMismatch).
    """
    if config.keyword_count != corpus.keyword_count:
        raise CheckpointMismatch(
            f"checkpoint has keyword_count={config.keyword_count}, corpus has {corpus.keyword_count}"
        )
    vocab = corpus.vocabulary
    actor_rows = len(vocab) + qrep.WORD_ROW_OFFSET
    if checkpoint.actor_amplitudes.shape[0] != actor_rows:
        raise CheckpointMismatch(
            f"checkpoint has {checkpoint.actor_amplitudes.shape[0]} actor rows, "
            f"corpus vocabulary needs {actor_rows}"
        )
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
    return params, critic_table


@dataclass(eq=False)
class TrainResult:
    params: actor.ActorParams
    critic_table: critic.ComplexEmbeddingTable
    checkpoint: Checkpoint
    metrics: list[MetricRow]
    rewards: list[int]

    def metric_lines(self) -> list[str]:
        return [row.line() for row in self.metrics]


def train(config: TrainConfig, corpus: env.Corpus, checkpoint_path: str | None = None) -> TrainResult:
    """Run the full loop: episodes, periodic evaluation records, checkpoints.

    Everything random flows from config.seed through named streams (init, env,
    policy), so two identical calls produce bitwise-identical parameters,
    metric rows, and checkpoint files. When evaluation is enabled a final
    record at the last episode is always emitted; with a checkpoint_path the
    file is rewritten at each earlier record and once at the end. The path is
    an argument, not a TrainConfig field, so it is not echoed into the file:
    the same run written to two places gives the same bytes.
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
        # The final state is saved once, after the loop. An earlier save only
        # writes the tables, so it reads them where they are.
        if checkpoint_path and episode != config.episodes:
            live = Checkpoint(**_live_arrays(params, critic_table), config_echo=config.echo())
            save_checkpoint(live, checkpoint_path)

    plan = compile_step_plan(corpus.compiled, config.query_order, config.basis_dim)
    for episode in range(1, config.episodes + 1):
        while True:
            j, rows = environment.draw()
            step_metrics = train_step(params, critic_table, plan, j, rows, config, policy_rng)
            rewards.append(step_metrics.reward)
            if environment.last_of_patch:
                break
        if config.eval_interval > 0 and (
            episode % config.eval_interval == 0 or episode == config.episodes
        ):
            record(episode)

    checkpoint = make_checkpoint(params, critic_table, config)
    if checkpoint_path:
        save_checkpoint(checkpoint, checkpoint_path)
    return TrainResult(
        params=params,
        critic_table=critic_table,
        checkpoint=checkpoint,
        metrics=metrics,
        rewards=rewards,
    )
