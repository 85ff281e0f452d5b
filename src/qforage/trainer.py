"""Actor-critic training loop, evaluation, and text checkpoints.

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
touched ids, and each table's update gathers those rows once, subtracts the
step, clamps (critic only), renormalizes and writes them back once, so its
cost does not grow with the vocabulary. Every other row has zero gradient and
is already unit within the renormalization dead band, so the result is the
same as a dense update. After every step every unit-norm row (actor amplitudes,
factor vectors, critic amplitudes) is unit again, the actor padding row stays
pinned, and critic amplitudes stay nonnegative.

Both modes run the same step: the next document never depends on the action,
so each step updates the actor at once with its one-step advantage. Mode only
picks the document order (env.Environment): a bandit episode is one document,
a session episode one pass through a patch.

Training and evaluation both run on the corpus compiled once into arrays of
vocabulary indices (env.Corpus.compiled); query_row_ids turns it into every
candidate's actor table rows. What only the corpus and the query order
decide is compiled once per train call into a StepPlan (compile_step_plan),
and a step reads nothing else off the corpus: the query rows, the labels,
each document's sorted unique actor rows with each candidate's positions
into them, and each pair's critic rows with their sorted unique values and
each token's index among them. One qrep.segment_unique call builds each side
for every document or pair at once, with one np.sort of keys that pack each
id's segment, value and position. A step takes the drawn document's
candidates as compiled rows (env.Environment.draw), gathers their amplitude
rows in one indexing operation and slices everything else from the plan.
The drawn rows' positions, read in drawn order, are what np.unique gives for
the gathered ids, so the gradients add into the merged rows in the same
order, with the same bits, as a step from token strings through
qrep.embed_query.

A step runs on plain arrays, one array routine per layer, each called
through its module: actor.sample_rows scores and samples,
critic.loss_gradient_rows takes the critic's loss and gradient rows,
actor.policy_gradient the policy gradient, and the descend methods of
qrep.AmplitudeTable, qrep.GlobalRepresentation and
critic.ComplexEmbeddingTable each update one table; descend is the only
update that touches part of a table. The step builds no dataclass but the
StepMetrics it returns, and re-checks nothing that compile or validate time
settles: env.compile_corpus checks the labels, so the critic's class is
reward + 1; ActorParams checks the temperature; the plan fixes the
candidates' shape and count, and the sampler clamps the drawn index. It does
check every step that the scores are finite. The checked entry points
(actor.act, actor.actor_gradients, critic.critic_loss_and_gradients) check
their inputs and return the tuples of the routines they wrap, so each
quantity is computed one way and has one shape; training never calls them.

Evaluation is one batched pass, not a loop over documents: every candidate is
scored at once by qrep.project_rows, the scoring a training step uses, and
every (document, candidate) pair is judged at once from per-word block
masses. Scores and class probabilities keep the bits of a per-document pass.
Scent statistics come from the array of chosen rewards (env.reward_scent),
and training's scent scalar uses the same recurrence.

Checkpoints are UTF-8 text: a `qforage-checkpoint v3` header, `# key=value`
config echo lines, then named matrix blocks (Checkpoint.blocks) for
everything but critic.phases. The phases are the init stream's last draw and
training never changes them, so a load redraws them from the echoed seed and
the block shapes, and a save refuses phases that are not that draw, so no file
loads back to other parameters. An edited seed echo therefore redraws other
phases; they reach only the density-matrix views (inspect's off-diagonals
and the demos), never train or evaluate, which read class block masses.
The normals drawn before the phases take a varying number of the stream's
raw outputs, so the first redraw for a seed and shapes replays the whole
stream (init_draws). init_draws remembers the stream's state after the
normals for the last few seeds and shapes, and a later redraw resumes from
it and draws the phases alone: init_params draws the stream, so train's
saves never replay it, and a load in a fresh process replays it once.
A v3 block is a `[name rows cols]` line, then its values' little-endian
float64 bytes in base64, wrapped the one way the writer wraps them: groups
of 76 characters (57 bytes; the block's last group may be shorter), up to 16
groups to a line, separated by single spaces. So save followed by load
reproduces every parameter bit for bit, and a load accepts a block's text
only if it is what a save writes for the values it decodes to. v2 files,
whose blocks are decimal rows printed with 17 significant digits, and v1
files, which also store the phases block, still load; v1 files with the
phases they store. A load reads the file once, in binary mode, with \\r\\n
and a lone \\r made \\n as text mode makes them, and numbers lines as
str.splitlines numbers the whole text. It decodes the header, echo and
block lines as UTF-8 one at a time; bytes that are not UTF-8 are a
ParseError at their line. A v3 payload exactly as the writer writes it is
decoded from its slice of the file's bytes, uncopied and never cut into
lines: its separators are compared with the writer's, its groups copied out
together and decoded by one strict base64 call. Any other payload is cut
into lines and checked again, to name the bad line; a decimal block parses
in one np.loadtxt call, and only one that fails is walked line by line.
A save builds the whole file as bytes with array operations: each block's
base64, viewed as a byte array, is copied into 77-byte cells of a group and
its separator in one reshape. It
writes them once to a temporary file opened in binary mode, so the bytes are
the same on every platform (text mode would turn each newline into \\r\\n on
Windows), fsyncs it, renames it onto the target and fsyncs the directory, so
neither a failed save nor an OS crash leaves a truncated checkpoint at the
target. checkpoint_config is the one check of a loaded checkpoint: its echo,
then its block shapes, then its invariants.
The vocabulary-to-row mapping is not stored; it is rebuilt as (null, unk) +
sorted corpus vocabulary, and bind_params rejects a checkpoint paired with
the wrong corpus.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import dataclasses
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import actor, critic, env, qcore, qrep
from .errors import (
    CheckpointInvalid,
    CheckpointMismatch,
    EmptyCorpus,
    ParseError,
    ShapeMismatch,
    VersionMismatch,
    undecodable_line,
)
from .seeding import stream_rng

CHECKPOINT_HEADER = "qforage-checkpoint v3"
V2_HEADER = "qforage-checkpoint v2"
V1_HEADER = "qforage-checkpoint v1"
#: The blocks a file stores, in file order. v1 files also store critic.phases
#: after critic.amplitudes.
_STORED_BLOCKS = (
    "actor.amplitudes",
    "global.weights",
    "global.factors",
    "critic.amplitudes",
    "critic.salience",
)
_V1_BLOCKS = _STORED_BLOCKS + ("critic.phases",)
#: A v3 payload group is the base64 of 57 bytes, 76 characters; a payload
#: line holds up to 16 groups, so every full line encodes 912 bytes.
_GROUP_CHARS = 76
_LINE_GROUPS = 16
#: The writer's cell: a group and the space, or after a line's last group the
#: newline, that follows it.
_CELL = _GROUP_CHARS + 1
#: The separators after the groups of a full payload line.
_LINE_END = b" " * (_LINE_GROUPS - 1) + b"\n"
#: How many init streams' states after the normals init_draws remembers
#: (_PHASE_STATES); a new one past this drops the oldest.
_PHASE_STATES_BOUND = 16
#: (seed, actor_shape, factor_shape, critic_shape) -> the init stream's
#: bit-generator state just before its phase draw, oldest first. Only the
#: state dicts are kept, never an array.
_PHASE_STATES: dict[tuple, dict] = {}


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


@dataclass(frozen=True)
class StepMetrics:
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


def init_draws(
    seed: int,
    actor_shape: tuple[int, int],
    factor_shape: tuple[int, int, int],
    critic_shape: tuple[int, int],
) -> tuple[np.ndarray, ...]:
    """The init stream's draws, in the order it makes them.

    Standard normals for the actor table (V + 2, k), the factors (R, n, k)
    and the weights (R,) and the critic amplitudes (V + 1, d), then the
    critic phases, uniform on [-pi, pi) of shape (V + 1, d). A seed and the
    shapes give the same bits every time: init_params builds its parameters
    from them, and a v3 or v2 checkpoint's phases are redrawn from them.
    The normals take a varying number of the stream's outputs each, so the
    phases cannot be reached without drawing them; the stream's state just
    after them is remembered in _PHASE_STATES, from which echoed_init_phases
    draws the phases alone.
    """
    rng = stream_rng(seed, "init")
    normals = (
        rng.standard_normal(actor_shape),
        rng.standard_normal(factor_shape),
        rng.standard_normal(factor_shape[0]),
        rng.standard_normal(critic_shape),
    )
    key = (seed, tuple(actor_shape), tuple(factor_shape), tuple(critic_shape))
    _PHASE_STATES.pop(key, None)
    _PHASE_STATES[key] = rng.bit_generator.state
    if len(_PHASE_STATES) > _PHASE_STATES_BOUND:
        del _PHASE_STATES[next(iter(_PHASE_STATES))]
    return (*normals, _draw_phases(rng, critic_shape))


def _draw_phases(rng: np.random.Generator, critic_shape: tuple[int, int]) -> np.ndarray:
    """The critic phases: the init stream's last draw, uniform on [-pi, pi)."""
    return rng.uniform(-np.pi, np.pi, size=critic_shape)


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

    Rows pad with qrep.NULL_ID and truncate at `order`; for a table built
    over the corpus vocabulary, row i is what qrep.embed_query gives as
    word_ids for candidate i.
    """
    tokens = compiled.query_tokens[:, :order]
    if tokens.shape[1] < order:
        tokens = np.pad(tokens, ((0, 0), (0, order - tokens.shape[1])), constant_values=-1)
    in_query = np.arange(order) < compiled.query_lengths[:, None]
    return np.where(in_query, tokens + qrep.WORD_ROW_OFFSET, qrep.NULL_ID)


@dataclass(frozen=True, eq=False)
class StepPlan:
    """Everything a training step reads off the corpus, fixed by it and the query order.

    Flat arrays cut by bounds arrays, built once per train call
    (compile_step_plan). query_ids are query_row_ids of the compiled corpus
    and labels its compiled labels. Document j's sorted unique actor table
    rows are actor_rows[actor_bounds[j]:actor_bounds[j + 1]], and
    actor_positions[i] are candidate i's (order,) indices into them.
    Compiled pair i's critic table rows, in token order, are
    pair_ids[pair_bounds[i]:pair_bounds[i + 1]], their indices into the
    pair's sorted unique rows lie at the same slice of occurrence, and those
    rows are critic_rows[critic_bounds[i]:critic_bounds[i + 1]].
    """

    query_ids: np.ndarray         # (N, order)
    labels: np.ndarray            # (N,)
    document: np.ndarray          # (N,) document of each compiled row
    actor_rows: np.ndarray
    actor_bounds: np.ndarray      # (D + 1,)
    actor_positions: np.ndarray   # (N, order)
    pair_ids: np.ndarray
    occurrence: np.ndarray
    pair_bounds: np.ndarray       # (N + 1,)
    critic_rows: np.ndarray
    critic_bounds: np.ndarray     # (N + 1,)

    def actor_unique(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique rows of query_ids[rows] and each id's index among them.

        `rows` hold every candidate of one document, in any order.
        """
        j = self.document[rows[0]]
        return (
            self.actor_rows[self.actor_bounds[j] : self.actor_bounds[j + 1]],
            self.actor_positions[rows].ravel(),
        )

    def critic_unique(self, row: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compiled pair `row`'s critic rows in token order, sorted unique, and each one's index."""
        pair = slice(self.pair_bounds[row], self.pair_bounds[row + 1])
        return (
            self.pair_ids[pair],
            self.critic_rows[self.critic_bounds[row] : self.critic_bounds[row + 1]],
            self.occurrence[pair],
        )


def _bounds(counts: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts)))


def compile_step_plan(compiled: env.CompiledCorpus, order: int) -> StepPlan:
    """The StepPlan of a compiled corpus for queries of `order` words.

    One qrep.segment_unique call takes every document and one every pair,
    so the indices are what np.unique gives each of them alone.
    """
    query_ids = query_row_ids(compiled, order)
    num_rows = query_ids.shape[0]
    candidates = np.diff(compiled.offsets, append=num_rows)
    actor_rows, actor_counts, positions = qrep.segment_unique(
        query_ids.ravel(), candidates * order
    )
    in_pair = np.arange(compiled.pair_tokens.shape[1]) < compiled.pair_lengths[:, None]
    pair_ids = compiled.pair_tokens[in_pair] + critic.WORD_ROW_OFFSET
    critic_rows, critic_counts, occurrence = qrep.segment_unique(pair_ids, compiled.pair_lengths)
    return StepPlan(
        query_ids=query_ids,
        labels=compiled.labels,
        document=np.repeat(np.arange(len(candidates)), candidates),
        actor_rows=actor_rows,
        actor_bounds=_bounds(actor_counts),
        actor_positions=positions.reshape(num_rows, order),
        pair_ids=pair_ids,
        occurrence=occurrence,
        pair_bounds=_bounds(compiled.pair_lengths),
        critic_rows=critic_rows,
        critic_bounds=_bounds(critic_counts),
    )


def train_step(
    params: actor.ActorParams,
    critic_table: critic.ComplexEmbeddingTable,
    plan: StepPlan,
    rows: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> StepMetrics:
    """Sample, collect the reward, judge, then update the critic and the actor.

    `rows` are one document's candidates as compiled rows in the order the
    environment drew them (env.Environment.draw), and `plan` is
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
    ids = plan.query_ids[rows]
    g = params.global_rep
    amplitude_rows = params.table.amplitudes[ids]
    index, log_probability, probabilities, _, pooled, dots = actor.sample_rows(
        g, amplitude_rows, params.temperature, rng
    )
    row = int(rows[index])
    reward = int(plan.labels[row])

    pair, critic_rows, occurrence = plan.critic_unique(row)
    critic_loss, class_probabilities, amplitude_grad, salience_grad = critic.loss_gradient_rows(
        critic_table, pair, reward + 1, critic_rows, occurrence
    )
    q_estimate = critic.q_value(class_probabilities)
    if config.critic_lr != 0.0:
        critic_table.descend(critic_rows, config.critic_lr, amplitude_grad, salience_grad)

    advantage = reward - q_estimate
    if config.actor_lr != 0.0 and advantage != 0.0:
        table_ids, position_row = plan.actor_unique(rows)
        table_grad, weights_grad, factors_grad = actor.policy_gradient(
            g,
            params.temperature,
            amplitude_rows,
            pooled,
            dots,
            probabilities,
            index,
            advantage,
            position_row,
            table_ids.shape[0],
        )
        params.table.descend(table_ids, config.actor_lr, table_grad)
        g.descend(config.actor_lr, weights_grad, factors_grad)

    return StepMetrics(
        chosen_index=index,
        reward=reward,
        q_estimate=q_estimate,
        advantage=advantage,
        critic_loss=critic_loss,
        log_probability=log_probability,
    )


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
    built once per corpus): every candidate is scored at once by
    qrep.project_rows, the scoring a training step uses, each document's choice
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

    ids = query_row_ids(compiled, params.global_rep.order)
    scores = qrep.project_rows(params.global_rep, params.table.amplitudes[ids])[0]
    chosen = actor.first_argmax(scores, compiled.offsets)
    rewards = compiled.labels[compiled.offsets + chosen]

    probabilities = critic.batch_class_probabilities(
        compiled.pair_tokens + critic.WORD_ROW_OFFSET, compiled.pair_lengths, critic_table
    )
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


@dataclass(eq=False)
class Checkpoint:
    """All trainable parameters plus the config echo.

    `header` is the first line of the file the checkpoint was loaded from:
    CHECKPOINT_HEADER (v3), V2_HEADER, or V1_HEADER for a file that stores
    its phases. A checkpoint made in memory carries CHECKPOINT_HEADER, and a
    save always writes v3.
    """

    actor_amplitudes: np.ndarray
    global_weights: np.ndarray
    global_factors: np.ndarray
    critic_amplitudes: np.ndarray
    critic_phases: np.ndarray
    critic_salience: np.ndarray
    config_echo: dict[str, str]
    header: str = CHECKPOINT_HEADER

    def blocks(self) -> dict[str, np.ndarray]:
        """Each file block's name and 2-D array, in file order.

        Vectors are columns; factors (R, order, k) are rows r * order + i.
        """
        rank, order, basis_dim = self.global_factors.shape
        return {
            "actor.amplitudes": self.actor_amplitudes,
            "global.weights": self.global_weights.reshape(-1, 1),
            "global.factors": self.global_factors.reshape(rank * order, basis_dim),
            "critic.amplitudes": self.critic_amplitudes,
            "critic.phases": self.critic_phases,
            "critic.salience": self.critic_salience.reshape(-1, 1),
        }


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


def echoed_init_phases(
    config_echo: dict[str, str],
    actor_amplitudes: np.ndarray,
    global_factors: np.ndarray,
    critic_amplitudes: np.ndarray,
) -> np.ndarray:
    """The critic phases init_draws gives for the echoed seed and the blocks' shapes.

    When init_draws has remembered the stream's state after the normals for
    this seed and these shapes (_PHASE_STATES), only the phases are drawn,
    from that state; otherwise the whole stream is replayed, which remembers
    it. Both give the same bits. An echo without an integer seed raises
    CheckpointInvalid.
    """
    try:
        seed = int(config_echo["seed"])
    except (KeyError, ValueError):
        found = repr(config_echo["seed"]) if "seed" in config_echo else "none"
        raise CheckpointInvalid(
            f"config echo: critic.phases are redrawn from an integer seed, found {found}"
        ) from None
    shapes = (actor_amplitudes.shape, global_factors.shape, critic_amplitudes.shape)
    state = _PHASE_STATES.get((seed, *shapes))
    if state is None:
        return init_draws(seed, *shapes)[-1]
    bit_generator = np.random.PCG64(0)  # seeded, so no OS entropy is read before the state is set
    bit_generator.state = state
    return _draw_phases(np.random.Generator(bit_generator), critic_amplitudes.shape)


def _payload(block: np.ndarray) -> np.ndarray:
    """A v3 block's payload lines as bytes: its little-endian float64 bytes in base64, wrapped.

    Each line is up to _LINE_GROUPS groups of _GROUP_CHARS characters,
    space-separated, and ends in a newline; a block without values has none.
    The full groups are copied into _CELL-byte cells, a group and its
    separator, in one reshape; the block's short last group follows them.
    """
    encoded = np.frombuffer(
        base64.b64encode(np.ascontiguousarray(block, dtype="<f8")), dtype=np.uint8
    )
    full = len(encoded) // _GROUP_CHARS
    groups = -(-len(encoded) // _GROUP_CHARS)
    out = np.empty(len(encoded) + groups, dtype=np.uint8)  # each group and its separator
    cells = out[: full * _CELL].reshape(full, _CELL)
    cells[:, :-1] = encoded[: full * _GROUP_CHARS].reshape(full, _GROUP_CHARS)
    cells[:, -1] = ord(" ")
    cells[_LINE_GROUPS - 1 :: _LINE_GROUPS, -1] = ord("\n")
    if groups:
        out[full * _CELL : -1] = encoded[full * _GROUP_CHARS :]
        out[-1] = ord("\n")  # ends the last line, whether its last group is full or short
    return out


def checkpoint_bytes(checkpoint: Checkpoint) -> bytes:
    """The whole v3 file: header and echo, then each stored block's header and payload.

    critic.phases is not stored; a loader redraws it (echoed_init_phases).
    """
    blocks = checkpoint.blocks()
    head = CHECKPOINT_HEADER + "\n" + "".join(
        f"# {key}={value}\n" for key, value in checkpoint.config_echo.items()
    )
    parts = [head.encode("utf-8")]
    for name in _STORED_BLOCKS:
        rows, cols = blocks[name].shape
        parts += [f"[{name} {rows} {cols}]\n".encode("ascii"), _payload(blocks[name])]
    return b"".join(parts)


def checkpoint_lines(checkpoint: Checkpoint) -> list[str]:
    """The v3 file's lines, without newlines."""
    return checkpoint_bytes(checkpoint).decode("utf-8").split("\n")[:-1]


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Write the v3 file beside `path`, fsync it, rename it into place, fsync the directory.

    The file is checkpoint_bytes, written once in binary mode, so it has the
    same bytes on every platform. Phases that are not bit for bit the echoed
    seed's init draw would load back as other phases, so they raise
    CheckpointInvalid before anything is written. A save that fails before
    the rename leaves any earlier file at `path` as it was and no temporary
    file behind; one whose directory fsync fails raises with the new file
    whole at `path`. Once both fsyncs return, an OS crash cannot leave an
    empty or partial file at `path`.
    """
    redrawn = echoed_init_phases(
        checkpoint.config_echo,
        checkpoint.actor_amplitudes,
        checkpoint.global_factors,
        checkpoint.critic_amplitudes,
    )
    phases = checkpoint.critic_phases
    # Compared as bits: -0.0 is not 0.0, and a NaN equals only its own bits.
    if not (
        phases.shape == redrawn.shape
        and phases.dtype == redrawn.dtype
        and np.array_equal(phases.view(np.uint64), redrawn.view(np.uint64))
    ):
        raise CheckpointInvalid(
            f"block 'critic.phases' is not the init draw of the echoed "
            f"seed={checkpoint.config_echo['seed']}, and a checkpoint does not store it"
        )
    data = checkpoint_bytes(checkpoint)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    if os.name == "posix":  # only POSIX systems open a directory to fsync it
        directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


class _Cursor:
    """A file's bytes, handed out as the lines str.splitlines cuts from its text.

    The bytes are the file read once in binary mode, with \\r\\n and a lone
    \\r made \\n as text mode makes them. take decodes the file lines (up to
    each \\n) it needs as UTF-8 and cuts them again as str.splitlines does,
    which also cuts at \\x0b, \\x0c, \\x1c-\\x1e, \\x85, \\u2028 and \\u2029,
    keeping the lines past the request for the next take; so a line's number
    is its splitlines index + 1. Bytes that are not UTF-8 raise ParseError at
    the line that holds them. written hands out the bytes ahead uncopied.
    """

    def __init__(self, data: bytes):
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        self._data = data
        self._view = memoryview(data)
        self._pos = 0  # bytes before it are cut into lines
        self._ahead: list[str] = []
        self.count = 0  # lines handed out so far

    def take(self, n: int) -> list[str]:
        """The next n lines without their line breaks; fewer at the end of the file."""
        lines = self._ahead[:n]
        del self._ahead[:n]
        while len(lines) < n and self._pos < len(self._data):
            end = self._pos
            for _ in range(n - len(lines)):
                end = self._data.find(b"\n", end) + 1 or len(self._data)
                if end == len(self._data):
                    break
            try:
                text = str(self._view[self._pos : end], "utf-8")
            except UnicodeDecodeError as exc:
                at = undecodable_line(self._view[self._pos : end], exc.start)
                raise ParseError("not UTF-8 text", line=self.count + len(lines) + at) from None
            self._pos = end
            more = text.splitlines()
            need = n - len(lines)
            lines += more[:need]
            self._ahead = more[need:]
        self.count += len(lines)
        return lines

    def written(self, size: int) -> memoryview | None:
        """The next `size` bytes, uncopied; None while cut lines are pending or past the end."""
        if self._ahead or self._pos + size > len(self._data):
            return None
        return self._view[self._pos : self._pos + size]

    def skip(self, size: int, lines: int) -> None:
        """Pass the `size` bytes written gave, which hold `lines` whole lines."""
        self._pos += size
        self.count += lines


def _parse_rows(rows: list[str]) -> np.ndarray:
    with warnings.catch_warnings():
        # Rows that are all blank warn "input contained no data"; the caller's
        # shape check rejects them.
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)


def _parse_block(lines: list[str], name: str, rows: int, cols: int, base: int = 0) -> np.ndarray:
    """The (rows, cols) values on a v2 or v1 block's decimal lines, parsed in one call.

    `lines` are the block's rows as the file holds them, fewer than `rows`
    if it ends early. A block that does not parse whole is walked row by row
    to raise ParseError at its first bad line, numbered as if `base` file
    lines came before lines[0]. A block without values parses to an empty
    array once every row is checked.
    """
    try:
        data = _parse_rows(lines)
    except ValueError:
        pass
    else:
        if data.shape == (rows, cols):
            return data
    for r in range(rows):
        if r >= len(lines):
            raise ParseError(f"block {name!r} truncated at row {r}", line=base + len(lines))
        count = len(lines[r].split())
        if count != cols:
            raise ParseError(
                f"block {name!r} row has {count} values, expected {cols}", line=base + r + 1
            )
        try:
            _parse_rows([lines[r]])
        except ValueError:
            raise ParseError(f"non-numeric value in block {name!r}", line=base + r + 1) from None
    if rows * cols > 0:  # Not reached while np.loadtxt splits rows as str.split does.
        raise ParseError(f"block {name!r} does not parse", line=base)
    return np.empty((rows, cols), dtype=np.float64)


def _payload_widths(size: int) -> list[int]:
    """The character count of each payload line the writer wraps `size` bytes into."""
    chars = 4 * -(-size // 3)
    full = _LINE_GROUPS * (_GROUP_CHARS + 1) - 1
    count, rest = divmod(chars, _LINE_GROUPS * _GROUP_CHARS)
    last = [rest + -(-rest // _GROUP_CHARS) - 1] if rest else []
    return [full] * count + last


def _payload_error(lines: list[str], name: str, size: int, base: int) -> ParseError:
    """The ParseError at a v3 block's first payload line that the writer would not write.

    Lines are numbered as in _decode_block. Lines that each decode can still
    decode to other than `size` bytes, through the padding of the block's
    last group; that is named at the last line.
    """
    widths = _payload_widths(size)
    for i, (line, width) in enumerate(zip(lines, widths)):
        at = base + i + 1
        if line.startswith("["):  # a block header: the payload ended early
            return ParseError(
                f"block {name!r} truncated at payload line {i + 1} of {len(widths)}", line=at
            )
        if len(line) != width:
            return ParseError(
                f"block {name!r} payload line has {len(line)} characters, expected {width}",
                line=at,
            )
        groups = line.split(" ")
        widths_ok = 0 < len(groups[-1]) <= _GROUP_CHARS
        if not widths_ok or any(len(g) != _GROUP_CHARS for g in groups[:-1]):
            return ParseError(
                f"block {name!r} payload line is not groups of {_GROUP_CHARS} characters "
                "separated by single spaces",
                line=at,
            )
        chars = "".join(groups)
        try:
            base64.b64decode(chars, validate=True)
        except ValueError:  # binascii.Error, or a character outside ASCII
            pass
        else:
            if i == len(widths) - 1 or "=" not in chars:  # padding ends the block only
                continue
        return ParseError(f"block {name!r} payload line is not base64", line=at)
    if len(lines) < len(widths):
        return ParseError(
            f"block {name!r} truncated at payload line {len(lines) + 1} of {len(widths)}",
            line=base + len(lines),
        )
    return ParseError(
        f"block {name!r} payload does not decode to its {size} bytes exactly",
        line=base + len(lines),
    )


def _written_values(payload, rows: int, cols: int) -> np.ndarray | None:
    """The (rows, cols) values whose payload _payload writes as `payload`, or None if none is.

    `payload` is any bytes-like object; it is read, not copied, and must be
    the writer's bytes exactly: its length, the separator after each full
    group (a space, or a newline after a line's 16th group and the block's
    last group), the base64 alphabet with padding only at the end, one
    strict decode to the block's size, and a last group that re-encodes to
    itself. The array is writable and native-endian, as np.loadtxt returns it.
    """
    size = rows * cols * 8
    chars = 4 * -(-size // 3)
    full, rest = divmod(chars, _GROUP_CHARS)
    text = np.frombuffer(payload, dtype=np.uint8)
    if len(text) != chars + full + (rest > 0):
        return None
    cells = text[: full * _CELL].reshape(full, _CELL)
    # The byte after each group; a short last group's is the payload's last byte.
    full_lines, left = divmod(full + (rest > 0), _LINE_GROUPS)
    separators = _LINE_END * full_lines + (b" " * (left - 1) + b"\n" if left else b"")
    if cells[:, -1].tobytes() + text[full * _CELL + rest :].tobytes() != separators:
        return None
    encoded = bytearray(chars)  # b64decode takes a bytearray uncopied
    groups = np.frombuffer(encoded, dtype=np.uint8)
    groups[: full * _GROUP_CHARS].reshape(full, _GROUP_CHARS)[...] = cells[:, :-1]
    groups[full * _GROUP_CHARS :] = text[full * _CELL : full * _CELL + rest]
    try:
        raw = base64.b64decode(encoded, validate=True)
    except binascii.Error:
        return None
    tail = size % 3
    if len(raw) != size or (tail and base64.b64encode(raw[-tail:]) != encoded[-4:]):
        return None
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(rows, cols)


def _decode_block(lines: list[str], name: str, rows: int, cols: int, base: int = 0) -> np.ndarray:
    """The (rows, cols) float64 values of a v3 block whose payload the file cuts into `lines`.

    `lines` are the block's payload lines as the file holds them, fewer than
    the writer writes if the file ends early; the first is file line
    base + 1. Each ends in a newline again, and the whole must be what
    _payload writes (_written_values); any other text raises ParseError at
    its first bad line (_payload_error).
    """
    data = _written_values("".join(line + "\n" for line in lines).encode("utf-8"), rows, cols)
    if data is None:
        raise _payload_error(lines, name, rows * cols * 8, base)
    return data


def load_checkpoint(path: str) -> Checkpoint:
    """Parse a v3, v2 or v1 checkpoint; malformed structure raises ParseError with a line number.

    The file is read once and cut into lines as they are needed (_Cursor).
    Block shapes are nonnegative and each parameter block appears once. A
    v3 block's payload is decoded from the file's bytes when it is exactly
    what the writer writes (_written_values), and from its lines otherwise
    (_decode_block); a v2 or v1 block's decimal rows are parsed whole
    (_parse_block). rng.* blocks, which files before v3 may hold, are
    skipped. A v3 or v2 file's critic.phases are redrawn from its echoed seed
    and block shapes (echoed_init_phases) once the blocks have parsed; a v1
    file stores them.
    """
    with open(path, "rb") as fh:
        lines = _Cursor(fh.read())
    header = lines.take(1)
    if header not in ([CHECKPOINT_HEADER], [V2_HEADER], [V1_HEADER]):
        found = header[0] if header else "<empty file>"
        raise VersionMismatch(
            f"expected header {CHECKPOINT_HEADER!r}, {V2_HEADER!r} or {V1_HEADER!r}, "
            f"found {found!r}"
        )
    version = header[0].rpartition(" ")[2]
    stored = _V1_BLOCKS if version == "v1" else _STORED_BLOCKS
    echo: dict[str, str] = {}
    blocks: dict[str, np.ndarray] = {}
    last = None  # the block read last, which a stray line follows
    while taken := lines.take(1):
        line = taken[0]
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                echo[key.strip()] = value
            continue
        if not (line.startswith("[") and line.endswith("]")):
            shown = line if len(line) <= 40 else line[:40] + "..."
            after = f" after the lines of block {last!r}" if last else ""
            raise ParseError(
                f"expected a block header{after}, got {shown!r}", line=lines.count
            )
        parts = line[1:-1].split()
        if len(parts) != 3:
            raise ParseError(f"malformed block header {line!r}", line=lines.count)
        name = parts[0]
        try:
            rows, cols = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"non-integer block shape in {line!r}", line=lines.count) from None
        if rows < 0 or cols < 0:
            raise ParseError(f"negative block shape in {line!r}", line=lines.count)
        if name == "critic.phases" and name not in stored:
            raise ParseError(
                f"a {version} file does not store block 'critic.phases'; it is redrawn "
                "from the echoed seed",
                line=lines.count,
            )
        if name not in stored and not (version != "v3" and name.startswith("rng.")):
            raise ParseError(f"unknown block {name!r}", line=lines.count)
        if name in blocks:
            raise ParseError(f"block {name!r} appears twice", line=lines.count)
        base = lines.count
        if version == "v3":
            widths = _payload_widths(rows * cols * 8)
            # A payload as the writer wrote it is decoded from the file's bytes
            # without being cut into lines; any other is cut and checked.
            written = lines.written(sum(widths) + len(widths))
            data = None if written is None else _written_values(written, rows, cols)
            if data is None:
                data = _decode_block(lines.take(len(widths)), name, rows, cols, base)
            else:
                lines.skip(len(written), len(widths))
        else:
            data = _parse_block(lines.take(rows), name, rows, cols, base)
        last = name
        # rng.* blocks hold stream states earlier versions wrote; nothing reads them.
        if not name.startswith("rng."):
            blocks[name] = data
    missing = [b for b in stored if b not in blocks]
    if missing:
        raise ParseError(f"missing parameter blocks: {missing}", line=lines.count)
    weights = blocks["global.weights"].ravel()
    rank = weights.shape[0]
    factors_flat = blocks["global.factors"]
    if rank == 0 or factors_flat.shape[0] % rank != 0:
        raise ParseError(
            f"factor rows {factors_flat.shape[0]} not divisible by rank {rank}",
            line=lines.count,
        )
    order = factors_flat.shape[0] // rank
    factors = factors_flat.reshape(rank, order, factors_flat.shape[1])
    if "critic.phases" not in blocks:
        blocks["critic.phases"] = echoed_init_phases(
            echo, blocks["actor.amplitudes"], factors, blocks["critic.amplitudes"]
        )
    return Checkpoint(
        actor_amplitudes=blocks["actor.amplitudes"],
        global_weights=weights,
        global_factors=factors,
        critic_amplitudes=blocks["critic.amplitudes"],
        critic_phases=blocks["critic.phases"],
        critic_salience=blocks["critic.salience"].ravel(),
        config_echo=echo,
        header=header[0],
    )


def check_invariants(checkpoint: Checkpoint) -> None:
    """Reject parameters that training never produces, naming the block and row.

    Every value is finite; actor, factor and critic rows are unit length
    within qcore.UNIT_TOL; the actor padding row is exactly the first basis
    vector; critic amplitudes are nonnegative. Rows are numbered as the
    checkpoint file lays its blocks out. The block shapes must fit first
    (checkpoint_config checks them, then calls this).
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

    plan = compile_step_plan(corpus.compiled, config.query_order)
    for episode in range(1, config.episodes + 1):
        while True:
            _, rows = environment.draw()
            step_metrics = train_step(params, critic_table, plan, rows, config, policy_rng)
            rewards.append(step_metrics.reward)
            if environment.last_of_patch:
                break
        if config.eval_interval > 0 and episode % config.eval_interval == 0:
            record(episode)

    if config.eval_interval > 0 and (not metrics or metrics[-1].episode != config.episodes):
        record(config.episodes)

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
