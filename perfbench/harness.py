"""The qforage benchmark: workloads, timed phases, the correctness gate, metrics.

One run is one workload and one seed in one process, driven by a single caller
in a closed loop: each operation starts when the previous one has returned.
The seed generates the corpus and the training seeds; the program sees only
those inputs. A run has four phases, each repeated until its share of the run's
seconds is spent (and at least a fixed number of times):

    setup  generate the corpus, write it, parse it back with env.load_corpus
    train  trainer.train on MODELS training seeds, then repeats of the first
    ckpt   make + save a checkpoint, then load + restore it
    eval   trainer.evaluate over the whole corpus

End-to-end metrics are medians over a phase's repetitions, measured with no
tracing installed. A traced run (`trace=True`) wraps the program's public
functions from outside (see tracing.py) and reports per-layer metrics instead.

Every operation counts as attempted; an operation whose checks fail counts as
failed. The checks never feed back into what is timed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, TypeVar

import numpy as np

from qforage import actor, critic, env, qcore, qrep, trainer
from qforage.errors import QForageError

from tracing import Site, Tracer, count_changed_rows, count_returned_bytes


@dataclass(frozen=True)
class Workload:
    name: str
    spec: env.CorpusSpec
    mode: str
    episodes: int


# All three use the default model (k=4, n=5, R=10, d=12, C=3). Episode counts
# keep one training call under about a second on one core, so the reference
# passes around it track the host's drift and a run holds many calls, while
# greedy accuracy over four models still varies little from seed to seed.
# README.md gives the reason for each workload.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy-bandit", env.CorpusSpec(docs=50, patches=2), "bandit", 1000),
        Workload(
            "wide-bandit", env.CorpusSpec(docs=2000, patches=2, vocab_size=10000), "bandit", 100
        ),
        Workload(
            "session-mid", env.CorpusSpec(docs=400, patches=20, vocab_size=600), "session", 40
        ),
    )
}

#: Training seeds per run. greedy_accuracy is the mean over their models, which
#: keeps its seed-to-seed spread well inside its bound.
MODELS = 4

#: Row-norm tolerance of the unit-length invariants.
UNIT_TOL = 1e-9

#: Seconds the reference loop takes on the nominal host that timings are scaled
#: to; about what it took on the 2-core x86-64 VM the baseline was measured on.
REFERENCE_S = 0.0015

#: End-to-end metrics measured as times or rates, with their units.
UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "eval_docs_per_s": "docs/s",
    "ckpt_save_s": "s",
    "ckpt_load_s": "s",
}

# Cumulative share of the run's seconds at which each phase stops repeating.
SETUP_END, TRAIN_END, CKPT_END = 0.1, 0.55, 0.75

#: Sites on the training path report calls and self time per training step.
TRAIN_PATH = (
    Site("qcore.build_density", qcore, "build_density"),
    Site("qcore.DensityMatrix", qcore.DensityMatrix, "__post_init__"),
    Site("qrep.embed_query", qrep, "embed_query"),
    Site("qrep.product_pool", qrep, "product_pool"),
    Site("qrep.AmplitudeTable.renormalize", qrep.AmplitudeTable, "renormalize", count_changed_rows),
    Site("qrep.GlobalRepresentation.renormalize", qrep.GlobalRepresentation, "renormalize"),
    Site("actor.act", actor, "act"),
    Site("actor.actor_forward", actor, "actor_forward"),
    Site("actor.select_action", actor, "select_action"),
    Site("actor.policy_probabilities", actor, "policy_probabilities"),
    Site("actor.actor_gradients", actor, "actor_gradients", count_returned_bytes),
    Site("critic.critic_density", critic, "critic_density"),
    Site("critic.measure_classes", critic, "measure_classes"),
    Site("critic.q_value", critic, "q_value"),
    Site("critic.critic_loss_and_gradients", critic, "critic_loss_and_gradients", count_returned_bytes),
    Site(
        "critic.ComplexEmbeddingTable.renormalize",
        critic.ComplexEmbeddingTable,
        "renormalize",
        count_changed_rows,
    ),
    Site("env.Environment.reset", env.Environment, "reset"),
    Site("env.step", env, "step"),
    Site("trainer.train", trainer, "train"),
    Site("trainer.train_step", trainer, "train_step"),
    Site("trainer.init_params", trainer, "init_params"),
)
#: Every site a traced run wraps; the ones off the training path report per call
#: (set-up and checkpoint) or per evaluated document.
SITES = TRAIN_PATH + (
    Site("env.gen_corpus", env, "gen_corpus"),
    Site("env.save_corpus", env, "save_corpus"),
    Site("env.load_corpus", env, "load_corpus"),
    Site("trainer.make_checkpoint", trainer, "make_checkpoint"),
    Site("trainer.save_checkpoint", trainer, "save_checkpoint"),
    Site("trainer.load_checkpoint", trainer, "load_checkpoint"),
    Site("trainer.restore_params", trainer, "restore_params"),
    Site("trainer.evaluate", trainer, "evaluate"),
    Site("critic.class_probabilities", critic, "class_probabilities"),
)
TRAIN_SITES = tuple(s.name for s in TRAIN_PATH)
SETUP_SITES = ("env.gen_corpus", "env.save_corpus", "env.load_corpus")
CKPT_SITES = (
    "trainer.make_checkpoint",
    "trainer.save_checkpoint",
    "trainer.load_checkpoint",
    "trainer.restore_params",
)
EVAL_SITES = ("trainer.evaluate", "critic.class_probabilities")


T = TypeVar("T")


@dataclass
class Gate:
    """Counts operations and the ones whose correctness checks failed."""

    attempted: int = 0
    failed: int = 0
    faults: list[str] = field(default_factory=list)

    def record(self, operation: str, faults: list[str]) -> None:
        self.attempted += 1
        if faults:
            self.failed += 1
            self.faults.extend(f"{operation}: {fault}" for fault in faults)


@dataclass(eq=False)
class Model:
    config: trainer.TrainConfig
    params: actor.ActorParams
    critic_table: critic.ComplexEmbeddingTable


@dataclass(eq=False)
class Outcome:
    result: dict
    info: dict
    spans: dict


def param_arrays(model: Model) -> list[np.ndarray]:
    g, c = model.params.global_rep, model.critic_table
    return [model.params.table.amplitudes, g.weights, g.factors, c.amplitudes, c.phases, c.salience]


def _same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b


def _unit_rows(rows: np.ndarray) -> bool:
    return bool(np.all(np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= UNIT_TOL))


def param_faults(model: Model) -> list[str]:
    """Violated parameter invariants of a trained or restored model."""
    faults = []
    if not all(np.isfinite(a).all() for a in param_arrays(model)):
        faults.append("non-finite parameter")
    amplitudes = model.params.table.amplitudes
    if not _unit_rows(amplitudes):
        faults.append("actor row not unit length")
    factors = model.params.global_rep.factors
    if not _unit_rows(factors.reshape(-1, factors.shape[-1])):
        faults.append("factor row not unit length")
    pinned = np.zeros(amplitudes.shape[1])
    pinned[0] = 1.0
    if not _same_bits(amplitudes[0], pinned):
        faults.append("padding row moved")
    critic_rows = model.critic_table.amplitudes
    if (critic_rows < 0.0).any() or not _unit_rows(critic_rows):
        faults.append("critic amplitude row negative or not unit length")
    return faults


def same_checkpoint(a: trainer.Checkpoint, b: trainer.Checkpoint) -> bool:
    """Every field of two in-memory checkpoints equal, arrays bit for bit."""
    return all(
        _same_bits(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
    )


def setup_corpus(workload: Workload, seed: int, path: Path) -> tuple[env.Corpus, list[str]]:
    """Generate, write and parse back the workload's corpus; the parse must round-trip."""
    generated = env.gen_corpus(workload.spec, np.random.default_rng(seed))
    env.save_corpus(generated, str(path))
    corpus = env.load_corpus(str(path), keyword_count=workload.spec.keyword_count)
    return corpus, [] if corpus == generated else ["parsed corpus differs"]


def train_model(
    workload: Workload, corpus: env.Corpus, train_seed: int
) -> tuple[Model, trainer.TrainResult]:
    config = trainer.TrainConfig(
        episodes=workload.episodes, seed=train_seed, mode=workload.mode, eval_interval=0
    )
    result = trainer.train(config, corpus)
    return Model(config, result.params, result.critic_table), result


def save_model(model: Model, path: Path) -> None:
    checkpoint = trainer.make_checkpoint(model.params, model.critic_table, model.config)
    trainer.save_checkpoint(checkpoint, str(path))


def load_model(path: Path, model: Model, corpus: env.Corpus) -> tuple[Model | None, list[str]]:
    """Load and restore a checkpoint of `model`; it must reproduce every parameter bitwise."""
    try:
        checkpoint = trainer.load_checkpoint(str(path))
        params, critic_table, config = trainer.restore_params(checkpoint, corpus)
    except QForageError as exc:
        return None, [f"checkpoint rejected: {exc}"]
    restored = Model(config, params, critic_table)
    same = params.temperature == model.params.temperature and all(
        _same_bits(a, b) for a, b in zip(param_arrays(restored), param_arrays(model))
    )
    return restored, [] if same else ["restored parameters differ"]


def evaluate_model(model: Model, corpus: env.Corpus) -> trainer.EvalMetrics:
    return trainer.evaluate(model.params, model.critic_table, corpus)


class Reference:
    """A fixed loop of small NumPy operations and Python arithmetic, the mix a
    training step makes. Its time tracks how fast the shared host runs now."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.rows = rng.standard_normal((200, 12))
        self.table = rng.standard_normal((4000, 12))

    def seconds(self) -> float:
        start = perf_counter()
        total = 0.0
        for row in self.rows:
            total += float(np.outer(row, row).trace()) + float(np.dot(row, row))
        for value in np.einsum("ij,ij->i", self.table, self.table)[:500]:
            total += value
        return perf_counter() - start


def slowdown(brackets: tuple[float, float]) -> float:
    """How much slower than the nominal host the reference passes ran."""
    return (brackets[0] + brackets[1]) / (2.0 * REFERENCE_S)


def repeat(minimum: int, deadline: float, step: Callable[[int], None]) -> None:
    """Call step(0), step(1), ... at least `minimum` times and until `deadline`."""
    rep = 0
    while rep < minimum or perf_counter() < deadline:
        step(rep)
        rep += 1


def quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"n": len(samples), "min": min(samples), "q1": q1, "median": median, "q3": q3,
            "max": max(samples)}


def training_seeds(seed: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(MODELS)]


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """One benchmark run; `workdir` holds the corpus and checkpoint files."""
    runner = _TracedRun if trace else _Run
    return runner(workload, seed, seconds, workdir).outcome()


class _Run:
    """Untraced run: the end-to-end metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.start = perf_counter()
        self.seconds = seconds
        self.gate = Gate()
        self.reference = Reference()
        self.samples: dict[str, list[float]] = {}
        self.unscaled: dict[str, list[float]] = {}
        self.operations: list[tuple] = []
        self.info: dict = {}
        self.corpus_path = workdir / "corpus.tsv"
        self.checkpoint_path = workdir / "checkpoint.txt"

    def deadline(self, share: float) -> float:
        return self.start + share * self.seconds

    def timed(self, operation: Callable[[], T]) -> tuple[T, float, tuple[float, float]]:
        """Run `operation` between two reference passes; return its value, its
        wall time, and the times of the passes before and after it."""
        before = self.reference.seconds()
        start = perf_counter()
        value = operation()
        seconds = perf_counter() - start
        return value, seconds, (before, self.reference.seconds())

    def sample(self, name: str, value: float, brackets: tuple[float, float]) -> None:
        """Record a measured value and its value scaled to the nominal host."""
        factor = slowdown(brackets)
        scaled = value / factor if UNITS[name] == "s" else value * factor
        self.samples.setdefault(name, []).append(scaled)
        self.unscaled.setdefault(name, []).append(value)
        self.operations.append((name, value, *brackets))

    def setup(self) -> None:
        def once(rep: int) -> None:
            (self.corpus, faults), seconds, brackets = self.timed(
                lambda: setup_corpus(self.workload, self.seed, self.corpus_path)
            )
            self.gate.record("setup", faults)
            self.sample("setup_s", seconds, brackets)

        repeat(3, self.deadline(SETUP_END), once)
        self.info["vocabulary"] = len(self.corpus.vocabulary)
        self.info["documents"] = len(self.corpus.documents)

    def train(self) -> None:
        seeds = training_seeds(self.seed)
        self.models: list[Model] = []
        first: list[trainer.TrainResult] = []

        def once(rep: int) -> None:
            index = rep if rep < MODELS else 0
            (model, result), seconds, brackets = self.timed(
                lambda: train_model(self.workload, self.corpus, seeds[index])
            )
            faults = param_faults(model)
            if rep < MODELS:
                self.models.append(model)
                first.append(result)
            elif not same_checkpoint(result.checkpoint, first[0].checkpoint):
                faults.append("repeat training gave a different checkpoint")
            self.last_repeat = result
            self.gate.record("train", faults)
            self.sample("train_steps_per_s", len(result.rewards) / seconds, brackets)

        repeat(MODELS + 1, self.deadline(TRAIN_END), once)
        self.info["checkpoint_sha256"] = self.train_file_sha(first[0], "train")
        repeat_sha = self.train_file_sha(self.last_repeat, "repeat")
        self.gate.record(
            "repeat checkpoint bytes",
            [] if repeat_sha == self.info["checkpoint_sha256"] else ["checkpoint bytes differ"],
        )
        self.info["training_seeds"] = seeds

    def train_file_sha(self, result: trainer.TrainResult, label: str) -> str:
        """SHA-256 of the checkpoint file `qforage train` would write for this result."""
        path = self.workdir / f"{label}-checkpoint.txt"
        trainer.save_checkpoint(result.checkpoint, str(path))
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def checkpoint(self) -> None:
        self.restored: dict[int, Model] = {}

        def once(rep: int) -> None:
            model = self.models[rep % MODELS]
            _, seconds, brackets = self.timed(lambda: save_model(model, self.checkpoint_path))
            self.sample("ckpt_save_s", seconds, brackets)
            (restored, faults), seconds, brackets = self.timed(
                lambda: load_model(self.checkpoint_path, model, self.corpus)
            )
            self.gate.record("checkpoint", faults)
            if restored is not None:
                self.sample("ckpt_load_s", seconds, brackets)
                self.restored.setdefault(rep % MODELS, restored)

        repeat(MODELS, self.deadline(CKPT_END), once)

    def evaluate(self) -> None:
        trained: list[trainer.EvalMetrics] = []

        def once(rep: int) -> None:
            index = rep % MODELS
            if rep < MODELS:
                model = self.models[index]
            elif index in self.restored:
                model = self.restored[index]
            else:
                return
            metrics, seconds, brackets = self.timed(lambda: evaluate_model(model, self.corpus))
            if rep < MODELS:
                trained.append(metrics)
            faults = [] if metrics.choices == trained[index].choices else [
                "restored parameters choose differently"
            ]
            self.gate.record("evaluate", faults)
            self.sample("eval_docs_per_s", len(self.corpus.documents) / seconds, brackets)

        repeat(MODELS + 1, self.deadline(1.0), once)
        accuracies = [m.greedy_accuracy for m in trained]
        self.info["greedy_accuracy_per_model"] = accuracies
        self.greedy_accuracy = float(np.mean(accuracies))

    def metrics(self) -> dict[str, tuple[float, str]]:
        metrics = {name: (statistics.median(self.samples[name]), unit) for name, unit in UNITS.items()}
        metrics["greedy_accuracy"] = (self.greedy_accuracy, "fraction")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
        return metrics

    def outcome(self) -> Outcome:
        self.setup()
        self.train()
        self.checkpoint()
        self.evaluate()
        metrics = self.metrics()
        self.info["samples"] = {name: quartiles(v) for name, v in self.samples.items()}
        self.info["unscaled_samples"] = {name: quartiles(v) for name, v in self.unscaled.items()}
        self.info["operations"] = self.operations
        self.info["run_s"] = perf_counter() - self.start
        self.info["faults"] = self.gate.faults
        result = {
            "correct": self.gate.failed == 0,
            "attempted": self.gate.attempted,
            "failed": self.gate.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
        return Outcome(result, self.info, self.spans())

    def spans(self) -> dict:
        return {}


class _TracedRun(_Run):
    """Traced run: the same operations with every site wrapped; per-layer metrics.

    Training alternates untraced and traced calls on the first training seed;
    each traced checkpoint must equal the untraced one, and the ratio of their
    median step rates is the tracing overhead.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.tracers = {phase: Tracer() for phase in ("setup", "train", "ckpt", "eval")}
        self.rates: dict[str, list[float]] = {}

    def traced(self, phase: str):
        return self.tracers[phase].installed(SITES)

    def setup(self) -> None:
        def once(rep: int) -> None:
            with self.traced("setup"):
                self.corpus, faults = setup_corpus(self.workload, self.seed, self.corpus_path)
            self.gate.record("setup", faults)

        repeat(3, self.deadline(SETUP_END), once)

    def train(self) -> None:
        seed = training_seeds(self.seed)[0]
        untraced: list[trainer.TrainResult] = []
        self.traced_steps = 0

        def once(rep: int) -> None:
            label = "traced" if rep % 2 else "untraced"
            with self.traced("train") if rep % 2 else contextlib.nullcontext():
                (model, result), seconds, brackets = self.timed(
                    lambda: train_model(self.workload, self.corpus, seed)
                )
            if not untraced:
                untraced.append(result)
            faults = param_faults(model)
            if not same_checkpoint(result.checkpoint, untraced[0].checkpoint):
                faults.append(f"{label} training gave a different checkpoint")
            self.gate.record("train", faults)
            rate = len(result.rewards) / seconds * slowdown(brackets)
            self.rates.setdefault(label, []).append(rate)
            if rep % 2:
                self.traced_steps += len(result.rewards)
                self.model, self.last_traced = model, result

        repeat(4, self.deadline(TRAIN_END), once)
        untraced_sha = self.train_file_sha(untraced[0], "untraced")
        traced_sha = self.train_file_sha(self.last_traced, "traced")
        self.gate.record(
            "traced checkpoint bytes", [] if traced_sha == untraced_sha else ["checkpoint bytes differ"]
        )
        self.info["checkpoint_sha256"] = untraced_sha

    def checkpoint(self) -> None:
        def once(rep: int) -> None:
            with self.traced("ckpt"):
                save_model(self.model, self.checkpoint_path)
                restored, faults = load_model(self.checkpoint_path, self.model, self.corpus)
            self.gate.record("checkpoint", faults)
            if restored is not None:
                self.restored = restored

        repeat(3, self.deadline(CKPT_END), once)

    def evaluate(self) -> None:
        self.evaluated_docs = 0

        def once(rep: int) -> None:
            with self.traced("eval"):
                metrics = evaluate_model(self.model, self.corpus)
                again = evaluate_model(self.restored, self.corpus)
            self.evaluated_docs += 2 * len(self.corpus.documents)
            faults = [] if again.choices == metrics.choices else [
                "restored parameters choose differently"
            ]
            self.gate.record("evaluate", faults)

        repeat(1, self.deadline(1.0), once)

    def spans(self) -> dict:
        """Spans per phase as [name index, start ns, end ns, parent index]."""
        names = sorted({span[0] for tracer in self.tracers.values() for span in tracer.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "phases": {
                phase: [[index[name], round(start * 1e9), round(end * 1e9), parent]
                        for name, start, end, parent in tracer.spans]
                for phase, tracer in self.tracers.items()
            },
        }

    def metrics(self) -> dict[str, tuple[float, str]]:
        train = self.tracers["train"]
        own = train.self_times()
        steps = self.traced_steps
        metrics: dict[str, tuple[float, str]] = {}
        for name in TRAIN_SITES:
            metrics[f"{name}.calls_per_step"] = (len(own.get(name, ())) / steps, "calls/step")
            metrics[f"{name}.self_us_per_step"] = (1e6 * sum(own.get(name, ())) / steps, "us/step")
        for name in ("actor.actor_gradients", "critic.critic_loss_and_gradients"):
            calls = len(own.get(name, ()))
            metrics[f"{name}.grad_bytes_per_call"] = (
                train.returned_bytes[name] / calls if calls else 0.0,
                "B/call",
            )
        for name in ("qrep.AmplitudeTable.renormalize", "critic.ComplexEmbeddingTable.renormalize"):
            compared = train.rows_compared[name]
            metrics[f"{name}.rows_changed_ratio"] = (
                train.rows_changed[name] / compared if compared else 0.0,
                "fraction",
            )
        own = self.tracers["eval"].self_times()
        for name in EVAL_SITES:
            metrics[f"{name}.self_us_per_doc"] = (
                1e6 * sum(own.get(name, ())) / self.evaluated_docs,
                "us/doc",
            )
        for phase, names in (("setup", SETUP_SITES), ("ckpt", CKPT_SITES)):
            own = self.tracers[phase].self_times()
            for name in names:
                metrics[f"{name}.s"] = (statistics.median(own[name]) if own.get(name) else 0.0, "s")
        metrics["trace.overhead_ratio"] = (
            statistics.median(self.rates["untraced"]) / statistics.median(self.rates["traced"]),
            "ratio",
        )
        return metrics


def peak_rss_mb() -> float:
    """Peak resident set of this process; Linux reports ru_maxrss in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
