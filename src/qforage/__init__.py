"""Quantum-inspired query foraging: tensor-product actor, Born-rule critic.

Queries become tensor products of per-word amplitude vectors and are scored
against a low-rank factored semantic space without ever materializing the
exponential product space. A critic embeds (document keywords, chosen query)
pairs as complex amplitude mixtures and judges them by measuring a
three-outcome observable whose eigenvalues are the rewards -1, 0, +1. An
actor-critic loop trains both against a patchy synthetic corpus.

Modules
    qcore       Hilbert-space primitives: tensor products, densities, measurements
    qrep        word amplitude tables, query states, the factored global space, CP fitting
    actor       softmax policy over candidate queries and its exact gradients
    critic      complex word embeddings, density construction, class measurement
    env         corpus format, synthetic generator, bandit/session environment, scent
    trainer     the training loop and evaluation; binds checkpoints to a config and a corpus
    checkpoint  the checkpoint file: its v3 writer and its v3, v2 and v1 loader
    oracles     self-checks comparing independent computations of the same quantity
    cli         command-line entry points (gen-corpus, train, eval, inspect, oracle)
"""

from . import actor, checkpoint, cli, critic, env, oracles, qcore, qrep, trainer
from .actor import ActorParams, act, actor_forward, actor_gradients, select_action
from .checkpoint import load_checkpoint, save_checkpoint
from .critic import (
    ComplexEmbeddingTable,
    class_probabilities,
    critic_density,
    critic_loss_and_gradients,
    measure_classes,
    q_value,
)
from .env import (
    Corpus,
    CorpusSpec,
    Environment,
    gen_corpus,
    load_corpus,
    save_corpus,
)
from .errors import QForageError
from .qcore import DensityMatrix, Observable, born_probability, build_density, collapse_sample, tensor_product
from .qrep import AmplitudeTable, GlobalRepresentation, QueryState, cp_decompose, embed_query, project
from .seeding import stream_rng, stream_seed
from .trainer import TrainConfig, evaluate, restore_params, train

__version__ = "0.1.0"

__all__ = [
    "ActorParams",
    "AmplitudeTable",
    "ComplexEmbeddingTable",
    "Corpus",
    "CorpusSpec",
    "DensityMatrix",
    "Environment",
    "GlobalRepresentation",
    "Observable",
    "QForageError",
    "QueryState",
    "TrainConfig",
    "act",
    "actor",
    "actor_forward",
    "actor_gradients",
    "born_probability",
    "build_density",
    "checkpoint",
    "class_probabilities",
    "cli",
    "collapse_sample",
    "cp_decompose",
    "critic",
    "critic_density",
    "critic_loss_and_gradients",
    "embed_query",
    "env",
    "evaluate",
    "gen_corpus",
    "load_checkpoint",
    "load_corpus",
    "measure_classes",
    "oracles",
    "project",
    "q_value",
    "qcore",
    "qrep",
    "restore_params",
    "save_checkpoint",
    "save_corpus",
    "select_action",
    "stream_rng",
    "stream_seed",
    "tensor_product",
    "train",
    "trainer",
    "__version__",
]
