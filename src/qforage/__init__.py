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
    errors      the exception types, all derived from QForageError
    seeding     named random streams derived from one root seed

The root exports these modules and nothing else: import each routine from its
module, as in `from qforage import trainer` and then `trainer.train(...)`.
"""

from . import actor, checkpoint, cli, critic, env, errors, oracles, qcore, qrep, seeding, trainer

__version__ = "0.1.0"

__all__ = [
    "actor", "checkpoint", "cli", "critic", "env", "errors",
    "oracles", "qcore", "qrep", "seeding", "trainer", "__version__",
]
