"""Judge (keywords, candidate) pairs with density matrices over complex rows.

Trains the judge on a handful of labeled pairs where "not" flips the
meaning, then compares the class distributions it assigns to the straight
and negated readings of the same sentence.
"""

import numpy as np

from qforage import critic

rng = np.random.default_rng(31)
vocabulary = ("cats", "chase", "do", "dogs", "not")
table = critic.ComplexEmbeddingTable.from_vocab(vocabulary, embed_dim=12, rng=rng)

keywords = ["dogs", "chase", "cats"]
straight = ["dogs", "chase", "cats"]
negated = ["dogs", "do", "not", "chase", "cats"]

# Labeled experience: the straight reading matches (+1), the negated one
# contradicts (-1). Class indices run (mismatch, neutral, match) = (0, 1, 2).
lessons = [
    (keywords + straight, 2),
    (keywords + negated, 0),
]

for step in range(200):
    for tokens, label in lessons:
        loss, _, rows, amplitude_grad, salience_grad = critic.critic_loss_and_gradients(
            critic.token_ids(tokens, table), label, table
        )
        # Only the judged words' rows have gradients; phases have none.
        table.descend(rows, 0.3, amplitude_grad, salience_grad)
    if step % 50 == 0:
        print(f"step {step:3d}  loss on last pair: {loss:.4f}")

for name, candidate in (("straight", straight), ("negated ", negated)):
    p = critic.measure_classes(critic.critic_density(keywords, candidate, table))
    q = critic.q_value(p)
    print(
        f"{name}: p(mismatch)={p[0]:.3f} p(neutral)={p[1]:.3f} "
        f"p(match)={p[2]:.3f}  q={q:+.3f}"
    )

# The density matrices themselves differ: negation pushes interference
# terms around even though the bag of shared words overlaps heavily.
rho_a = critic.critic_density(keywords, straight, table).matrix
rho_b = critic.critic_density(keywords, negated, table).matrix
print("Frobenius distance between the two densities:",
      np.linalg.norm(rho_a - rho_b))
