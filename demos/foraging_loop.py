"""Run the full loop: generate a patchy corpus, train, evaluate, inspect scent.

A compact version of what the command-line `gen-corpus` + `train` + `eval`
pipeline does, kept small enough to finish in a couple of seconds.
"""

import numpy as np

from qforage import checkpoint, env, trainer

# A two-patch corpus: each document offers one matching, one partially
# matching, and one mismatching candidate query.
spec = env.CorpusSpec(docs=30, patches=2, vocab_size=60, candidates_per_doc=3)
corpus = env.gen_corpus(spec, np.random.default_rng(3))
doc = corpus.documents[0]
print("example document:", doc.doc_id, "patch:", doc.patch_id)
print("  text:", " ".join(doc.tokens))
for cand in doc.candidates:
    print(f"  [{cand.label:+d}]", " ".join(cand.tokens))

config = trainer.TrainConfig(episodes=800, eval_interval=200, seed=4)
result = trainer.train(config, corpus)
print()
print("episode  avg_reward  greedy  critic  scent")
for row in result.metrics:
    print(
        f"{row.episode:7d}  {row.avg_reward:+10.3f}  {row.greedy_accuracy:6.2f}"
        f"  {row.critic_accuracy:6.2f}  {row.scent_scalar:+.3f}"
    )

ev = trainer.evaluate(result.params, result.critic_table, corpus)
print()
print(f"greedy accuracy {ev.greedy_accuracy:.2f}, mean reward {ev.mean_reward:+.2f}")
print("reward frequencies (-1, 0, +1):", np.round(ev.scent.frequencies, 3))
for patch_id, patch in ev.scent.per_patch.items():
    print(f"  patch {patch_id}: scent {patch.scalar:+.3f} over {patch.count} docs")

# The same trained state round-trips through the text checkpoint format.
lines = checkpoint.checkpoint_lines(result.checkpoint)
print()
print("checkpoint:", lines[0], "-", len(lines), "lines")
