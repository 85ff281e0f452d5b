"""Scent statistics computed one reward at a time, the reference for env.reward_scent."""

import numpy as np


def reference_scent(rewards, patch_ids, smoothing):
    """(scalar, frequencies, count) overall and per patch, one reward at a time."""

    def summary(rs):
        s, freq = 0.0, np.zeros(3)
        for r in rs:
            s = smoothing * r + (1.0 - smoothing) * s
            freq[r + 1] += 1
        if rs:
            freq /= len(rs)
        return s, freq, len(rs)

    by_patch = {}
    for r, pid in zip(rewards, patch_ids):
        by_patch.setdefault(pid, []).append(r)
    return summary(rewards), {pid: summary(rs) for pid, rs in by_patch.items()}
