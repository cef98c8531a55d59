"""Reference minibatch order, kept in tests as the oracle for
data.minibatches: a fresh SeedSequence, Philox and Generator for every
(seed, epoch), and the epoch's permutation chunked into batches."""

import numpy as np


def reference_minibatches(n, batch, seed, epoch):
    perm = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 3, epoch]))
                               ).permutation(n)
    return [perm[i:i + batch] for i in range(0, n, batch)]
