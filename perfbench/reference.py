"""Reference process: fixed work that measures how fast the host runs now.

    python3 perfbench/reference.py

A fresh interpreter imports numpy and runs the kinds of work the program
does, none of it through the program's code: sigmoid steps on small
matrices (a DAE or MLR step on `deep_narrow`), softmax regression steps and
products at `mnist784`'s width, and an interpreter loop. run.py runs it
before every cycle and scales that cycle's CPU times by its own, so that a
cycle on a slow stretch of a shared host reads the same as one on a fast
stretch.
"""

import numpy as np

rng = np.random.default_rng(0)

x = rng.standard_normal((300, 100))
w = rng.standard_normal((100, 40)) * 0.1
for _ in range(150):
    h = 1.0 / (1.0 + np.exp(-(x @ w)))
    w -= 0.001 * (x.T @ (h * (1.0 - h)))

wide = rng.standard_normal((300, 784))
classes = rng.standard_normal((784, 10)) * 0.05
for _ in range(60):
    z = wide @ classes
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    classes -= 0.001 * (wide.T @ p)
hidden = rng.standard_normal((784, 100)) * 0.05
for _ in range(10):
    np.tanh(wide @ hidden)

table: dict[int, float] = {}
for i in range(60_000):
    table[i % 97] = table.get(i % 97, 0.0) + len(str(i))
