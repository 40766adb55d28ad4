"""A tour of the autodiff core: build a graph, run backward, check gradients.

Run from the repository root: python3 demos/01_autodiff_basics.py
"""

import numpy as np

from spanqa import autodiff as ad

# %%
# Tensors detached from any graph are plain values; ops on them just compute.

x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
w = ad.Tensor([[5.0, 6.0], [7.0, 8.0]])
# a span head, one logit per row: relu(x @ w^T + b1) @ w2^T; the relu
# zeroes the second hidden unit of the first row (7 + 16 - 25 < 0)
print("head relu(x @ w^T + b1) @ w2^T:\n", ad.head([x], w, [0.5, -25.0], [[1.0, -1.0]]).data)

# %%
# For gradients, register leaves on a Graph: every leaf is trainable, and a
# constant stays a plain array or detached Tensor. The tape records every op
# in topological order, so backward is a single reverse sweep. It starts from
# a scalar root, or from a root of any shape and a cotangent of that shape:
# the gradient of sum(cotangent * root), here a sum of squares.

graph = ad.Graph()
x = graph.leaf([1.0, 2.0, 3.0])
grads = graph.backward(ad.mul(x, x), np.ones(3))
print("d/dx sum(x^2) at [1,2,3]:", grads[x.node_id])  # 2x

# %%
# Sequences run packed: a Packing of a prefix mask lists the live positions
# of every row, and ops read one row per live position. masked_softmax takes
# such packed (N, 1) logits and returns each row's softmax as a plain padded
# array, recorded on no tape, with padding at probability exactly zero.

packing = ad.Packing([[1, 1, 1, 0], [1, 1, 0, 0]])
# packed position by position, longest row first: rows [2, 1, -3] and [0.5, -1]
logits = np.array([[2.0], [0.5], [1.0], [-1.0], [-3.0]])
probs = ad.masked_softmax(logits, packing)
print("masked softmax:\n", probs, "\nrow sums:", probs.sum(axis=1))

# %%
# grad_check compares backprop against central finite differences at a
# fixed step, re-probing ten times narrower where a kink lies within it; a
# cotangent probes a non-scalar output along it, here the sum of the logits.

err = ad.grad_check(lambda t: ad.head([t], w, [0.5, -0.5], [[1.0, -1.0]]),
                    np.random.default_rng(0).normal(size=(3, 2)), cotangent=np.ones((3, 1)))
print(f"head gradcheck worst relative error: {err:.2e}")
