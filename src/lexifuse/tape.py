"""Reverse-mode automatic differentiation on an array tape.

A Tape is an append-only record of structure: each node's parents and its
vector-Jacobian product (VJP), a function from the adjoint of the node's
value to the adjoints it sends each parent.  Appending keeps nodes in
topological order, so the backward pass is a single reverse sweep.  A node
is a whole layer over a batch (an encoder over every row a view covers, a
Dirichlet draw per word) whose VJP is the layer's own chain rule, and a layer
that reads or writes only some rows of its input does its own row
bookkeeping.  A minibatch ELBO over 8 views with one sample is 44 nodes: 16
head leaves, 8 encoders, beta, the KL, the draw, 8 decoders, 8 emissions and
the total.  A leaf is a node pushed with no parents.

Node is a handle (tape, index) that carries its value, an array.  A VJP
closes over arrays, never over nodes, so a tape is freed as soon as the last
handle to it goes, without waiting for the cycle collector.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import UsageError


class Tape:
    __slots__ = ("parents", "vjps")

    def __init__(self) -> None:
        self.parents: list[tuple[int, ...]] = []
        self.vjps: list[Callable | None] = []

    def __len__(self) -> int:
        return len(self.parents)

    def push(self, value, parents: Sequence["Node"], vjp: Callable | None) -> "Node":
        """Append a node; vjp(adjoint) returns one adjoint (or None) per parent."""
        for p in parents:
            if p.tape is not self:
                raise UsageError("cannot combine nodes from different tapes")
        self.parents.append(tuple([p.idx for p in parents]))
        self.vjps.append(vjp)
        return Node(self, len(self.parents) - 1, np.asarray(value, dtype=float))

    def backward(self, root: "Node") -> list[np.ndarray | None]:
        """Adjoints of every node w.r.t. the scalar at `root`; None for a node
        the root does not depend on.

        Nodes appended after the root cannot influence it and are skipped.
        """
        if not isinstance(root, Node) or root.tape is not self:
            raise UsageError("backward: root is not a node of this tape")
        if root.value.size != 1:
            raise UsageError(f"backward: root must be a scalar, has shape {root.value.shape}")
        adj: list[np.ndarray | None] = [None] * len(self.parents)
        adj[root.idx] = np.ones_like(root.value)
        for i in range(root.idx, -1, -1):
            g = adj[i]
            ps = self.parents[i]
            if g is None or not ps:
                continue
            for p, gp in zip(ps, self.vjps[i](g)):
                if gp is not None:
                    adj[p] = gp if adj[p] is None else adj[p] + gp
        return adj


class Node:
    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape: Tape, idx: int, value: np.ndarray) -> None:
        self.tape = tape
        self.idx = idx
        self.value = value


def rowwise(x: Node, value, jac) -> Node:
    """A node reducing each row of x (n, k) to one number: value (n,), jac (n, k)."""
    return x.tape.push(value, (x,), lambda g: (g[:, None] * jac,))

