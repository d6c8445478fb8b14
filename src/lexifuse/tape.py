"""Reverse-mode automatic differentiation on an array tape.

A Tape is an append-only record of structure: each node's parents and its
vector-Jacobian product (VJP), a function from the adjoint of the node's
value to the adjoints it sends each parent.  Appending keeps nodes in
topological order, so the backward pass is a single reverse sweep.  A node
is a whole layer over a batch (an encoder over every row a view covers, a
Dirichlet draw per word) whose VJP is the layer's own chain rule, so a
minibatch ELBO over 8 views is 52 nodes, 16 of them the heads' leaves.

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

    def leaf(self, value) -> "Node":
        """A differentiable input node (no parents); the value is copied."""
        return self.push(np.array(value, dtype=float), (), None)

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


def take(x: Node, rows: np.ndarray) -> Node:
    """The given rows of x, in that order."""
    xv = x.value

    def vjp(g):
        out = np.zeros_like(xv)
        np.add.at(out, rows, g)
        return (out,)

    return x.tape.push(xv[rows], (x,), vjp)


def scatter_rows(n: int, parts: Sequence[tuple[np.ndarray, Node]], base: float) -> Node:
    """base + the rows of each part added at its row indices, in part order: (n, k)."""
    if not parts:
        raise UsageError("scatter_rows needs at least one part")
    nodes = [node for _, node in parts]
    index = [rows for rows, _ in parts]
    out = np.full((n,) + nodes[0].value.shape[1:], base)
    for rows, node in parts:
        np.add.at(out, rows, node.value)
    return nodes[0].tape.push(out, nodes, lambda g: tuple(g[rows] for rows in index))
