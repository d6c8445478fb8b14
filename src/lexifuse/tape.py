"""Reverse-mode automatic differentiation on an array tape.

A Tape is an append-only record of array operations stored as three
parallel lists: each node's value (an ndarray), its parent nodes, and its
vector-Jacobian product (VJP), a function from the adjoint of the node's
value to the adjoints it sends each parent.  Appending keeps nodes in
topological order, so the backward pass is a single reverse sweep.  One
node covers a whole batch (an encoder layer over every row a view has, a
Dirichlet draw per word), so a minibatch ELBO is a few hundred nodes.

Node is a lightweight handle (tape, index); its value is the array.  A
VJP closes over arrays, never over nodes, so a tape is freed as soon as the
last handle to it goes, without waiting for the cycle collector.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import UsageError


class Tape:
    __slots__ = ("values", "parents", "vjps")

    def __init__(self) -> None:
        self.values: list[np.ndarray] = []
        self.parents: list[tuple[int, ...]] = []
        self.vjps: list[Callable | None] = []

    def __len__(self) -> int:
        return len(self.values)

    def push(self, value, parents: Sequence["Node"], vjp: Callable | None) -> "Node":
        """Append a node; vjp(adjoint) returns one adjoint (or None) per parent."""
        for p in parents:
            if p.tape is not self:
                raise UsageError("cannot combine nodes from different tapes")
        self.values.append(np.asarray(value, dtype=float))
        self.parents.append(tuple(p.idx for p in parents))
        self.vjps.append(vjp)
        return Node(self, len(self.values) - 1)

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
        if not 0 <= root.idx < len(self.values):
            raise UsageError(f"backward: node index {root.idx} out of range")
        if root.value.size != 1:
            raise UsageError(f"backward: root must be a scalar, has shape {root.value.shape}")
        adj: list[np.ndarray | None] = [None] * len(self.values)
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
    __slots__ = ("tape", "idx")

    def __init__(self, tape: Tape, idx: int) -> None:
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> np.ndarray:
        return self.tape.values[self.idx]

    def __repr__(self) -> str:
        return f"Node({self.value!r})"


def pointwise(x: Node, value, slope) -> Node:
    """A node applying an elementwise function to x: value f(x), slope f'(x)."""
    return x.tape.push(value, (x,), lambda g: (g * slope,))


def rowwise(x: Node, value, jac) -> Node:
    """A node reducing each row of x (n, k) to one number: value (n,), jac (n, k)."""
    return x.tape.push(value, (x,), lambda g: (g[:, None] * jac,))


def tanh(x: Node) -> Node:
    """tanh of x; its VJP forms the slope 1 - t^2, so a forward-only tape keeps none."""
    t = np.tanh(x.value)
    return x.tape.push(t, (x,), lambda g: (g * (1.0 - t * t),))


def affine(x, w: Node, b: Node) -> Node:
    """x @ w.T + b over the rows of x, which is a Node or a constant array."""
    wv = w.value
    node_input = isinstance(x, Node)
    xv = x.value if node_input else np.asarray(x, dtype=float)
    if xv.ndim != 2 or xv.shape[1] != wv.shape[1]:
        raise UsageError(f"affine: rows of width {wv.shape[1]} expected, got shape {xv.shape}")

    def vjp(g):
        grads = (g.T @ xv, g.sum(axis=0))
        return ((g @ wv,) + grads) if node_input else grads

    return w.tape.push(xv @ wv.T + b.value, (x, w, b) if node_input else (w, b), vjp)


def softmax(x: Node) -> Node:
    """Softmax over each row of x."""
    raw = x.value
    with np.errstate(invalid="ignore"):  # inf - inf: a non-finite row stays nan
        e = np.exp(raw - raw.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    return x.tape.push(s, (x,), lambda g: (s * (g - (g * s).sum(axis=1, keepdims=True)),))


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
