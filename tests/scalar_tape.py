"""Reverse-mode automatic differentiation on a scalar tape: the tape the
library trained on before its array tape, kept as the tests' gradient
oracle (tests/scalar_model.py builds the per-word ELBO on it).

A Tape is an append-only record of scalar operations stored as three
parallel lists (value, parent indices, local partials).  Appending keeps
nodes in topological order, so the backward pass is a single reverse sweep.
Nodes may have any number of parents; fused multi-parent ops (linear_layer,
softmax3, logsumexp, weighted_sum) keep the node count down.

Var is a lightweight handle (tape, index) with operator sugar.  Values are
plain Python floats throughout.
"""

from __future__ import annotations

import math
from typing import Sequence

from lexifuse.errors import NumericError, UsageError


class Tape:
    __slots__ = ("values", "parents", "partials")

    def __init__(self) -> None:
        self.values: list[float] = []
        self.parents: list[tuple[int, ...]] = []
        self.partials: list[tuple[float, ...]] = []

    def __len__(self) -> int:
        return len(self.values)

    def _push(self, value: float, parents: tuple[int, ...], partials: tuple[float, ...]) -> "Var":
        idx = len(self.values)
        self.values.append(value)
        self.parents.append(parents)
        self.partials.append(partials)
        return Var(self, idx)

    def leaf(self, value: float) -> "Var":
        """A differentiable input node (no parents)."""
        return self._push(float(value), (), ())

    def backward(self, root: "Var") -> list[float]:
        """Adjoints of every node w.r.t. the scalar at `root`.

        Nodes appended after the root cannot influence it and are skipped.
        """
        if not isinstance(root, Var) or root.tape is not self:
            raise UsageError("backward: root is not a node of this tape")
        if not 0 <= root.idx < len(self.values):
            raise UsageError(f"backward: node index {root.idx} out of range")
        adj = [0.0] * len(self.values)
        adj[root.idx] = 1.0
        parents = self.parents
        partials = self.partials
        for i in range(root.idx, -1, -1):
            a = adj[i]
            if a == 0.0:
                continue
            ps = parents[i]
            if not ps:
                continue
            for p, d in zip(ps, partials[i]):
                adj[p] += a * d
        return adj


class Var:
    __slots__ = ("tape", "idx")

    def __init__(self, tape: Tape, idx: int) -> None:
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> float:
        return self.tape.values[self.idx]

    def __repr__(self) -> str:
        return f"Var({self.value!r})"

    def _lift(self, other) -> "Var | None":
        if isinstance(other, Var):
            if other.tape is not self.tape:
                raise UsageError("cannot combine nodes from different tapes")
            return other
        return None

    def __add__(self, other):
        o = self._lift(other)
        t = self.tape
        if o is None:
            return t._push(self.value + float(other), (self.idx,), (1.0,))
        return t._push(self.value + o.value, (self.idx, o.idx), (1.0, 1.0))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        t = self.tape
        if o is None:
            return t._push(self.value - float(other), (self.idx,), (1.0,))
        return t._push(self.value - o.value, (self.idx, o.idx), (1.0, -1.0))

    def __rsub__(self, other):
        return self.tape._push(float(other) - self.value, (self.idx,), (-1.0,))

    def __mul__(self, other):
        o = self._lift(other)
        t = self.tape
        if o is None:
            c = float(other)
            return t._push(self.value * c, (self.idx,), (c,))
        return t._push(self.value * o.value, (self.idx, o.idx), (o.value, self.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        t = self.tape
        if o is None:
            c = float(other)
            return t._push(self.value / c, (self.idx,), (1.0 / c,))
        ov = o.value
        return t._push(self.value / ov, (self.idx, o.idx), (1.0 / ov, -self.value / (ov * ov)))

    def __rtruediv__(self, other):
        c = float(other)
        v = self.value
        return self.tape._push(c / v, (self.idx,), (-c / (v * v),))

    def __neg__(self):
        return self.tape._push(-self.value, (self.idx,), (-1.0,))


def log(x: Var) -> Var:
    v = x.value
    if v <= 0.0:
        raise NumericError(f"log of nonpositive value {v!r}")
    return x.tape._push(math.log(v), (x.idx,), (1.0 / v,))


def tanh(x: Var) -> Var:
    t = math.tanh(x.value)
    return x.tape._push(t, (x.idx,), (1.0 - t * t,))


def _sigmoid_f(v: float) -> float:
    if v >= 0.0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def sigmoid(x: Var) -> Var:
    s = _sigmoid_f(x.value)
    return x.tape._push(s, (x.idx,), (s * (1.0 - s),))


def softplus(x: Var) -> Var:
    v = x.value
    # max(v, 0) + log1p(exp(-|v|)) is overflow-safe on both sides
    val = max(v, 0.0) + math.log1p(math.exp(-abs(v)))
    return x.tape._push(val, (x.idx,), (_sigmoid_f(v),))


def clamp(x: Var, lo: float, hi: float) -> Var:
    """Identity inside [lo, hi]; gradient is zero where the clamp is active."""
    v = x.value
    if v < lo:
        return x.tape._push(lo, (x.idx,), (0.0,))
    if v > hi:
        return x.tape._push(hi, (x.idx,), (0.0,))
    return x.tape._push(v, (x.idx,), (1.0,))


def vsum(xs: Sequence[Var]) -> Var:
    """Sum of many nodes as a single fused node."""
    if not xs:
        raise UsageError("vsum of empty sequence")
    t = xs[0].tape
    return t._push(
        sum(x.value for x in xs),
        tuple(x.idx for x in xs),
        (1.0,) * len(xs),
    )


def weighted_sum(xs: Sequence[Var], coeffs: Sequence[float], const: float = 0.0) -> Var:
    """const + sum_i coeffs[i] * xs[i] as a single fused node."""
    if not xs or len(xs) != len(coeffs):
        raise UsageError("weighted_sum needs equally many nodes and coefficients")
    t = xs[0].tape
    cs = tuple(float(c) for c in coeffs)
    val = const + sum(c * x.value for c, x in zip(cs, xs))
    return t._push(val, tuple(x.idx for x in xs), cs)


def linear_layer(
    weight_rows: Sequence[Sequence[Var]],
    xs: Sequence,
    biases: Sequence[Var],
) -> list[Var]:
    """Affine layer out[i] = sum_j W[i][j] * xs[j] + b[i], one fused node per row.

    xs entries may be floats (constant inputs, e.g. observed labels) or Vars
    (e.g. a latent sample); the two cases record different parent sets.
    """
    if len(weight_rows) != len(biases):
        raise UsageError("linear_layer: weight row count differs from bias count")
    t = biases[0].tape
    out: list[Var] = []
    if xs and isinstance(xs[0], Var):
        xidx = tuple(x.idx for x in xs)
        xval = tuple(x.value for x in xs)
        for row, b in zip(weight_rows, biases):
            if len(row) != len(xs):
                raise UsageError("linear_layer: weight row length differs from input length")
            wval = tuple(w.value for w in row)
            val = sum(wv * xv for wv, xv in zip(wval, xval)) + b.value
            parents = tuple(w.idx for w in row) + xidx + (b.idx,)
            out.append(t._push(val, parents, xval + wval + (1.0,)))
    else:
        xval = tuple(float(x) for x in xs)
        shared = xval + (1.0,)  # identical partials for every row
        for row, b in zip(weight_rows, biases):
            if len(row) != len(xval):
                raise UsageError("linear_layer: weight row length differs from input length")
            val = sum(w.value * xv for w, xv in zip(row, xval)) + b.value
            parents = tuple(w.idx for w in row) + (b.idx,)
            out.append(t._push(val, parents, shared))
    return out


def softmax3(a: Var, b: Var, c: Var) -> tuple[Var, Var, Var]:
    """Three-way softmax; each output is one fused node over all three inputs."""
    t = a.tape
    if b.tape is not t or c.tape is not t:
        raise UsageError("softmax3 inputs must share a tape")
    va, vb, vc = a.value, b.value, c.value
    m = max(va, vb, vc)
    ea, eb, ec = math.exp(va - m), math.exp(vb - m), math.exp(vc - m)
    s = ea + eb + ec
    pa, pb, pc = ea / s, eb / s, ec / s
    parents = (a.idx, b.idx, c.idx)
    oa = t._push(pa, parents, (pa * (1.0 - pa), -pa * pb, -pa * pc))
    ob = t._push(pb, parents, (-pb * pa, pb * (1.0 - pb), -pb * pc))
    oc = t._push(pc, parents, (-pc * pa, -pc * pb, pc * (1.0 - pc)))
    return oa, ob, oc


def logsumexp(xs: Sequence[Var]) -> Var:
    """log sum exp as a single fused node; partials are the softmax weights."""
    if not xs:
        raise UsageError("logsumexp of empty sequence")
    t = xs[0].tape
    vals = [x.value for x in xs]
    m = max(vals)
    es = [math.exp(v - m) for v in vals]
    s = sum(es)
    return t._push(m + math.log(s), tuple(x.idx for x in xs), tuple(e / s for e in es))
