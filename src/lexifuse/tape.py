"""The backward pass of one minibatch's ELBO.

The objective is one fixed graph per batch (model.elbo_batch): each view's
encoder over the rows it covers, beta = 1 + the omegas added at those rows,
the Dirichlet KL against the prior, and per Monte Carlo sample one Dirichlet
draw z, each view's decoder at its rows of z and that view's emission
log-likelihood; the total is the mean over samples of the emissions minus
the KL.  Each layer returns its value with its own chain rule: a
vector-Jacobian product (VJP), a function from the adjoint of the layer's
output to the adjoints of its inputs, or for a layer that reduces each row
to one number, the per-row Jacobian.  elbo_batch records them on a Tape,
and Tape.backward replays them in the graph's one reverse order.

A batch of V views and n_mc samples is V + 3 + n_mc (1 + 2 V) layers, 28
for one sample of 8 views: the encoders, beta, the KL and the total, and
per sample the draw and each view's decoder and emission.  A VJP closes
over arrays only, so a tape is freed as soon as the last reference to it
goes, without waiting for the cycle collector.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class Tape:
    """One batch's layers in forward order: `sizes`, each head's parameter
    count keyed by ("enc" or "dec", view id) in params order; `encoders`, per
    view (head key, the batch rows it covers, its VJP); `kl`, the KL's
    (n, 3) Jacobian; and `samples`, per sample (the draw's VJP, per view
    (head key, decoder VJP, emission Jacobian))."""

    __slots__ = ("sizes", "encoders", "kl", "samples")

    def __init__(self, sizes: dict[tuple[str, str], int]) -> None:
        self.sizes = sizes
        self.encoders: list[tuple[tuple[str, str], np.ndarray, Callable]] = []
        self.kl: np.ndarray | None = None
        self.samples: list[tuple[Callable, list[tuple[tuple[str, str], Callable, np.ndarray]]]] = []

    def __len__(self) -> int:
        return len(self.encoders) + 3 + sum(1 + 2 * len(views) for _, views in self.samples)

    def backward(self) -> np.ndarray:
        """The total's gradient, flat in params order, with zeros for a head
        no layer used.  Adjoints add up in reverse forward order: z's over a
        sample's views, beta's over the samples and then the KL's, and a
        decoder head's over the samples."""
        grads: dict[tuple[str, str], np.ndarray] = {}
        scale = 1.0 / len(self.samples)
        g_beta = None
        for draw, views in reversed(self.samples):
            g_z = None
            for key, decode, jac in reversed(views):
                gz, g = decode(scale * jac)
                g_z = gz if g_z is None else g_z + gz
                grads[key] = grads[key] + g if key in grads else g
            g = draw(g_z)
            g_beta = g if g_beta is None else g_beta + g
        g_beta = g_beta - self.kl
        for key, rows, encode in reversed(self.encoders):
            grads[key] = encode(g_beta[rows])
        return np.concatenate([grads[key] if key in grads else np.zeros(size) for key, size in self.sizes.items()])
