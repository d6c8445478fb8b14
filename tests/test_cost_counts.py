"""Work counts that host load cannot blur: the incomplete-gamma evaluations
of one Gamma draw.

gamma_draws runs on a fixed 256x3 batch, the size of one training batch's
Dirichlet shapes, with special.gammainc_p and special.gammainc_p_da wrapped
in every lexifuse module that holds them.  Each wrapper counts its calls and
the elements each call gets.  The counts repeat exactly across runs and
processes, so they show a change in the work even where wall time cannot.
They are pinned as upper bounds: a change that lowers a count lowers its pin.
"""

import numpy as np

from lexifuse import distributions, special

# (calls, elements over all calls) per function, and elements over both:
# gammainc_p runs Halley round 1, gammainc_p_da rounds 2 and 3 and the dP/da
# of the shape-1 elements.
PINS = {"gammainc_p": (1, 760), "gammainc_p_da": (3, 772), "elements": 1532}


def batch():
    """Shapes in [1, 9] with eight at exactly 1.0, and uniforms that include
    both clipping ends, 1e-12 and 1 - 1e-12."""
    gen = np.random.default_rng(26)
    shape = 1.0 + 8.0 * gen.random((256, 3))
    shape[::32, 0] = 1.0
    u = gen.random((256, 3))
    u[1::32] = 1e-12
    u[2::32] = 1.0 - 1e-12
    return shape, u


def counted_draw(monkeypatch) -> dict[str, list[int]]:
    """The elements of each call of each wrapped function, in call order,
    over one gamma_draws on the batch."""
    sizes: dict[str, list[int]] = {name: [] for name in ("gammainc_p", "gammainc_p_da")}
    for name, seen in sizes.items():
        inner = getattr(special, name)

        def counted(a, x, *args, _inner=inner, _seen=seen, **kwargs):
            _seen.append(np.broadcast(np.asarray(a), np.asarray(x)).size)
            return _inner(a, x, *args, **kwargs)

        for module in (special, distributions):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    distributions.gamma_draws(*batch())
    monkeypatch.undo()
    return sizes


def test_incomplete_gamma_work_per_draw(monkeypatch):
    shape, u = batch()
    assert shape.min() == 1.0 and shape.max() <= 9.0
    assert u.min() == 1e-12 and u.max() == 1.0 - 1e-12
    sizes = counted_draw(monkeypatch)
    assert counted_draw(monkeypatch) == sizes  # the counts repeat exactly
    for name in ("gammainc_p", "gammainc_p_da"):
        calls, elements = PINS[name]
        assert len(sizes[name]) <= calls, sizes
        assert sum(sizes[name]) <= elements, sizes
    assert sum(map(sum, sizes.values())) <= PINS["elements"], sizes

