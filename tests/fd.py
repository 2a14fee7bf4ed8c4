"""Central finite differences: the ground truth for every hand-written backward."""

import numpy as np


def grad_check(run, inputs, weight, params=(), step=1e-5, tol=1e-7):
    """Compare ``run``'s backward with central differences of sum(out * weight).

    ``run(*inputs)`` returns a tuple whose first item is the output and whose
    last is ``backward``. ``backward(weight)`` runs once and returns one
    gradient per input: an array, a tuple of them, or a float for a
    1-element input. Gradients of ``params`` are read from ``p.grad``, which
    is reset once before and left holding the analytic gradient after. Every
    coordinate of every input and parameter value is moved by +-step in
    place, and each moved loss runs the forward only. Everything must be
    float64. The relative error has a 1e-6 floor on its denominator, so
    exactly-zero gradients compare by absolute difference. Returns the
    largest relative error; an error above ``tol`` fails an assertion.
    """
    arrays = list(inputs) + [p.value for p in params]
    names = [f"input {i}" for i in range(len(inputs))] + [p.name for p in params]
    for name, a in zip(names, arrays):
        assert a.dtype == np.float64, f"grad_check needs float64; {name} is {a.dtype}"

    def loss(result):
        return float((result[0] * weight).sum())

    def where(name, a, j):
        return f"{name}{[int(i) for i in np.unravel_index(j, a.shape)]}"

    for p in params:
        p.grad = None
    result = run(*inputs)
    loss0 = loss(result)
    assert np.isfinite(loss0), f"non-finite loss {loss0}"
    grads = result[-1](weight)
    grads = list(grads) if isinstance(grads, tuple) else [grads]
    assert len(grads) == len(inputs), f"{len(grads)} gradients for {len(inputs)} inputs"
    grads += [np.zeros_like(p.value) if p.grad is None else p.grad for p in params]

    worst, at = 0.0, ""
    for name, a, g in zip(names, arrays, grads):
        g = np.asarray(g, dtype=np.float64)
        if g.size == a.size == 1:
            g = g.reshape(a.shape)
        assert g.shape == a.shape, f"gradient of {name} has shape {g.shape}, not {a.shape}"
        assert np.all(np.isfinite(g)), f"non-finite analytic gradient of {name}"
        for j in range(a.size):
            orig = a.flat[j]
            a.flat[j] = orig + step
            lp = loss(run(*inputs))
            a.flat[j] = orig - step
            lm = loss(run(*inputs))
            a.flat[j] = orig
            assert np.isfinite(lp + lm), f"non-finite loss while moving {where(name, a, j)}"
            fd = (lp - lm) / (2.0 * step)
            rel = abs(g.flat[j] - fd) / max(abs(g.flat[j]), abs(fd), 1e-6)
            if rel > worst:
                worst, at = rel, where(name, a, j)
    assert worst <= tol, f"{at}: relative error {worst:.3e} > {tol:.0e}"
    return worst


def wave(shape, fn=np.cos):
    """A fixed, non-random loss weight: fn(0), fn(1), ... in row-major order."""
    return fn(np.arange(np.prod(shape), dtype=np.float64)).reshape(shape)
