"""The finite-difference harness fails on the faults it exists to catch."""

import numpy as np
import pytest

from cluenet import tensor as T
from fd import grad_check

X = np.linspace(0.5, 2.0, 6).reshape(2, 3)
W = np.cos(np.arange(6.0)).reshape(2, 3)


def square(x, scale=1.0):
    """x**2, with its gradient multiplied by ``scale``."""
    return x * x, lambda dy: scale * 2.0 * x * dy


def test_gradient_scaled_by_1_001_fails():
    assert grad_check(square, [X.copy()], W) < 1e-7
    with pytest.raises(AssertionError, match=r"input 0\[\d, \d\]: relative error 9\.990e-04"):
        grad_check(lambda x: square(x, 1.001), [X.copy()], W)


def test_nan_analytic_gradient_names_its_input():
    def run(a, b):
        return a * b, lambda dy: (dy * b, np.full_like(a, np.nan))

    with pytest.raises(AssertionError, match="non-finite analytic gradient of input 1"):
        grad_check(run, [X.copy(), X.copy()], W)


def capped(x):
    """x below 1 and +inf above it; the gradient is 1 everywhere."""
    return np.where(x > 1.0, np.inf, x), lambda dy: dy


def test_non_finite_loss_fails():
    with pytest.raises(AssertionError, match="non-finite loss inf"):
        grad_check(capped, [X.copy()], np.ones_like(X))
    with pytest.raises(AssertionError, match=r"non-finite loss while moving input 0\[1\]"):
        grad_check(capped, [np.array([0.5, 1.0 - 0.5e-5])], np.ones(2))


def test_float32_is_rejected():
    with pytest.raises(AssertionError, match="input 0 is float32"):
        grad_check(square, [X.astype(np.float32)], W)
    w = T.Parameter("w", np.eye(3, dtype=np.float32))
    with pytest.raises(AssertionError, match="w is float32"):
        grad_check(lambda x: T.linear(x, w), [X.copy()], W, params=[w])


def test_unreached_parameter_fails_by_name():
    w = T.Parameter("w", np.eye(3))
    b = T.Parameter("b", np.ones(3))

    def run(x):
        y, back = T.linear(x, w)
        return y + b.value, back       # the bias gradient is never accumulated

    with pytest.raises(AssertionError, match=r"b\[\d\]: relative error 1\.000e\+00"):
        grad_check(run, [X.copy()], W, params=[w, b])


def test_backward_runs_once_and_values_are_restored():
    w = T.Parameter("w", np.arange(12.0).reshape(4, 3))
    calls = []

    def run(x):
        y, back = T.linear(x, w)

        def backward(dy):
            calls.append(dy)
            return back(dy)

        return y, backward

    grad_check(run, [X.copy()], np.ones((2, 4)), params=[w])
    assert len(calls) == 1
    np.testing.assert_array_equal(w.value, np.arange(12.0).reshape(4, 3))
    np.testing.assert_array_equal(w.grad, np.ones((4, 2)) @ X)
