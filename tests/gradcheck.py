"""Finite-difference gradient checking and the scalar reductions the checks
take their losses with. A helper module for the tests, not a test module."""

from dataclasses import dataclass

import numpy as np

from mlf import autograd
from mlf.autograd import ShapeError, Tensor, backward


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape

    def vjp(g):
        return (np.full(shape, float(g), dtype=np.float64),)

    return autograd._node(np.asarray(a.data.sum()), (a,), vjp, "sum")


def mean_all(a: Tensor) -> Tensor:
    n, shape = a.size, a.shape

    def vjp(g):
        return (np.full(shape, float(g) / n, dtype=np.float64),)

    return autograd._node(np.asarray(a.data.mean()), (a,), vjp, "mean")


# Coordinates where analytic and numeric agree to within this absolute slack
# count as exact; it sits well above central-difference roundoff (~1e-11 for
# O(1) losses at the default step) and well below any real backward-rule bug.
_ABS_SLACK = 1e-9
_REL_FLOOR = 1e-6


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    worst_input: int
    worst_index: tuple[int, ...]
    analytic: float
    numeric: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"grad check {status}: max rel err {self.max_rel_err:.3e} (tol {self.tol:.1e}) "
            f"at input {self.worst_input} index {self.worst_index} "
            f"analytic {self.analytic:.6e} vs numeric {self.numeric:.6e}"
        )


def grad_check(f, point, step: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of scalar-valued `f` against central differences.

    `point` is a sequence of requires_grad Tensors that `f` reads; their data
    is perturbed in place and restored. Returns the worst relative error over
    every coordinate of every input.
    """
    point = list(point)
    for t in point:
        t.grad = None
    out = f(*point)
    if out.size != 1:
        raise ShapeError(f"grad_check needs a scalar-valued function, got shape {out.shape}")
    backward(out)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in point]

    worst = GradCheckReport(0.0, tol, -1, (), 0.0, 0.0)
    for i, t in enumerate(point):
        flat = t.data.reshape(-1)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + step
            f_plus = float(f(*point).data)
            flat[j] = original - step
            f_minus = float(f(*point).data)
            flat[j] = original
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = analytic[i].reshape(-1)[j]
            diff = abs(a - numeric)
            rel = 0.0 if diff <= _ABS_SLACK else diff / max(abs(a), abs(numeric), _REL_FLOOR)
            if rel > worst.max_rel_err:
                worst = GradCheckReport(
                    rel, tol, i, np.unravel_index(j, t.shape), float(a), float(numeric)
                )
    return worst
