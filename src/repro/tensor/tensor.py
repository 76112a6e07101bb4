"""A small reverse-mode autograd engine over numpy.

The paper implements BlindFL "on top of PyTorch"; with no torch available we
provide the same contract: tensors that record their compute graph and
backpropagate exact gradients.  The top models of every federated model, all
baselines, and the attack models run on this engine.

Only what the reproduction needs is implemented — dense float64 tensors,
broadcasting binary ops, matmul, the usual activations and reductions — but
each op carries an exact vector-Jacobian product verified against finite
differences in the test-suite.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

__all__ = ["Tensor", "no_grad"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph construction (for eval loops)."""

    def __enter__(self) -> None:
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False

    def __exit__(self, *exc: object) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "op")

    def __init__(
        self,
        data: object,
        requires_grad: bool = False,
        _prev: tuple["Tensor", ...] = (),
        op: str = "",
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and _GRAD_ENABLED
        self._backward: Callable[[], None] = lambda: None
        self._prev = _prev if _GRAD_ENABLED else ()
        self.op = op

    # -- plumbing ---------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    @staticmethod
    def _coerce(other: object) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-mode sweep from this tensor."""
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient needs a scalar")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match {self.data.shape}"
                )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))
        self._accumulate(grad)
        for node in reversed(topo):
            node._backward()

    # -- binary ops --------------------------------------------------------------

    def __add__(self, other: object) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(
            self.data + other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _prev=(self, other),
            op="add",
        )

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.data.shape))

        out._backward = _backward
        return out

    __radd__ = __add__

    def __mul__(self, other: object) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(
            self.data * other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _prev=(self, other),
            op="mul",
        )

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.data.shape))

        out._backward = _backward
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: object) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: object) -> "Tensor":
        return (-self) + other

    def __truediv__(self, other: object) -> "Tensor":
        other = self._coerce(other)
        return self * other.pow(-1.0)

    def __rtruediv__(self, other: object) -> "Tensor":
        return self._coerce(other) / self

    def __matmul__(self, other: object) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(
            self.data @ other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _prev=(self, other),
            op="matmul",
        )

        def _backward() -> None:
            grad = out.grad
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data).reshape(self.data.shape))
                else:
                    self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad).reshape(other.data.shape))
                else:
                    other._accumulate(self.data.T @ grad)

        out._backward = _backward
        return out

    def pow(self, exponent: float) -> "Tensor":
        out = Tensor(
            self.data**exponent,
            requires_grad=self.requires_grad,
            _prev=(self,),
            op="pow",
        )

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        out._backward = _backward
        return out

    # -- unary ops ----------------------------------------------------------------

    def _unary(self, value: np.ndarray, local_grad: np.ndarray, op: str) -> "Tensor":
        out = Tensor(value, requires_grad=self.requires_grad, _prev=(self,), op=op)

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * local_grad)

        out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        return self._unary(
            np.maximum(self.data, 0.0), (self.data > 0).astype(np.float64), "relu"
        )

    def sigmoid(self) -> "Tensor":
        sig = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))
        return self._unary(sig, sig * (1 - sig), "sigmoid")

    def tanh(self) -> "Tensor":
        t = np.tanh(self.data)
        return self._unary(t, 1 - t * t, "tanh")

    def exp(self) -> "Tensor":
        e = np.exp(self.data)
        return self._unary(e, e, "exp")

    def log(self) -> "Tensor":
        return self._unary(np.log(self.data), 1.0 / self.data, "log")

    # -- reductions / shape -----------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out = Tensor(
            self.data.sum(axis=axis, keepdims=keepdims),
            requires_grad=self.requires_grad,
            _prev=(self,),
            op="sum",
        )

        def _backward() -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape).copy())

        out._backward = _backward
        return out

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        out = Tensor(
            self.data.reshape(*shape),
            requires_grad=self.requires_grad,
            _prev=(self,),
            op="reshape",
        )

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.data.shape))

        out._backward = _backward
        return out

    def transpose(self) -> "Tensor":
        out = Tensor(
            self.data.T, requires_grad=self.requires_grad, _prev=(self,), op="T"
        )

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.T)

        out._backward = _backward
        return out

    def __getitem__(self, key: object) -> "Tensor":
        out = Tensor(
            self.data[key], requires_grad=self.requires_grad, _prev=(self,), op="index"
        )

        def _backward() -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                np.add.at(grad, key, out.grad)
                self._accumulate(grad)

        out._backward = _backward
        return out

    @staticmethod
    def concat(tensors: Iterable["Tensor"], axis: int = 1) -> "Tensor":
        tensors = list(tensors)
        out = Tensor(
            np.concatenate([t.data for t in tensors], axis=axis),
            requires_grad=any(t.requires_grad for t in tensors),
            _prev=tuple(tensors),
            op="concat",
        )

        def _backward() -> None:
            offset = 0
            for t in tensors:
                width = t.data.shape[axis]
                slicer: list[slice] = [slice(None)] * out.grad.ndim
                slicer[axis] = slice(offset, offset + width)
                if t.requires_grad:
                    t._accumulate(out.grad[tuple(slicer)])
                offset += width

        out._backward = _backward
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"
