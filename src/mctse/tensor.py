"""Dense real tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array. Differentiable operations (see ops.py) create
output tensors that remember their input tensors and a backward rule; the
resulting DAG doubles as the tape. ``backward(loss)`` materializes the tape
in topological order and walks it in reverse, accumulating gradients on the
leaves (tensors without a backward rule, such as parameters); intermediate
gradients are dropped as soon as their rule has consumed them.

Inside ``with no_grad():`` ops record nothing: their outputs have no parents
and no backward rule, so each intermediate array, and every array a rule
would have captured, is freed as soon as the forward moves past it. Use it
for any forward pass that no backward will follow.

Tensors are immutable once created except for the ``grad`` accumulator
(and the training loop, which updates parameter ``data`` between steps).
Gradient accumulation is additive: calling backward twice without resetting
grads doubles them.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ContractError

# Backward rules receive the output gradient and a sink; they call
# sink(parent, parent_grad) for every differentiable parent.
BackwardRule = Callable[[np.ndarray, Callable[["Tensor", np.ndarray], None]], None]

# Whether make_node records the graph; per thread and per asyncio task.
_RECORDING: ContextVar[bool] = ContextVar("mctse_recording", default=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph inside the block; nests, and restores on exit or error."""
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind in "iub":
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: BackwardRule | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self) -> None:
        backward(self)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; the real work lives in ops.py (imported lazily to
    # avoid a circular import).
    def __add__(self, other):
        from . import ops

        return ops.add(self, other)

    def __radd__(self, other):
        from . import ops

        return ops.add(self, other)

    def __sub__(self, other):
        from . import ops

        return ops.sub(self, other)

    def __mul__(self, other):
        from . import ops

        return ops.mul(self, other)

    def __rmul__(self, other):
        from . import ops

        return ops.mul(self, other)

    def __neg__(self):
        from . import ops

        return ops.scale(self, -1.0)

    def __matmul__(self, other):
        from . import ops

        return ops.matmul(self, other)


def make_node(data: np.ndarray, parents: Iterable[Tensor], rule: BackwardRule) -> Tensor:
    """Wrap an op result; records parents and rule only when grads can flow
    and recording is on (outside ``no_grad()``)."""
    out = Tensor(data)
    if not _RECORDING.get():
        return out
    parents = tuple(parents)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = rule
            break
    return out


class Tape:
    """The recorded operations reachable from one output, input-first order.

    Each entry is a tensor node carrying its input refs and backward rule;
    leaves come before the ops that consume them, so a reverse walk applies
    the chain rule correctly. Only leaves keep a gradient: a node's incoming
    gradient is released once its rule has passed it on.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return cls(order)

    def run_backward(self, root: Tensor, seed: np.ndarray) -> None:
        pending: dict[int, np.ndarray] = {id(root): seed}

        def sink(t: Tensor, g: np.ndarray) -> None:
            if not t.requires_grad:
                return
            key = id(t)
            cur = pending.get(key)
            pending[key] = g if cur is None else cur + g

        for node in reversed(self.nodes):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if node._backward is not None:
                node._backward(g, sink)
            elif node.grad is None:
                node.grad = np.array(g)
            else:
                node.grad = node.grad + g


def backward(loss: Tensor) -> None:
    """Accumulate ``grad`` on every requires_grad leaf reachable from ``loss``."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ContractError(
            "backward needs a loss with a recorded graph; this one depends on no "
            "parameter, or was computed under no_grad()"
        )
    tape = Tape.trace(loss)
    tape.run_backward(loss, np.ones_like(loss.data))


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def constant(data, dtype=None) -> Tensor:
    """A non-differentiable tensor (shorthand for data inputs)."""
    arr = np.asarray(data, dtype=dtype)
    return Tensor(arr)


def parameter(data, dtype=None) -> Tensor:
    """A trainable tensor."""
    arr = np.array(data, dtype=dtype)
    return Tensor(arr, requires_grad=True)
