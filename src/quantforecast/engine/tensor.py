"""Dense float64 tensors, and the seeded random stream that draws initial
weights, data splits and batch orders."""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import ConfigError, NumericalError

_node_ids = itertools.count()


class SeededRng:
    """Deterministic random stream backed by numpy's PCG64 bit generator.

    A stream is identified by an unsigned 64-bit root seed plus a spawn
    path of integer keys, mapped through ``numpy.random.SeedSequence``.
    Identical (seed, path) pairs produce identical draw sequences on every
    platform, and sibling paths are statistically independent, so one
    experiment seed can deterministically feed the data split, the weight
    initialisation, and the batch shuffling without stream overlap.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
        self.seed = seed
        self.path = tuple(int(k) for k in path)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=self.path))
        )

    def child(self, key: int) -> "SeededRng":
        """Derive an independent stream; the same key always gives the same stream."""
        return SeededRng(self.seed, self.path + (int(key),))

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, path={self.path})"


class Tensor:
    """N-dimensional float64 array recorded on an autodiff tape.

    Tensor(...) builds checked leaves (inputs, constants, trainable
    parameters). Op tensors, which the ops build, carry the producing op
    kind and, when a gradient can reach them, their parent nodes and a
    closure computing parent gradients from the output gradient.
    Node ids increase monotonically with creation, so they are already a
    topological order of the (acyclic) recorded graph. Data produced by an
    op is treated as immutable.
    """

    __slots__ = ("data", "requires_grad", "op", "parents", "backward_fn",
                 "name", "node_id", "consumed")

    def __init__(self, data, requires_grad: bool = False,
                 name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericalError("non-finite values in tensor"
                                 + (f" {name!r}" if name else ""))
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self.parents = ()
        self.backward_fn = None
        self.name = name
        self.node_id = next(_node_ids)
        self.consumed = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = self.name or self.op
        return f"Tensor({tag}, shape={self.shape})"


def _op_result(data: np.ndarray, op: str, parents: tuple = (),
               backward_fn=None) -> Tensor:
    """Engine-private: the op node around a float64 result, built without
    the finiteness check of Tensor(...), which builds leaves only. The ops
    call it after checking the result themselves, or where finite inputs
    cannot give a non-finite result."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t.requires_grad = False
    t.op = op
    t.parents = parents
    t.backward_fn = backward_fn
    t.name = None
    t.node_id = next(_node_ids)
    t.consumed = False
    return t

