"""Dense float64 tensors, their value-free tape records, and the seeded
random stream that draws initial weights, data splits and batch orders.

A Tensor holds a value; the Record of the op that made it holds what
backward() needs besides the arrays its closure keeps. Records link to
records and leaves only, so the tape holds an op result's value only
where a closure reads it.
"""

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
    parameters); a leaf is its own tape entry. An op result keeps its
    value here and everything else in its Record: the op kind, the parent
    entries, the backward closure, the node id and the consumed flag.
    Once an op result's Tensor is dropped, its array lives on only if a
    closure reads it. `op`, `parents`, `backward_fn` and `consumed` read
    through to the record. Node ids increase monotonically with creation,
    so they are already a topological order of the (acyclic) recorded
    graph. Data produced by an op is treated as immutable.
    """

    __slots__ = ("data", "requires_grad", "name", "node_id", "record")

    def __init__(self, data, requires_grad: bool = False,
                 name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericalError("non-finite values in tensor"
                                 + (f" {name!r}" if name else ""))
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.name = name
        self.node_id = next(_node_ids)
        self.record = None

    @property
    def entry(self):
        """The tape entry: the record of the op that made this tensor, or
        the leaf itself."""
        return self if self.record is None else self.record

    @property
    def op(self) -> str:
        return "leaf" if self.record is None else self.record.op

    @property
    def parents(self) -> tuple:
        return () if self.record is None else self.record.parents

    @property
    def backward_fn(self):
        return None if self.record is None else self.record.backward_fn

    @property
    def consumed(self) -> bool:
        return self.record is not None and self.record.consumed

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


class Record:
    """The value-free tape entry of one op result. Off every gradient path
    it has no parents and no closure; backward() empties a consumed one."""

    __slots__ = ("op", "parents", "backward_fn", "node_id", "consumed")
    requires_grad = False
    name = None

    def __init__(self, op: str, parents: tuple, backward_fn):
        self.op = op
        self.parents = parents
        self.backward_fn = backward_fn
        self.node_id = next(_node_ids)
        self.consumed = False

    def __repr__(self):
        return f"Record({self.op}, node_id={self.node_id})"


def _op_result(data: np.ndarray, op: str, parents: tuple = (),
               backward_fn=None) -> Tensor:
    """Engine-private: the op result around a float64 array, built without
    the finiteness check of Tensor(...), which builds leaves only. The ops
    call it after checking the result themselves, or where finite inputs
    cannot give a non-finite result. parents are tape entries (records,
    or leaves), and backward_fn hands gradients back to them."""
    record = Record(op, parents, backward_fn)
    t = Tensor.__new__(Tensor)
    t.data = data
    t.requires_grad = False
    t.name = None
    t.node_id = record.node_id
    t.record = record
    return t
