"""Dense float64 tensors and the seeded random stream they are built from."""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import InvalidShape, NumericalError

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
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
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

    def standard_normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def get_state(self) -> dict:
        """Serializable generator state (all JSON-compatible ints/strings)."""
        return {
            "seed": self.seed,
            "path": list(self.path),
            "bit_generator": self._gen.bit_generator.state,
        }

    @classmethod
    def from_state(cls, state: dict) -> "SeededRng":
        rng = cls(state["seed"], tuple(state["path"]))
        bg = dict(state["bit_generator"])
        # JSON round-trips tuples as lists; PCG64 state is a nested dict of ints.
        rng._gen.bit_generator.state = bg
        return rng

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


def tensor_new(shape, fill: str = "zeros", *, rng: SeededRng | None = None,
               requires_grad: bool = False, name: str | None = None) -> Tensor:
    """Allocate a leaf tensor of the given shape.

    fill is "zeros" (biases and initial LSTM states) or "glorot" (weights:
    uniform on (-L, L) with L = sqrt(6 / (fan_in + fan_out)), drawn from
    the SeededRng that glorot requires).
    """
    shape = tuple(int(n) for n in shape)
    if len(shape) == 0:
        raise InvalidShape("shape must have at least one extent")
    if any(n < 1 for n in shape):
        raise InvalidShape(f"extents must be >= 1, got {shape}")

    if fill == "zeros":
        data = np.zeros(shape)
    elif fill == "glorot":
        if rng is None:
            raise ValueError("glorot fill needs a SeededRng")
        fan_in, fan_out = _fans(shape)
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        data = rng.uniform(-limit, limit, shape)
    else:
        raise ValueError(f"unknown fill rule {fill!r}")
    return Tensor(data, requires_grad=requires_grad, name=name)


def _fans(shape: tuple) -> tuple[int, int]:
    """Fan-in/fan-out convention: matrices (in, out); conv kernels put the
    receptive field times the channel count on each side."""
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[:-2]))
    return receptive * shape[-2], receptive * shape[-1]
