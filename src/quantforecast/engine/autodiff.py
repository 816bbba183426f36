"""Reverse-mode traversal of the recorded tape.

The tape is a graph of entries: the value-free record of each op result
and the leaves it reaches. backward() walks the entries, never the op
results' Tensors, so it needs no forward array that a closure does not
hold itself.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotScalar
from .tensor import Tensor


def backward(loss: Tensor, params=None) -> dict[Tensor, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every trainable leaf it reaches,
    keyed by the leaf tensor. Parameters passed in but unreachable from the
    loss get a zero gradient of the matching shape.

    Tape entries are visited by descending node id. An op draws its id after
    its parents', so that order is topological: every consumer of a node
    hands back its gradient before the node passes it on, and a node's
    contributions are summed in descending consumer-id order.

    The recorded graph is consumed: op records drop their parents and
    closures afterwards, so a second reverse pass through the same nodes
    raises instead of silently returning zeros.
    """
    if loss.size != 1:
        raise NotScalar(f"loss must be scalar-shaped, got shape {loss.shape}")
    if loss.consumed:
        raise RuntimeError("graph already consumed by a previous backward()")

    root = loss.entry
    reachable = {root.node_id: root}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if parent.node_id not in reachable:
                reachable[parent.node_id] = parent
                stack.append(parent)

    grads: dict[int, np.ndarray] = {loss.node_id: np.ones(loss.shape)}
    # Sums this pass allocated itself; only these are added to in place,
    # since a gradient an op hands back may be a view shared with others.
    owned: set[int] = set()
    table: dict[Tensor, np.ndarray] = {}
    for node_id in sorted(reachable, reverse=True):
        node = reachable[node_id]
        g = grads.pop(node_id, None)
        if g is None:
            continue
        if node.backward_fn is None:
            if node.requires_grad:
                # An op may hand back a read-only view (reduce_mean's
                # broadcast); the caller gets an array it can update.
                table[node] = g if g.flags.writeable else g.copy()
            continue
        for parent, pg in node.backward_fn(g):
            key = parent.node_id
            acc = grads.get(key)
            if acc is None:
                grads[key] = pg
            elif key in owned:
                acc += pg
            else:
                grads[key] = acc + pg
                owned.add(key)

    for node in reachable.values():
        if node.backward_fn is not None:
            node.consumed = True
            node.parents = ()
            node.backward_fn = None

    if params is not None:
        for p in params:
            table.setdefault(p, np.zeros(p.shape))
    return table

