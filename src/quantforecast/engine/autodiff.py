"""Reverse-mode traversal and finite-difference gradient checking."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NotScalar
from .tensor import Tensor


def backward(loss: Tensor, params=None) -> dict[Tensor, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every trainable leaf it reaches,
    keyed by the leaf tensor. Parameters passed in but unreachable from the
    loss get a zero gradient of the matching shape.

    Nodes are visited by descending node id. An op draws its id after
    its parents', so that order is topological: every consumer of a node
    hands back its gradient before the node passes it on, and a node's
    contributions are summed in descending consumer-id order.

    The recorded graph is consumed: op nodes drop their parents and
    closures afterwards, so a second reverse pass through the same nodes
    raises instead of silently returning zeros.
    """
    if loss.size != 1:
        raise NotScalar(f"loss must be scalar-shaped, got shape {loss.shape}")
    if loss.consumed:
        raise RuntimeError("graph already consumed by a previous backward()")

    reachable = {loss.node_id: loss}
    stack = [loss]
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


@dataclass
class BlockReport:
    """Gradient-check outcome for one parameter block."""
    name: str
    max_rel_err: float
    checked: int
    kink_entries: int

    @property
    def passed(self) -> bool:
        return np.isfinite(self.max_rel_err)


@dataclass
class GradCheckReport:
    tolerance: float
    blocks: dict[str, BlockReport] = field(default_factory=dict)

    @property
    def max_rel_err(self) -> float:
        errs = [b.max_rel_err for b in self.blocks.values()]
        return max(errs) if errs else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def lines(self) -> list[str]:
        out = []
        for name, b in sorted(self.blocks.items()):
            status = "ok" if b.max_rel_err < self.tolerance else "FAIL"
            note = f", {b.kink_entries} kink entries excluded" if b.kink_entries else ""
            out.append(f"{status}  {name}: max rel err {b.max_rel_err:.3e} "
                       f"over {b.checked} entries{note}")
        return out


# Entries where analytic and numeric gradients are both below this floor
# are compared quasi-absolutely; keeps fp noise on near-zero gradients from
# inflating the relative error.
_REL_FLOOR = 1e-4
# One-sided difference mismatch beyond this marks a subgradient (kink) point.
_KINK_GAP = 1e-3


def grad_check(loss_fn, params: dict[str, Tensor], h: float = 1e-5,
               tol: float = 1e-4) -> GradCheckReport:
    """Compare backward() gradients against central finite differences.

    loss_fn rebuilds and returns the scalar loss from the current parameter
    values; parameter data is perturbed in place entry by entry. Relative
    error per entry is |a - n| / max(|a|, |n|, 1e-4). Entries where the
    forward and backward one-sided slopes disagree are flagged as kink
    (subgradient) points and excluded from the block maximum. Reports
    failures rather than raising.
    """
    if h <= 0 or tol <= 0:
        raise ValueError("h and tol must be positive")
    report = GradCheckReport(tolerance=tol)
    analytic = backward(loss_fn(), params=list(params.values()))
    f0 = loss_fn().item()

    for name, p in params.items():
        a = analytic[p]
        flat = p.data.ravel()
        max_err = 0.0
        kinks = 0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn().item()
            flat[i] = orig - h
            fm = loss_fn().item()
            flat[i] = orig

            d_plus = (fp - f0) / h
            d_minus = (f0 - fm) / h
            if abs(d_plus - d_minus) > _KINK_GAP * max(1.0, abs(d_plus), abs(d_minus)):
                kinks += 1
                continue
            numeric = (fp - fm) / (2.0 * h)
            ana = a.ravel()[i]
            err = abs(ana - numeric) / max(abs(ana), abs(numeric), _REL_FLOOR)
            if err > max_err:
                max_err = err
        report.blocks[name] = BlockReport(name, max_err, flat.size - kinks, kinks)
    return report
