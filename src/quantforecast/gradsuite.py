"""Gradient acceptance suite: every op kind and every model family checked
against central finite differences at toy sizes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (SeededRng, Tensor, add, backward, concat, conv1d,
                     hadamard, matmul, pinball_branch, reduce_mean, relu,
                     reshape, sigmoid, slice_axis, sub, tanh)
from .losses import quantile_loss_batch
from .models import FAMILIES, ModelSpec, build_model, forward_pass

TOY_HIDDEN = 3
TOY_WINDOW = 4
TOY_HORIZONS = 2
TOY_QUANTILES = (0.25, 0.5, 0.75)
# Feature widths each family is built at: univariate and multivariate.
TOY_FEATURES = (1, 3)
# Inputs are re-drawn this many times per op kind.
OP_TRIALS = 6
# Central-difference step, and the pass bound on relative error.
STEP = 1e-5
TOL = 1e-4
# Entries where analytic and numeric gradients are both below this floor
# are compared quasi-absolutely; keeps fp noise on near-zero gradients from
# inflating the relative error.
_REL_FLOOR = 1e-4
# One-sided difference mismatch beyond this marks a subgradient (kink) point.
_KINK_GAP = 1e-3


@dataclass
class GradCheckReport:
    """Per parameter block: the worst relative error over the checked
    entries, and the number of kink entries left out of it. A report passes
    when every block's error is below TOL."""
    blocks: dict[str, tuple[float, int]]

    @property
    def max_rel_err(self) -> float:
        return max((err for err, _ in self.blocks.values()), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < TOL


def grad_check(loss_fn, params: dict[str, Tensor]) -> GradCheckReport:
    """Compare backward() gradients against central finite differences.

    loss_fn rebuilds and returns the scalar loss from the current parameter
    values; parameter data is perturbed in place entry by entry. Relative
    error per entry is |a - n| / max(|a|, |n|, 1e-4). Entries where the
    forward and backward one-sided slopes disagree are flagged as kink
    (subgradient) points and excluded from the block maximum; a block with a
    non-finite analytic gradient reads an infinite error. Reports failures
    rather than raising.
    """
    blocks: dict[str, tuple[float, int]] = {}
    analytic = backward(loss_fn(), params=list(params.values()))
    f0 = loss_fn().item()

    for name, p in params.items():
        a = analytic[p].ravel()
        flat = p.data.ravel()
        # A NaN error never exceeds the running maximum, so a non-finite
        # analytic gradient fails its block outright.
        max_err = 0.0 if np.isfinite(a).all() else np.inf
        kinks = 0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            fp = loss_fn().item()
            flat[i] = orig - STEP
            fm = loss_fn().item()
            flat[i] = orig

            d_plus = (fp - f0) / STEP
            d_minus = (f0 - fm) / STEP
            if abs(d_plus - d_minus) > _KINK_GAP * max(1.0, abs(d_plus), abs(d_minus)):
                kinks += 1
                continue
            numeric = (fp - fm) / (2.0 * STEP)
            err = abs(a[i] - numeric) / max(abs(a[i]), abs(numeric), _REL_FLOOR)
            if err > max_err:
                max_err = err
        blocks[name] = (max_err, kinks)
    return GradCheckReport(blocks)


def _rand(rng: SeededRng, shape, away_from_zero: float = 0.0) -> np.ndarray:
    """Uniform values in [-2, 2]; optionally pushed away from 0 so kinks
    (relu, pinball) are never sampled."""
    x = rng.uniform(-2.0, 2.0, shape)
    if away_from_zero:
        x = np.where(np.abs(x) < away_from_zero,
                     np.sign(x) * away_from_zero + x, x)
    return x


def _op_cases(rng: SeededRng):
    """One loss closure per op kind; every tensor input is treated as a
    checkable parameter block."""

    def leaf(shape, away=0.0, name="p"):
        return Tensor(_rand(rng, shape, away), requires_grad=True, name=name)

    cases = {}

    a, b = leaf((3, 4)), leaf((4, 2))
    cases["matmul"] = ({"a": a, "b": b},
                       lambda: reduce_mean(matmul(a, b)))
    c, d = leaf((3, 4)), leaf((3, 4))
    cases["add"] = ({"c": c, "d": d}, lambda: reduce_mean(tanh(add(c, d))))
    e, f = leaf((3, 4)), leaf((3, 4))
    cases["sub"] = ({"e": e, "f": f}, lambda: reduce_mean(tanh(sub(e, f))))
    g, h = leaf((3, 4)), leaf((3, 4))
    cases["hadamard"] = ({"g": g, "h": h},
                         lambda: reduce_mean(hadamard(g, h)))
    j, k = leaf((2, 3)), leaf((2, 2))
    cases["concat"] = ({"j": j, "k": k},
                       lambda: reduce_mean(tanh(concat([j, k], axis=1))))
    m = leaf((3, 5))
    cases["slice"] = ({"m": m},
                      lambda: reduce_mean(tanh(slice_axis(m, 1, 1, 4))))
    n = leaf((2, 6))
    cases["reshape"] = ({"n": n},
                        lambda: reduce_mean(tanh(reshape(n, (3, 4)))))
    p = leaf((3, 4))
    cases["sigmoid"] = ({"p": p}, lambda: reduce_mean(sigmoid(p)))
    q = leaf((3, 4))
    cases["tanh"] = ({"q": q}, lambda: reduce_mean(tanh(q)))
    r = leaf((3, 4), away=0.2)
    cases["relu"] = ({"r": r}, lambda: reduce_mean(relu(r)))
    s, sw = leaf((2, 6, 2)), leaf((2, 2, 3))
    cases["conv1d"] = ({"s": s, "sw": sw},
                       lambda: reduce_mean(tanh(conv1d(s, sw))))
    u = leaf((3, 4))
    cases["reduce-mean"] = ({"u": u}, lambda: reduce_mean(hadamard(u, u)))
    x = leaf((3, 4), away=0.2)
    cases["pinball-residual-branch"] = (
        {"x": x}, lambda: reduce_mean(pinball_branch(x, 0.75)))
    return cases


def check_all_ops(seed: int = 0) -> dict[str, GradCheckReport]:
    """Randomised gradient check of every op kind; inputs are re-drawn per
    trial and the worst block error per op is reported."""
    reports: dict[str, GradCheckReport] = {}
    for trial in range(OP_TRIALS):
        rng = SeededRng(seed).child(trial)
        for op_name, (params, loss_fn) in _op_cases(rng).items():
            rep = grad_check(loss_fn, params)
            prev = reports.get(op_name)
            if prev is None or rep.max_rel_err > prev.max_rel_err:
                reports[op_name] = rep
    return reports


def check_all_families(seed: int = 0) -> dict[str, GradCheckReport]:
    """Full-model gradient check per family at toy sizes, through the
    quantile loss."""
    reports: dict[str, GradCheckReport] = {}
    for fam_idx, family in enumerate(FAMILIES):
        for f in TOY_FEATURES:
            rng = SeededRng(seed).child(fam_idx).child(f)
            spec = ModelSpec(family=family, features=f, window=TOY_WINDOW,
                             horizons=TOY_HORIZONS, hidden1=TOY_HIDDEN,
                             hidden2=TOY_HIDDEN, quantiles=TOY_QUANTILES)
            model = build_model(spec, rng)
            windows = _rand(rng.child(7), (2, TOY_WINDOW, f))
            targets = _rand(rng.child(8), (2, TOY_HORIZONS))

            def loss_fn(model=model, windows=windows, targets=targets):
                pred = forward_pass(model, windows)
                return quantile_loss_batch(targets, pred,
                                           model.spec.quantiles).node

            reports[f"{family}/f{f}"] = grad_check(loss_fn, model.params)
    return reports


def run_suite(seed: int = 0) -> bool:
    """Run both halves and print one line per checked block."""
    ok = True
    for section, reports in (("op", check_all_ops(seed)),
                             ("model", check_all_families(seed))):
        for name, rep in sorted(reports.items()):
            status = "PASS" if rep.passed else "FAIL"
            ok = ok and rep.passed
            print(f"{status} {section} {name}: "
                  f"max rel err {rep.max_rel_err:.3e}")
    return ok
