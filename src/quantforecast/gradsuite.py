"""Gradient acceptance suite: every op kind and every model family checked
against central finite differences at toy sizes."""

from __future__ import annotations

import numpy as np

from .engine import (GradCheckReport, SeededRng, Tensor, add, concat, conv1d,
                     grad_check, hadamard, matmul, pinball_branch, reduce_mean,
                     relu, reshape, sigmoid, slice_axis, sub, tanh)
from .losses import quantile_loss_batch
from .models import FAMILIES, ModelSpec, build_model, forward_pass

TOY_HIDDEN = 3
TOY_WINDOW = 4
TOY_HORIZONS = 2
TOY_QUANTILES = (0.25, 0.5, 0.75)


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


def check_all_ops(seed: int = 0, trials: int = 6, h: float = 1e-5,
                  tol: float = 1e-4) -> dict[str, GradCheckReport]:
    """Randomised gradient check of every op kind; inputs are re-drawn per
    trial and the worst block error per op is reported."""
    reports: dict[str, GradCheckReport] = {}
    for trial in range(trials):
        rng = SeededRng(seed).child(trial)
        for op_name, (params, loss_fn) in _op_cases(rng).items():
            rep = grad_check(loss_fn, params, h=h, tol=tol)
            prev = reports.get(op_name)
            if prev is None or rep.max_rel_err > prev.max_rel_err:
                reports[op_name] = rep
    return reports


def check_all_families(seed: int = 0, h: float = 1e-5, tol: float = 1e-4,
                       features=(1, 3)) -> dict[str, GradCheckReport]:
    """Full-model gradient check per family at toy sizes, through the
    quantile loss."""
    reports: dict[str, GradCheckReport] = {}
    for fam_idx, family in enumerate(FAMILIES):
        for f in features:
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

            reports[f"{family}/f{f}"] = grad_check(loss_fn, model.params,
                                                   h=h, tol=tol)
    return reports


def run_suite(seed: int = 0, tol: float = 1e-4) -> bool:
    """Run both halves and print one line per checked block."""
    ok = True
    for section, reports in (("op", check_all_ops(seed, tol=tol)),
                             ("model", check_all_families(seed, tol=tol))):
        for name, rep in sorted(reports.items()):
            status = "PASS" if rep.passed else "FAIL"
            ok = ok and rep.passed
            print(f"{status} {section} {name}: "
                  f"max rel err {rep.max_rel_err:.3e}")
    return ok
