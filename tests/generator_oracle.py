"""The Mackey-Glass and Lorenz generators stepped in numpy scalars and
arrays: the reference that the float-stepped generators in
`quantforecast.datapipe` must match bit for bit."""

import numpy as np

from quantforecast.datapipe import (JITTER, LORENZ_INITIAL,
                                    MACKEY_GLASS_HISTORY, LorenzParams,
                                    MackeyGlassParams)
from quantforecast.engine import SeededRng


def mackey_glass_values(params: MackeyGlassParams, seed: int) -> np.ndarray:
    """The (steps,) trajectory of `gen_mackey_glass`, one numpy-scalar
    RK4 stage at a time, the delayed value looked up per step."""
    rng = SeededRng(seed)
    delay_steps = max(1, int(round(params.delay / params.dt)))
    history = MACKEY_GLASS_HISTORY + rng.uniform(-JITTER, JITTER,
                                                 delay_steps + 1)
    xs = np.empty(params.steps)
    xs[0] = history[-1]

    a, b, dt = params.a, params.b, params.dt

    def deriv(x, x_delayed):
        return a * x_delayed / (1.0 + x_delayed ** 10) - b * x

    for t in range(params.steps - 1):
        back = t - delay_steps
        delayed = xs[back] if back >= 0 else history[back + delay_steps]
        k1 = deriv(xs[t], delayed)
        k2 = deriv(xs[t] + 0.5 * dt * k1, delayed)
        k3 = deriv(xs[t] + 0.5 * dt * k2, delayed)
        k4 = deriv(xs[t] + dt * k3, delayed)
        xs[t + 1] = xs[t] + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return xs


def lorenz_values(params: LorenzParams, seed: int) -> np.ndarray:
    """The (steps, 3) trajectory that `gen_lorenz` takes its component
    from, each RK4 stage on a 3-element numpy array."""
    rng = SeededRng(seed)
    state = np.asarray(LORENZ_INITIAL, dtype=np.float64)
    state = state + rng.uniform(-JITTER, JITTER, 3)

    rho, sigma, beta, dt = params.rho, params.sigma, params.beta, params.dt

    def deriv(u):
        x, y, z = u
        return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])

    out = np.empty((params.steps, 3))
    out[0] = state
    for t in range(params.steps - 1):
        u = out[t]
        k1 = deriv(u)
        k2 = deriv(u + 0.5 * dt * k1)
        k3 = deriv(u + 0.5 * dt * k2)
        k4 = deriv(u + dt * k3)
        out[t + 1] = u + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return out
