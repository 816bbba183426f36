"""Named workloads: each is a list of campaigns, given as ExperimentConfig
fields without the per-run ones (data_seed comes from --seed, output_dir
from the benchmark).

Every campaign runs R=2 seeded runs (base seeds 0 and 1), so the split,
the weight initialisation and the batch order are the same for every
--seed; --seed only pins the generated series (data_seed).
"""

from __future__ import annotations

MACKEY_GLASS = {"dataset": "mackey-glass", "data_steps": 3000,
                "window": 5, "horizons": 10}
RUNS = {"runs": 2, "base_seed": 0, "workers": 1}
BAND = (0.05, 0.5, 0.95)
# The neural families of the workload that mixes families; their metrics
# also get a per-family suffix.
MIXED_FAMILIES = ("lstm", "bdlstm", "convlstm")

WORKLOADS: dict[str, list[dict]] = {
    # Criterion 4 shape, cut to 4 epochs: quantile edlstm, 5 levels.
    "mg-edlstm-quantile": [
        {**MACKEY_GLASS, **RUNS, "name": "edlstm-quantile",
         "family": "edlstm", "quantile": True, "hidden1": 100,
         "hidden2": 100, "epochs": 4, "batch_size": 64,
         "learning_rate": 1e-3},
    ],
    # No edlstm: every other family plus both linear baselines, default
    # hidden sizes. After 4 epochs the 0.05 and 0.25 levels of lstm and
    # bdlstm still cross on some seeds, so these campaigns fit the outer
    # band and the median only. The quantile linear fit is capped at 300
    # iterations (its 5000-iteration default takes 15-24 s per run).
    "mg-mixed-quantile": [
        {**MACKEY_GLASS, **RUNS, "name": f"{family}-quantile",
         "family": family, "quantile": True, "quantiles": BAND, "epochs": 4,
         "batch_size": 64, "learning_rate": 3e-3}
        for family in MIXED_FAMILIES
    ] + [
        {**MACKEY_GLASS, **RUNS, "name": "linear-ols", "family": "linear",
         "quantile": False},
        {**MACKEY_GLASS, **RUNS, "name": "linear-quantile",
         "family": "linear", "quantile": True, "quantiles": BAND,
         "linear_iterations": 300},
    ],
}
