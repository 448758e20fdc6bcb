"""Train/evaluate a base configuration against component-off variants."""

from __future__ import annotations

import numpy as np

from .data import SeriesDataset, SplitRanges
from .model import MlfConfig, apply_ablation, build_model
from .training import evaluate, train


def ablate(
    ds: SeriesDataset,
    split: SplitRanges,
    base_config: MlfConfig,
    flags,
    *,
    seeds=(0,),
    anchor_stride: int = 1,
) -> list[dict]:
    """Train the base config and each single-flag variant under shared seeds.

    Returns one row per variant, base first, as `ablation.json` holds it:
    the test-split normalized MSE and MAE of each seed, and their mean and
    std. Flags are stripped, blanks dropped and repeats skipped in first-seen
    order. The same seeds and `anchor_stride` drive every variant's `train`,
    so weight init and batch order are shared wherever shapes allow. Every
    flag is checked, by `apply_ablation`, before any training.
    """
    flags = dict.fromkeys(flag.strip() for flag in flags if flag.strip())
    variants = [("base", base_config)] + [(f"w/o {f}", apply_ablation(base_config, f)) for f in flags]
    rows = []
    for label, config in variants:
        mses, maes = [], []
        for seed in seeds:
            model = build_model(config, seed=int(seed))
            train(model, ds, split, seed=int(seed), anchor_stride=anchor_stride)
            result = evaluate(model, ds, split, "test")
            mses.append(result.report_normalized.mse)
            maes.append(result.report_normalized.mae)
        rows.append({
            "variant": label,
            "mse_mean": float(np.mean(mses)),
            "mse_std": float(np.std(mses)),
            "mae_mean": float(np.mean(maes)),
            "mae_std": float(np.std(maes)),
            "mse_per_seed": mses,
            "mae_per_seed": maes,
        })
    return rows


def table(rows: list[dict]) -> str:
    """The rows of `ablate` as text: one line per variant, mean ± std."""
    width = max(len(r["variant"]) for r in rows)
    lines = [f"{'variant'.ljust(width)}  {'MSE':>18}  {'MAE':>18}"]
    for r in rows:
        lines.append(
            f"{r['variant'].ljust(width)}  "
            f"{r['mse_mean']:>10.6f} ±{r['mse_std']:<6.4f}  "
            f"{r['mae_mean']:>10.6f} ±{r['mae_std']:<6.4f}"
        )
    return "\n".join(lines)
