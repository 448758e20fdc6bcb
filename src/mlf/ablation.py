"""Train/evaluate a base configuration against component-off variants."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SeriesDataset, SplitRanges
from .model import MlfConfig, apply_ablation, build_model
from .training import evaluate, train


@dataclass
class VariantResult:
    label: str
    mse_per_seed: list[float]
    mae_per_seed: list[float]

    @property
    def mse_mean(self) -> float:
        return float(np.mean(self.mse_per_seed))

    @property
    def mse_std(self) -> float:
        return float(np.std(self.mse_per_seed))

    @property
    def mae_mean(self) -> float:
        return float(np.mean(self.mae_per_seed))

    @property
    def mae_std(self) -> float:
        return float(np.std(self.mae_per_seed))

    def to_dict(self) -> dict:
        return {
            "variant": self.label,
            "mse_mean": self.mse_mean,
            "mse_std": self.mse_std,
            "mae_mean": self.mae_mean,
            "mae_std": self.mae_std,
            "mse_per_seed": self.mse_per_seed,
            "mae_per_seed": self.mae_per_seed,
        }


@dataclass
class AblationReport:
    rows: list[VariantResult] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows]}

    def table(self) -> str:
        width = max(len(r.label) for r in self.rows)
        lines = [f"{'variant'.ljust(width)}  {'MSE':>18}  {'MAE':>18}"]
        for r in self.rows:
            lines.append(
                f"{r.label.ljust(width)}  "
                f"{r.mse_mean:>10.6f} ±{r.mse_std:<6.4f}  "
                f"{r.mae_mean:>10.6f} ±{r.mae_std:<6.4f}"
            )
        return "\n".join(lines)


def normalize_flags(flags) -> list[str]:
    """Strip, drop blanks and deduplicate, keeping first-seen order;
    `apply_ablation` rejects unknown names."""
    return list(dict.fromkeys(flag.strip() for flag in flags if flag.strip()))


def ablate(
    ds: SeriesDataset,
    split: SplitRanges,
    base_config: MlfConfig,
    flags,
    *,
    seeds=(0,),
    anchor_stride: int = 1,
) -> AblationReport:
    """Train the base config and each single-flag variant under shared seeds.

    Metrics are test-split normalized MSE/MAE, aggregated over seeds. The
    same seeds and `anchor_stride` drive every variant's `train`, so weight
    init and batch order are shared wherever shapes allow. Every flag is
    checked before any training.
    """
    flags = normalize_flags(flags)
    variants = [("base", base_config)] + [(f"w/o {f}", apply_ablation(base_config, f)) for f in flags]
    report = AblationReport()
    for label, config in variants:
        mses, maes = [], []
        for seed in seeds:
            model = build_model(config, seed=int(seed))
            train(model, ds, split, seed=int(seed), anchor_stride=anchor_stride)
            result = evaluate(model, ds, split, "test")
            mses.append(result.report_normalized.mse)
            maes.append(result.report_normalized.mae)
        report.rows.append(VariantResult(label, mses, maes))
    return report
