"""ARDA: automatic relational data augmentation for ML (Chepurko et al.,
VLDB'20).

Given a base table with a prediction target, ARDA discovers joinable tables
in the lake, joins their columns in as candidate features, and selects the
useful ones with *random-injection* feature selection: random noise columns
are injected, a model is fitted, and only candidate features whose
importance beats the noise quantile are kept.  E12 measures the downstream
R^2 of base vs. augmented vs. augmented+selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.ml import RidgeRegression, train_test_split
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.search.josie import JosieIndex


@dataclass
class AugmentationReport:
    """What augmentation did and how the model scored."""

    base_r2: float = 0.0
    augmented_r2: float = 0.0
    selected_r2: float = 0.0
    candidate_tables: list[str] = field(default_factory=list)
    selected_features: list[str] = field(default_factory=list)


class ArdaAugmenter:
    """Join-based feature augmentation with random-injection selection."""

    def __init__(
        self,
        lake: DataLake,
        min_key_containment: float = 0.5,
        n_noise_features: int = 8,
        noise_quantile: float = 1.0,
        alpha: float = 1.0,
        seed: int = 0,
    ):
        self.lake = lake
        self.min_key_containment = min_key_containment
        self.n_noise_features = n_noise_features
        self.noise_quantile = noise_quantile
        self.alpha = alpha
        self.seed = seed
        self._josie = JosieIndex()
        self._built = False

    def build(self) -> "ArdaAugmenter":
        """Index every text column for join discovery."""
        for ref, col in self.lake.iter_text_columns():
            values = col.value_set()
            if values:
                self._josie.insert(ref, values)
        self._built = True
        return self

    # -- join discovery -------------------------------------------------------------

    def discover_joins(
        self, base: Table, key_column: int, k: int = 20
    ) -> list[tuple[str, int, float]]:
        """Candidate (table, key column index, containment) joins."""
        if not self._built:
            raise RuntimeError("call build() before discover_joins")
        qvalues = base.columns[key_column].value_set()
        hits, _ = self._josie.topk_with_stats(
            qvalues, k, lambda ref: ref.table == base.name
        )
        out = []
        for ref, overlap in hits:
            containment = overlap / max(len(qvalues), 1)
            if containment >= self.min_key_containment:
                out.append((ref.table, ref.index, containment))
        return out

    # -- augmentation ------------------------------------------------------------------

    def _joined_feature(
        self, base: Table, key_column: int, cand: Table, cand_key: int, num_col: int
    ) -> np.ndarray:
        """Left-join a candidate numeric column onto the base keys (mean of
        duplicate keys; missing keys imputed with the column mean)."""
        cand_keys = cand.columns[cand_key].cell_keys()
        cand_vals = cand.columns[num_col].numeric_values()
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for key, v in zip(cand_keys, cand_vals):
            if key and np.isfinite(v):
                sums[key] = sums.get(key, 0.0) + float(v)
                counts[key] = counts.get(key, 0) + 1
        means = {key: sums[key] / counts[key] for key in sums}
        overall = float(np.mean(list(means.values()))) if means else 0.0
        out = np.empty(base.num_rows)
        for i, key in enumerate(base.columns[key_column].cell_keys()):
            out[i] = means.get(key, overall)
        return out

    def augment(
        self,
        base: Table,
        key_column: int,
        target_column: int,
        feature_columns: list[int] | None = None,
        max_joins: int = 20,
    ) -> AugmentationReport:
        """Run the full ARDA loop and report base/augmented/selected R^2."""
        report = AugmentationReport()
        y = base.columns[target_column].numeric_values()
        base_feats: list[np.ndarray] = []
        base_names: list[str] = []
        feature_columns = feature_columns or [
            i
            for i, c in base.numeric_columns()
            if i not in (key_column, target_column)
        ]
        for i in feature_columns:
            base_feats.append(base.columns[i].numeric_values())
            base_names.append(f"base:{base.columns[i].name}")

        # Discover joins, pull in all numeric columns of the joined tables.
        joins = self.discover_joins(base, key_column, k=max_joins)
        report.candidate_tables = [t for t, _, _ in joins]
        cand_feats: list[np.ndarray] = []
        cand_names: list[str] = []
        for tname, ckey, _cont in joins:
            cand = self.lake.table(tname)
            for ni, ncol in cand.numeric_columns():
                cand_feats.append(
                    self._joined_feature(base, key_column, cand, ckey, ni)
                )
                cand_names.append(f"{tname}:{ncol.name}")

        mask = np.isfinite(y)
        y = y[mask]

        def fit_r2(features: list[np.ndarray]) -> float:
            if not features:
                return 0.0
            x = np.vstack(features).T[mask]
            x = np.nan_to_num(x)
            xtr, xte, ytr, yte = train_test_split(x, y, seed=self.seed)
            return RidgeRegression(self.alpha).fit(xtr, ytr).score(xte, yte)

        report.base_r2 = fit_r2(base_feats)
        report.augmented_r2 = fit_r2(base_feats + cand_feats)

        # Random-injection selection.
        selected = self.random_injection_select(
            base_feats + cand_feats, base_names + cand_names, y, mask
        )
        report.selected_features = selected
        keep = [
            f
            for f, name in zip(base_feats + cand_feats, base_names + cand_names)
            if name in set(selected)
        ]
        report.selected_r2 = fit_r2(keep or base_feats)
        return report

    def random_injection_select(
        self,
        features: list[np.ndarray],
        names: list[str],
        y: np.ndarray,
        mask: np.ndarray,
    ) -> list[str]:
        """Keep features whose |standardized coefficient| exceeds the chosen
        quantile of injected random features' importances."""
        if not features:
            return []
        rng = np.random.default_rng(self.seed)
        x = np.vstack(features).T[mask]
        x = np.nan_to_num(x)
        noise = rng.normal(size=(x.shape[0], self.n_noise_features))
        x_all = np.hstack([x, noise])
        # Standardize so coefficients are comparable importances.
        mu = x_all.mean(axis=0)
        sd = x_all.std(axis=0)
        sd[sd == 0] = 1.0
        xs = (x_all - mu) / sd
        model = RidgeRegression(self.alpha).fit(xs, y)
        importance = np.abs(model.coef_)
        real, injected = importance[: x.shape[1]], importance[x.shape[1]:]
        threshold = float(np.quantile(injected, self.noise_quantile))
        return [name for name, imp in zip(names, real) if imp > threshold]
