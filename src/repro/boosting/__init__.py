"""Gradient-boosted regression trees (the paper's "XGBoost" role).

Def. 2 of the paper notes that the matching utility ``u_{r,b}`` "can be
learned from historical assignments using models such as XGBoost".  This
package implements that learner from scratch:

- :class:`~repro.boosting.tree.RegressionTree` — CART-style regression
  trees with variance-reduction splits;
- :class:`~repro.boosting.gbdt.GradientBoostedTrees` — least-squares
  gradient boosting with shrinkage and subsampling;
- :class:`~repro.boosting.utility_model.UtilityModel` — the end-to-end
  utility learner: builds pair features from broker/request attributes,
  fits on historical assignment outcomes, predicts utility matrices.
"""

from repro.boosting.gbdt import GradientBoostedTrees
from repro.boosting.tree import RegressionTree
from repro.boosting.utility_model import UtilityModel, pair_features

__all__ = [
    "GradientBoostedTrees",
    "RegressionTree",
    "UtilityModel",
    "pair_features",
]
