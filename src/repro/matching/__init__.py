"""Bipartite matching substrate.

The paper's assignment phase (Alg. 2 line 7) runs the classical Kuhn-Munkres
(KM) algorithm on a balanced bipartite graph; its optimization (Alg. 3)
shrinks that graph before solving.  This package provides

- :func:`~repro.matching.hungarian.solve_assignment` — an O(n^3)
  shortest-augmenting-path Hungarian solver written from scratch, the one
  production solve path,
- :mod:`~repro.matching.bipartite` — dummy-vertex padding for unbalanced
  graphs and matrix construction helpers,
- :mod:`~repro.matching.greedy` — the greedy matcher used as a sanity
  baseline,
- :mod:`~repro.matching.incremental` — a warm-started KM solver for
  streams of related instances (trajectory resumption; bit-identical to
  the cold solver); no matcher uses it, so it is not re-exported here and
  ``import repro`` does not load it,
- :mod:`~repro.matching.validation` — structural checks on matchings.

The SciPy, auction and min-cost-flow solvers that cross-check KM
optimality are oracles in :mod:`repro.check`
(:func:`repro.check.invariants.oracle_assignment`,
:mod:`repro.check.auction`, :mod:`repro.check.flow`), never solve paths.
"""

from repro.matching.bipartite import MatchResult, pad_to_square
from repro.matching.greedy import greedy_assignment
from repro.matching.hungarian import hungarian, solve_assignment
from repro.matching.validation import assert_valid_matching, is_valid_matching

__all__ = [
    "MatchResult",
    "pad_to_square",
    "hungarian",
    "solve_assignment",
    "greedy_assignment",
    "is_valid_matching",
    "assert_valid_matching",
]
