"""An independent leakage oracle for checking the program's outputs.

Nothing here imports ``repro.core`` or ``repro.lp``: the temporal loss
function is evaluated straight from the vertex form of the paper's
linear-fractional program (18)-(20), and the BPL/FPL recursions of
Eqs. (13)/(15) are stepped directly.

Vertex form.  Every vertex of the normalised feasible region of (18)-(20)
puts ``x_i = m e^a`` on a coordinate subset ``S`` and ``x_i = m``
elsewhere, so for stochastic rows ``q`` and ``d``::

    L(a) = max over ordered row pairs (q, d) and subsets S of
           log( (q_S (e^a - 1) + 1) / (d_S (e^a - 1) + 1) ),  floored at 0.

For a fixed ``S`` the best ordered pair takes the row with the largest
``q_S`` as numerator and the row with the smallest as denominator, which
is what :meth:`LossOracle.__call__` computes over all ``2^n`` subsets.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Sequence

import numpy as np

__all__ = ["LossOracle", "leakage_series", "worst_tpl", "self_test"]


class LossOracle:
    """``L(a)`` of one transition matrix, by enumerating LFP vertices."""

    def __init__(self, matrix) -> None:
        p = np.asarray(matrix, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("a transition matrix must be square")
        n = p.shape[0]
        masks = np.array(
            list(itertools.product((0.0, 1.0), repeat=n)), dtype=float
        )
        # sums[s, r] = probability mass row r puts on subset s.
        self._sums = masks @ p.T
        self._memo: Dict[float, float] = {}

    def __call__(self, a: float) -> float:
        a = float(a)
        hit = self._memo.get(a)
        if hit is not None:
            return hit
        e = math.expm1(a)
        values = self._sums * e + 1.0
        ratio = float((values.max(axis=1) / values.min(axis=1)).max())
        result = max(0.0, math.log(ratio))
        self._memo[a] = result
        return result


def leakage_series(loss_b, loss_f, epsilons: Sequence[float]):
    """``(BPL, FPL, TPL)`` arrays of one user for the budget vector
    ``epsilons`` (Eqs. (13), (15) and ``TPL = BPL + FPL - eps``)."""
    eps = [float(e) for e in epsilons]
    horizon = len(eps)
    bpl = [0.0] * horizon
    fpl = [0.0] * horizon
    for t in range(horizon):
        bpl[t] = eps[t] if t == 0 else loss_b(bpl[t - 1]) + eps[t]
    for t in range(horizon - 1, -1, -1):
        fpl[t] = eps[t] if t == horizon - 1 else loss_f(fpl[t + 1]) + eps[t]
    bpl_a, fpl_a, eps_a = np.array(bpl), np.array(fpl), np.array(eps)
    return bpl_a, fpl_a, bpl_a + fpl_a - eps_a


def worst_tpl(oracles, epsilons: Sequence[float]) -> float:
    """Worst TPL over every time point and every ``(L_B, L_F)`` pair of
    ``oracles`` after releasing ``epsilons`` -- what the program reports
    as ``max_tpl`` at that horizon."""
    if len(epsilons) == 0:
        return 0.0
    return max(
        float(leakage_series(b, f, epsilons)[2].max()) for b, f in oracles
    )


def _theorem5_supremum(q: float, d: float, eps: float) -> float:
    """Closed-form limit of the BPL recursion (Theorem 5, ``d > 0``)."""
    e_eps = math.exp(eps)
    root = math.sqrt(4.0 * d * e_eps * (1.0 - q) + (d + q * e_eps - 1.0) ** 2)
    return math.log((root + d + q * e_eps - 1.0) / (2.0 * d))


def self_test() -> None:
    """Check the oracle on cases whose answers are known in closed form;
    raises ``RuntimeError`` on a mismatch."""
    # No correlation (identical rows): L == 0, so TPL_t == eps at every t.
    flat = LossOracle([[0.5, 0.5], [0.5, 0.5]])
    _, _, tpl = leakage_series(flat, flat, [0.3] * 50)
    if not np.all(tpl == 0.3):
        raise RuntimeError("oracle: uncorrelated TPL is not eps")
    # Theorem 5 on a symmetric 2-state chain: both ordered pairs share
    # q = p and d = 1 - p, so the supremum is the closed form's.
    for p, eps in ((0.8, 0.1), (0.9, 0.5), (0.6, 1.0)):
        loss = LossOracle([[p, 1.0 - p], [1.0 - p, p]])
        bpl, _, _ = leakage_series(loss, loss, [eps] * 4000)
        expected = _theorem5_supremum(p, 1.0 - p, eps)
        if abs(float(bpl[-1]) - expected) > 1e-9:
            raise RuntimeError(
                f"oracle: BPL limit {bpl[-1]!r} != Theorem 5 {expected!r} "
                f"(p={p}, eps={eps})"
            )
    # Perfect correlation: L(a) == a, so BPL grows by eps every step.
    ident = LossOracle([[1.0, 0.0], [0.0, 1.0]])
    if abs(ident(0.7) - 0.7) > 1e-12:
        raise RuntimeError("oracle: identity chain does not give L(a) == a")
