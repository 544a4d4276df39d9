"""Vertex distributions, time averages, and distances between runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .walk import WalkGraph


@dataclass(frozen=True)
class Distribution:
    """Probability per vertex, in `WalkGraph.labels` order, plus mass on padding states."""

    probs: np.ndarray
    leaked: float

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1:
            raise ValueError("probs must be a vector")
        if probs.min(initial=0.0) < -1e-12 or self.leaked < -1e-12:
            raise ValueError("probabilities must be nonnegative")
        object.__setattr__(self, "probs", probs)


def vertex_distribution(state: np.ndarray, g: WalkGraph) -> Distribution:
    """Marginal vertex probabilities of a state vector or density matrix.

    Coin values are summed out.  Mass on basis states outside the graph
    embedding (reflection trit 2, or rotation index at or above N) goes
    into `leaked`.
    """
    state = np.asarray(state)
    dim = 3**g.circuit_width
    if state.shape == (dim,):
        probs_full = np.abs(state) ** 2
    elif state.shape == (dim, dim):
        probs_full = np.diag(state).real
    else:
        raise ValueError(f"state shape {state.shape} does not fit width {g.circuit_width}")
    # Axes (coin, flag levels, rotation): the flag levels are those of the
    # dihedral reflection wire, or one level on cycles.
    arr = probs_full.reshape(3, -1, 3**g.n)
    reflections = g.num_vertices // g.N
    vertex = arr[:, :reflections, : g.N].sum(axis=0).reshape(g.num_vertices)
    leaked = float(arr[:, reflections:, :].sum() + arr[:, :reflections, g.N :].sum())
    return Distribution(vertex, leaked)


def time_average(dists: Sequence[Distribution]) -> Distribution:
    """Arithmetic mean of per-step distributions (conventionally t = 1..T)."""
    if not dists:
        raise ValueError("nothing to average")
    size = dists[0].probs.size
    if any(d.probs.size != size for d in dists):
        raise ValueError("distributions cover different vertex sets")
    probs = np.mean([d.probs for d in dists], axis=0)
    leaked = float(np.mean([d.leaked for d in dists]))
    return Distribution(probs, leaked)


def _vertex_probs(dist: Distribution | np.ndarray) -> np.ndarray:
    probs = dist.probs if isinstance(dist, Distribution) else np.asarray(dist, dtype=float)
    total = probs.sum()
    if total <= 0:
        raise ValueError("distribution has no mass on valid vertices")
    # Renormalize so leaked mass never distorts the comparison.
    return probs / total


def kl_divergence(
    p: Distribution | np.ndarray, q: Distribution | np.ndarray, floor: float = 1e-12
) -> float:
    """Relative entropy D(p || q) in bits.

    q is floored before renormalization so empty q-vertices stay finite;
    p-zeros contribute nothing.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    pv = _vertex_probs(p)
    qv = _vertex_probs(q)
    if pv.size != qv.size:
        raise ValueError("distributions cover different vertex sets")
    qv = np.maximum(qv, floor)
    qv = qv / qv.sum()
    mask = pv > 0
    return float(np.sum(pv[mask] * np.log2(pv[mask] / qv[mask])))


def tvd(p: Distribution | np.ndarray, q: Distribution | np.ndarray) -> float:
    """Total variation distance after the same renormalization as KL."""
    pv = _vertex_probs(p)
    qv = _vertex_probs(q)
    if pv.size != qv.size:
        raise ValueError("distributions cover different vertex sets")
    return float(0.5 * np.abs(pv - qv).sum())
