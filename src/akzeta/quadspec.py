"""Settings, result and error types of the numerical layer.

Kept apart from `zetanum` so that they need no numpy: the CLI builds and
validates a QuadratureSpec, and maps ConvergenceError to its exit code, for
every command, while only the numeric commands load `zetanum`.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

__all__ = ["QuadratureSpec", "QuadratureResult", "ConvergenceError", "default_spec"]

# Largest nodes per panel: numpy builds each rule from a nodes x nodes matrix,
# 8 MB at the cap and 74.5 GiB at 100000 nodes.
MAX_NODES = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the sech^2 tensor quadrature.

    panels/nodes set the starting composite Gauss-Legendre rule per w-axis
    (per t-axis for the Mellin routes); each refinement level doubles the
    panel count, up to `levels` levels (the finest has panels << (levels - 1)),
    and stops once two levels agree; nodes is at most MAX_NODES.
    u_nodes is unused: every unit-interval axis of a negative moment is
    integrated in closed form.  The field and its validation stay only
    because perfbench/workloads.py reads default_spec(k).u_nodes.
    """

    panels: int = 8
    nodes: int = 32
    levels: int = 3
    tolerance: float = 1e-8
    w_cutoff: float = 6.0
    u_nodes: int = 24

    def __post_init__(self):
        if min(self.panels, self.nodes, self.u_nodes) < 1 or self.nodes > MAX_NODES:
            raise ValueError(f"panels, nodes and u_nodes must be >= 1, nodes <= {MAX_NODES}")
        if self.levels < 2:
            raise ValueError("need at least 2 levels to declare convergence")
        if not (0 < self.tolerance < 1 and 0 < self.w_cutoff < math.inf):
            raise ValueError("tolerance must be in (0,1) and w_cutoff positive and finite")


def default_spec(k: int) -> QuadratureSpec:
    """Dimension-aware defaults: the tensor grid must shrink as its k axes grow.
    k = 2 starts coarse (2 panels, 5 levels) yet reaches the finest grid of a
    start at 8 panels with 3 levels, 32 panels of 32 nodes; at m <= 3 two
    levels agree already at 64 and 128 nodes per axis."""
    if k <= 1:
        return QuadratureSpec(panels=8, nodes=32, levels=3, tolerance=1e-9, w_cutoff=7.0)
    if k == 2:
        return QuadratureSpec(panels=2, nodes=32, levels=5, tolerance=1e-8, w_cutoff=5.0)
    return QuadratureSpec(
        panels=2, nodes=20, levels=3, tolerance=1e-6, w_cutoff=3.2, u_nodes=16
    )


@dataclass
class QuadratureResult:
    """A quadrature estimate; the imaginary residue is reported, never dropped.
    error_estimate is the refinement delta plus the tail and rounding bounds set."""

    value: float
    imag_residue: float
    convergence_delta: float
    levels_used: int
    tail_bound: float | None = None
    rounding_bound: float | None = None

    @property
    def error_estimate(self) -> float:
        return self.convergence_delta + (self.tail_bound or 0.0) + (self.rounding_bound or 0.0)

    def to_json(self) -> dict:
        out = {key: v for key, v in asdict(self).items() if v is not None}
        return {**out, "error_estimate": self.error_estimate}


class ConvergenceError(RuntimeError):
    """Quadrature refinement exhausted without meeting the tolerance."""

    def __init__(self, last_delta: float, levels: int):
        super().__init__(
            f"no convergence after {levels} refinement levels (last delta {last_delta:.3e})"
        )
        self.last_delta = last_delta
        self.levels = levels
