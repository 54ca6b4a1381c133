"""Time-stepping output container shared by the 1D and 2D solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import GridFn


@dataclass(frozen=True)
class Trajectory:
    """Solution record of one regularized solve.

    ``norms[m]`` holds the ``H^m`` norm at each of ``times``: every step
    for the 1D routes, the stored times for the pulled-back 2D solution.
    Full states are stored at a configurable stride (``state_times`` /
    ``states``) with the initial state always present, equal to the
    supplied datum.  ``meta`` carries the solver settings, what a route
    recorded along the run (``A0_max_seen``, ``f_norms``,
    ``residual_max_rel``) and, for pulled-back solutions, the conjugated
    trajectory under ``"conjugated"``.
    """

    times: np.ndarray
    norms: dict
    state_times: np.ndarray
    states: tuple
    meta: dict = field(default_factory=dict)

    def sup_norm(self, m: int) -> float:
        return float(np.max(self.norms[m]))

    def final_state(self) -> GridFn:
        return self.states[-1]
