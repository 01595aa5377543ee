"""One-parameter groups of rigid motions of Lorentz-Minkowski 3-space.

Each group is given by its matrix Psi(theta) (an isometry of the metric
diag(1, 1, -1)), plus a translation part for the screw motion.  The three
rotation groups fix an axis of each causal type:

    timelike axis (0,0,1):   Euclidean rotation in the xy-plane
    spacelike axis (1,0,0):  boost in the yz-plane
    lightlike axis (1,0,1):  parabolic rotation, quadratic in theta

The screw motion composes the timelike rotation with a vertical translation
proportional to the pitch.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .lorentz import ETA


class MotionGroup(NamedTuple):
    """One-parameter family theta -> x |-> Psi(theta) x + tau(theta)."""

    tag: str
    matrix: Callable[[float], np.ndarray]
    translation: Callable[[float], np.ndarray] | None = None

    def apply(self, theta: float, points):
        """Transform an array of points with shape (..., 3)."""
        points = np.asarray(points, dtype=float)
        out = points @ self.matrix(theta).T
        if self.translation is not None:
            out = out + self.translation(theta)
        return out


def rotation_timelike_axis() -> MotionGroup:
    def mat(theta):
        c, s = np.cos(theta), np.sin(theta)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    return MotionGroup("rotation-timelike-axis", mat)


def rotation_spacelike_axis() -> MotionGroup:
    def mat(theta):
        c, s = np.cosh(theta), np.sinh(theta)
        return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, s, c]])

    return MotionGroup("rotation-spacelike-axis", mat)


def rotation_lightlike_axis() -> MotionGroup:
    def mat(theta):
        t, q = theta, 0.5 * theta * theta
        return np.array([[1.0 - q, t, q], [-t, 1.0, t], [-q, t, q + 1.0]])

    return MotionGroup("rotation-lightlike-axis", mat)


def screw_timelike_axis(lam: float) -> MotionGroup:
    base = rotation_timelike_axis()

    def trans(theta):
        return np.array([0.0, 0.0, lam * theta])

    return MotionGroup("screw-timelike-axis", base.matrix, trans)


def isometry_defect(group: MotionGroup, theta: float) -> float:
    """Max-abs entry of M^T eta M - eta; zero for an exact isometry."""
    m = group.matrix(theta)
    return float(np.max(np.abs(m.T @ ETA @ m - ETA)))
