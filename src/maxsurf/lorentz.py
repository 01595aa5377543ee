"""Linear algebra of Lorentz-Minkowski 3-space.

The ambient space is R^3 with the scalar product

    <u, v> = u_x v_x + u_y v_y - u_z v_z,

so the signature is (+, +, -) and the z-axis is the timelike direction.
All operations accept numpy arrays of shape (..., 3) and broadcast over
leading axes; entries may be real or complex (the bilinear extension,
with no conjugation).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

SIGNATURE = np.array([1.0, 1.0, -1.0])

# Metric matrix eta = diag(1, 1, -1), used by the isometry checks.
ETA = np.diag(SIGNATURE)


class CausalCharacter(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


def vec3(x, y, z) -> np.ndarray:
    """Stack components into a (..., 3) array along the last axis."""
    return np.stack(np.broadcast_arrays(np.asarray(x), np.asarray(y), np.asarray(z)), axis=-1)


def lorentz_dot(u, v) -> np.ndarray:
    """Bilinear scalar product <u, v> = u_x v_x + u_y v_y - u_z v_z."""
    u = np.asarray(u)
    v = np.asarray(v)
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2]


def lorentz_norm(v) -> np.ndarray:
    """sqrt(|<v, v>|), the causal-character-agnostic magnitude (real input)."""
    return np.sqrt(np.abs(lorentz_dot(v, v)))


def lorentz_cross(u, v) -> np.ndarray:
    """Cross product adapted to the metric: <u x v, w> = det(u, v, w).

    Componentwise
        (u x v)_x = u_y v_z - u_z v_y
        (u x v)_y = u_z v_x - u_x v_z
        (u x v)_z = -(u_x v_y - u_y v_x)
    so only the z-component differs from the Euclidean product, by sign.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    out = np.empty(np.broadcast_shapes(u.shape, v.shape), np.result_type(u, v))
    tmp = np.empty(out.shape[:-1], out.dtype)
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(u[..., i], v[..., j], out=out[..., k])
        np.subtract(out[..., k], np.multiply(u[..., j], v[..., i], out=tmp),
                    out=out[..., k])
    np.negative(out[..., 2], out=out[..., 2])
    return out


def default_lightlike_tol(v) -> float:
    """Scale-aware tolerance for deciding <v, v> = 0: 1e-10 * (1 + |v|_E^2)."""
    v = np.asarray(v, dtype=float)
    return 1e-10 * (1.0 + float(np.sum(v * v, axis=-1).max()))


def causal_character(v, tol: float | None = None) -> CausalCharacter:
    """Classify a single real vector as spacelike, timelike, or lightlike.

    A vector is lightlike when |<v, v>| <= tol; the default tolerance scales
    with the squared Euclidean magnitude so that e.g. 1e6*(1,0,1) still
    classifies as lightlike.
    """
    v = np.asarray(v, dtype=float)
    if tol is None:
        tol = default_lightlike_tol(v)
    q = float(lorentz_dot(v, v))
    if abs(q) <= tol:
        return CausalCharacter.LIGHTLIKE
    return CausalCharacter.SPACELIKE if q > 0 else CausalCharacter.TIMELIKE
