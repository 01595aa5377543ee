"""Vector algebra of the ambient space with signature (+, +, -)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxsurf.lorentz import (CausalCharacter, ETA, causal_character,
                             lorentz_cross, lorentz_dot, lorentz_norm, vec3)

# Bounded so products stay far from overflow; identities are checked with
# magnitude-scaled tolerances.
COORDS = st.floats(min_value=-1e3, max_value=1e3,
                   allow_nan=False, allow_infinity=False)
VECTORS = st.tuples(COORDS, COORDS, COORDS).map(lambda t: vec3(*t))


@pytest.mark.parametrize("comps", [
    (1, 0, 0),
    (1.0, 2, 3j),
    (np.float64(0.5), np.array(2), np.array(1.5 + 2j)),
    (np.arange(4), 1, np.arange(4) * 2),
    (np.linspace(0, 1, 3, dtype=np.float32), 0.0, np.float32(2.0)),
    (np.linspace(0, 1, 3, dtype=np.float32), np.ones(3, np.float32), 1),
    (np.exp(1j * np.arange(5)), np.arange(5.0), 0.0),
    (np.arange(3.0)[:, None], np.linspace(-1, 1, 4)[None, :], 0.25),
    (np.arange(3)[:, None], 0.0, np.exp(1j * np.arange(4))[None, :]),
], ids=["ints", "mixed-constants", "0-d", "int-arrays", "float32-constant",
        "float32-int", "complex", "n1-by-1m", "n1-by-1m-complex"])
def test_vec3_matches_a_stack_of_broadcast_components(comps):
    want = np.stack(np.broadcast_arrays(*map(np.asarray, comps)), axis=-1)
    got = vec3(*comps)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_metric_matrix():
    assert np.array_equal(ETA, np.diag([1.0, 1.0, -1.0]))


def test_dot_on_basis():
    e1, e2, e3 = np.eye(3)
    assert lorentz_dot(e1, e1) == 1.0
    assert lorentz_dot(e2, e2) == 1.0
    assert lorentz_dot(e3, e3) == -1.0
    assert lorentz_dot(e1, e2) == 0.0


def test_causal_characters():
    assert causal_character(vec3(1, 0, 0)) is CausalCharacter.SPACELIKE
    assert causal_character(vec3(0, 0, 1)) is CausalCharacter.TIMELIKE
    assert causal_character(vec3(1, 0, 1)) is CausalCharacter.LIGHTLIKE
    assert causal_character(vec3(3, 4, 5)) is CausalCharacter.LIGHTLIKE


@pytest.mark.parametrize("v", [vec3(np.nan, 0, 0), vec3(np.inf, 0, 0),
                               vec3(0, 0, -np.inf)])
def test_causal_character_refuses_a_vector_that_is_not_finite(v):
    with pytest.raises(ValueError, match="^causal character needs a finite "
                                         "vector"):
        causal_character(v)


def test_causal_character_tolerance_scales_with_magnitude():
    big = vec3(1e8, 0.0, 1e8 + 1e-4)
    assert causal_character(big) is CausalCharacter.LIGHTLIKE
    assert causal_character(big, tol=1e-16) is CausalCharacter.TIMELIKE


def test_cross_on_basis():
    # The convention is fixed by <u x v, w> = det(u, v, w): the third
    # component carries a sign relative to the Euclidean cross product.
    e1, e2, e3 = np.eye(3)
    assert np.allclose(lorentz_cross(e1, e2), vec3(0, 0, -1))
    assert np.allclose(lorentz_cross(e2, e3), vec3(1, 0, 0))
    assert np.allclose(lorentz_cross(e3, e1), vec3(0, 1, 0))


def test_cross_frozen_sample():
    u = vec3(1.0, 2.0, 3.0)
    v = vec3(-2.0, 0.5, 1.5)
    assert np.allclose(lorentz_cross(u, v), vec3(1.5, -7.5, -4.5), atol=0)


def test_norm_of_unit_timelike():
    assert lorentz_norm(vec3(0, 0, 1)) == pytest.approx(1.0)
    assert lorentz_norm(vec3(2, 0, 1)) == pytest.approx(np.sqrt(3.0))


def test_broadcasting():
    u = np.stack([vec3(1, 0, 0), vec3(0, 0, 1)])
    v = np.stack([vec3(0, 1, 0), vec3(0, 0, 2)])
    assert lorentz_dot(u, v).shape == (2,)
    assert lorentz_cross(u, v).shape == (2, 3)
    assert np.allclose(lorentz_dot(u, v), [0.0, -2.0])


@settings(deadline=None)
@given(u=VECTORS, v=VECTORS)
def test_cross_is_antisymmetric(u, v):
    scale = 1.0 + np.max(np.abs(u)) * np.max(np.abs(v))
    assert np.max(np.abs(lorentz_cross(u, v) + lorentz_cross(v, u))) \
        <= 1e-12 * scale


@settings(deadline=None)
@given(u=VECTORS, v=VECTORS)
def test_cross_is_orthogonal_to_factors(u, v):
    w = lorentz_cross(u, v)
    scale = 1.0 + (np.max(np.abs(u)) * np.max(np.abs(v))) ** 2
    assert abs(lorentz_dot(w, u)) <= 1e-12 * scale
    assert abs(lorentz_dot(w, v)) <= 1e-12 * scale


@settings(deadline=None)
@given(u=VECTORS, v=VECTORS, w=VECTORS)
def test_cross_pairs_with_determinant(u, v, w):
    # cofactor expansion along the first row: np.linalg.det's LU warns on
    # subnormal draws, and the warnings filter turns that into a failure
    det = (u[0] * (v[1] * w[2] - v[2] * w[1])
           - u[1] * (v[0] * w[2] - v[2] * w[0])
           + u[2] * (v[0] * w[1] - v[1] * w[0]))
    scale = 1.0 + np.max(np.abs(u)) * np.max(np.abs(v)) * np.max(np.abs(w))
    assert abs(lorentz_dot(lorentz_cross(u, v), w) - det) <= 1e-10 * scale


@settings(deadline=None)
@given(u=VECTORS, v=VECTORS)
def test_cross_norm_identity(u, v):
    # <u x v, u x v> = <u,v>^2 - <u,u><v,v>, the signature-flipped Lagrange
    # identity that decides whether a tangent plane is spacelike.
    w = lorentz_cross(u, v)
    lhs = lorentz_dot(w, w)
    rhs = lorentz_dot(u, v) ** 2 - lorentz_dot(u, u) * lorentz_dot(v, v)
    scale = 1.0 + (np.max(np.abs(u)) * np.max(np.abs(v))) ** 2
    assert abs(lhs - rhs) <= 1e-11 * scale


@settings(deadline=None)
@given(v=VECTORS)
def test_causal_character_total(v):
    assert causal_character(v) in (CausalCharacter.SPACELIKE,
                                   CausalCharacter.TIMELIKE,
                                   CausalCharacter.LIGHTLIKE)
