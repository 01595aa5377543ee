"""Numerical verification of surface patches.

Everything here measures a SurfacePatch through bjorling.derivatives, so
the same measurements apply to closed-form catalog patches and to
quadrature-built Björling patches: fundamental forms, mean curvature
residual, the spacelike mask, recovery of the prescribed core curve and
normal field, and equivariance under the rigid motion groups.  They
return residuals; `maxsurf verify` names each check, sets its tolerance
and judges it as a CheckResult.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .bjorling import (_MAX_NODES, _PASS_POINTS, SurfacePatch, derivatives,
                       reference_normal, shifted_values)
from .frames import finite_real
from .lorentz import lorentz_cross, lorentz_dot
from .motions import MotionGroup, isometry_defect  # noqa: F401 (re-exported)

__all__ = [
    "Grid", "FundamentalForms", "CheckResult", "fundamental_forms",
    "mean_curvature_scan", "conformality_residual", "spacelike_region",
    "grid_stencil", "bjorling_recovery", "equivariance",
]


@dataclass(frozen=True)
class Grid:
    """Rectangular sample grid, nodes at the linspace of each axis; at most
    bjorling._MAX_NODES nodes, which numpy can index in every array made.
    The bounds are stored as floats."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    nu: int = 21
    nv: int = 21

    def __post_init__(self):
        if not all(isinstance(n, Integral) and not isinstance(n, bool)
                   for n in (self.nu, self.nv)):
            raise ValueError(f"grid node counts must be integers, got "
                             f"{self.nu!r}x{self.nv!r}")
        if self.nu < 2 or self.nv < 2:
            raise ValueError(f"grid needs at least 2x2 nodes, got {self.nu}x{self.nv}")
        if int(self.nu) * int(self.nv) > _MAX_NODES:
            raise ValueError(f"grid needs at most {_MAX_NODES} nodes, got "
                             f"{self.nu}x{self.nv}")
        bounds = (self.u_min, self.u_max, self.v_min, self.v_max)
        if not all(map(finite_real, bounds)):
            raise ValueError(f"grid bounds must be finite, got {bounds}")
        for name, value in zip(("u_min", "u_max", "v_min", "v_max"), bounds):
            object.__setattr__(self, name, float(value))
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError(f"grid bounds must be increasing, got {bounds}")
        spans = (self.u_max - self.u_min, self.v_max - self.v_min)
        if not all(map(finite_real, spans)):
            raise ValueError(f"grid spans must be finite, got {spans}")

    @classmethod
    def from_domain(cls, domain, nu: int = 21, nv: int = 21) -> "Grid":
        return cls(*domain, nu=nu, nv=nv)

    def axes(self):
        return (np.linspace(self.u_min, self.u_max, self.nu),
                np.linspace(self.v_min, self.v_max, self.nv))

    def mesh(self, sparse: bool = False):
        """Node coordinates (U, V), indexed [i, j]; sparse gives U as
        (nu, 1) and V as (1, nv), for patches that broadcast them."""
        us, vs = self.axes()
        return np.meshgrid(us, vs, indexing="ij", sparse=sparse)

    def row_blocks(self, nodes: int, sparse: bool = False):
        """(rows, (U, V)) for each block of consecutive rows of at most
        `nodes` nodes (one row when a row holds more): `rows` is the slice
        of the block's rows, and (U, V) its part of mesh(sparse)."""
        us, vs = self.axes()
        step = max(1, nodes // self.nv)
        for i in range(0, self.nu, step):
            yield slice(i, i + step), np.meshgrid(
                us[i:i + step], vs, indexing="ij", sparse=sparse)

    def describe(self) -> str:
        return (f"[{self.u_min:g},{self.u_max:g}]x[{self.v_min:g},{self.v_max:g}] "
                f"{self.nu}x{self.nv}")


class FundamentalForms(NamedTuple):
    """First and second fundamental form coefficients on a node set.

    degenerate marks nodes where E G - F^2 fell below the tolerance; second
    form values there are unreliable and should be masked by the caller.
    """

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    e: np.ndarray
    f: np.ndarray
    g2: np.ndarray
    degenerate: np.ndarray


def _first_form(stencil):
    xu, xv = stencil[:2]
    return lorentz_dot(xu, xu), lorentz_dot(xu, xv), lorentz_dot(xv, xv)


def _forms(stencil, degenerate_tol):
    xu, xv, xuu, xuv, xvv = stencil
    E, F, G = _first_form(stencil)
    nn = lorentz_cross(xu, xv)
    q = np.abs(lorentz_dot(nn, nn))
    scale = np.sqrt(np.where(q > 0.0, q, 1.0))
    normal = nn / scale[..., None]
    return FundamentalForms(E=E, F=F, G=G,
                            e=lorentz_dot(xuu, normal),
                            f=lorentz_dot(xuv, normal),
                            g2=lorentz_dot(xvv, normal),
                            degenerate=E * G - F * F <= degenerate_tol)


def grid_stencil(patch: SurfacePatch, grid: Grid, h=1e-3, second=True):
    """bjorling.derivatives at the grid nodes, for the scans to share."""
    return derivatives(patch, *grid.mesh(sparse=patch.broadcasts), h, second)


def fundamental_forms(patch: SurfacePatch, u, v, h: float = 1e-3,
                      degenerate_tol: float = 1e-10) -> FundamentalForms:
    """Fundamental forms from bjorling.derivatives at step h.

    The normal is the Lorentz cross of the tangents, normalized by the
    square root of |<n, n>|; for a spacelike patch it is the unit timelike
    normal.  Works on scalars or broadcastable arrays.
    """
    return _forms(derivatives(patch, u, v, h, second=True), degenerate_tol)


def mean_curvature_scan(patch: SurfacePatch, grid: Grid, h: float = 1e-3,
                        exclude_tol: float = 1e-4, stencil=None):
    """Mean curvature residual over a grid, with the excluded nodes.

    Returns (max residual over kept nodes, list of excluded (u, v)).  Nodes
    where E G - F^2 <= exclude_tol are excluded, as the residual divides by
    it; the bound is absolute, so what it excludes depends on the scale of
    the surface.
    `stencil`, if given, is grid_stencil(patch, grid, h), computed once.
    """
    ff = _forms(stencil or grid_stencil(patch, grid, h), exclude_tol)
    det = ff.E * ff.G - ff.F * ff.F
    kept = ~ff.degenerate
    num = np.abs(ff.e * ff.G - 2.0 * ff.f * ff.F + ff.g2 * ff.E)
    den = 2.0 * np.abs(np.where(kept, det, 1.0))
    residual = np.where(kept, num / den, 0.0)
    U, V = grid.mesh()
    flagged = tuple((float(U[i, j]), float(V[i, j]))
                    for i, j in zip(*np.nonzero(~kept)))
    value = float(np.max(residual[kept])) if np.any(kept) else float("nan")
    return value, flagged


def conformality_residual(patch: SurfacePatch, grid: Grid,
                          h: float = 1e-3, stencil=None) -> float:
    """Max of |E - G| and |F| over the grid; zero for conformal parameters.
    `stencil`, if given, is grid_stencil(patch, grid, h), computed once."""
    E, F, G = _first_form(stencil or grid_stencil(patch, grid, h, False))
    return float(np.max([np.max(np.abs(E - G)), np.max(np.abs(F))]))


def spacelike_region(patch: SurfacePatch, grid: Grid, h: float = 1e-3):
    """Boolean mask: E > 0 and E G - F^2 > 0 at each grid node.

    The tangents, bjorling.derivatives at step h, are scaled exactly at
    each node by the power of two that puts their largest component in
    [1/2, 1), so that no surface is too large or small for the test.  They
    run over blocks of rows of at most _PASS_POINTS nodes (one row when a
    row holds more), bounding their memory; the split changes no bit."""
    blocks = []
    for _, mesh in grid.row_blocks(_PASS_POINTS, patch.broadcasts):
        xu, xv = derivatives(patch, *mesh, h)
        top = np.maximum(np.abs(xu), np.abs(xv))
        e = -np.frexp(np.maximum(np.maximum(top[..., 0], top[..., 1]),
                                 top[..., 2]))[1][..., None]
        E, F, G = _first_form((np.ldexp(xu, e), np.ldexp(xv, e)))
        blocks.append((E > 0.0) & (E * G - F * F > 0.0))
    return np.concatenate(blocks)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check: residual against tolerance."""

    name: str
    residual: float
    tolerance: float
    grid: str = ""
    flagged: tuple = ()
    note: str = ""

    @property
    def passed(self) -> bool:
        """Whether residual < tolerance; a NaN residual fails."""
        return bool(self.residual < self.tolerance)

    def to_dict(self):
        out = {"name": self.name, "residual": self.residual,
               "tolerance": self.tolerance, "passed": self.passed}
        if self.grid:
            out["grid"] = self.grid
        if self.flagged:
            out["flagged"] = [list(p) for p in self.flagged]
        if self.note:
            out["note"] = self.note
        return out


def bjorling_recovery(patch: SurfacePatch, data, u_grid):
    """Residuals of a patch against its prescribed curve and normal field.

    Returns (position residual, normal residual, note) over the sampled u.
    The normal sign is resolved once per patch (the construction fixes it
    only up to orientation) and the same sign is then required at every
    sampled u; the note gives it, or, with an infinite normal residual,
    why reference_normal found no normal.
    """
    us = np.asarray(u_grid, dtype=float)
    alpha = np.real(np.asarray(data.alpha(us)))
    pos_res = float(np.max(np.abs(patch(us, 0.0) - alpha)))
    try:
        normals = reference_normal(patch, us)
    except ValueError as exc:
        return pos_res, float("inf"), str(exc)
    field = np.real(np.asarray(data.normal_field(us)))
    d_plus = float(np.max(np.abs(normals - field)))
    d_minus = float(np.max(np.abs(normals + field)))
    return (pos_res, min(d_plus, d_minus),
            f"sign {1 if d_plus <= d_minus else -1:+d}")


def equivariance(patch: SurfacePatch, group: MotionGroup, thetas,
                 grid: Grid) -> float:
    """Largest |Psi(theta) X(u, v) - X(u + theta, v)| over a theta set and
    grid; np.max, unlike max, keeps a NaN residual, which then fails."""
    base, *targets = shifted_values(
        patch, *grid.mesh(sparse=patch.broadcasts),
        [(0.0, 0.0)] + [(theta, 0.0) for theta in thetas])
    return float(np.max([np.max(np.abs(group.apply(theta, base) - target))
                         for theta, target in zip(thetas, targets)]))
