"""Generalized-probabilistic-theory layer: cones, effects, and agreement.

A theory is a pointed convex cone with a linear unit functional; states are
cone elements of unit value. A state-valued measure assigns a cone element
to each world with unit total. Three cone kinds are supported: the
nonnegative orthant (classical), the PSD cone in Hermitian-matrix
coordinates (quantum), and finitely generated polyhedral cones.

Hermitian matrices enter coordinates through a fixed orthonormal basis
(Frobenius inner product): the ``k`` unit diagonal matrices, then
``(E_jk + E_kj)/sqrt(2)`` and ``i(E_jk - E_kj)/sqrt(2)`` for ``j < k`` in
row-major order. :func:`vectorize` and :func:`devectorize` realize the
isometry, so serialized coordinates are portable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, isqrt, sqrt
from typing import Sequence

import numpy as np

from . import _EXPORTS
from .classical import ProbabilityMeasure
from .errors import ConditioningOnNull, as_array, require_finite, require_worlds
from .knowledge import Event, KnowledgeModel
from .quantum import Dovm, require_hermitian
from .tolerances import (
    CONE_FEAS_TOL,
    HERMITIAN_LOOSE_TOL,
    MATCH_TOL,
    NULL_MASS_TOL,
    PSD_EIG_TOL,
    WEIGHT_SUM_TOL,
)
from .verdicts import AgreementVerdict, _agreement_event, _event_value, _Layer, _verify

__all__ = _EXPORTS["gpt"]

_SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def hermitian_basis(k: int) -> np.ndarray:
    """Orthonormal Hermitian basis of the ``k x k`` matrices, shape ``(k*k, k, k)``.

    Order: unit diagonals ``E_00..E_(k-1)(k-1)``, symmetric pairs, then
    antisymmetric pairs, pairs in row-major ``j < k`` order.
    """
    if k < 1:
        raise ValueError("matrix dimension must be positive")
    basis = np.zeros((k * k, k, k), dtype=complex)
    for i in range(k):
        basis[i, i, i] = 1.0
    pos = k
    pairs = [(j, l) for j in range(k) for l in range(j + 1, k)]
    for j, l in pairs:
        basis[pos, j, l] = basis[pos, l, j] = 1.0 / _SQRT2
        pos += 1
    for j, l in pairs:
        basis[pos, j, l] = 1.0j / _SQRT2
        basis[pos, l, j] = -1.0j / _SQRT2
        pos += 1
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=None)
def _upper_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strictly upper triangle, row-major."""
    rows, cols = np.triu_indices(k, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def vectorize(m: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in :func:`hermitian_basis` order."""
    return _vectorize_rows(require_hermitian(m, tol=HERMITIAN_LOOSE_TOL)[None])[0]


def _vectorize_rows(h: np.ndarray) -> np.ndarray:
    """Coordinates of each matrix in a Hermitian ``(n, k, k)`` stack, shape ``(n, k*k)``."""
    rows, cols = _upper_pairs(h.shape[-1])
    upper = h[:, rows, cols]
    diagonal = np.diagonal(h, axis1=1, axis2=2).real
    return np.concatenate([diagonal, _SQRT2 * upper.real, _SQRT2 * upper.imag], axis=1)


def devectorize(v: np.ndarray) -> np.ndarray:
    """Hermitian matrix with the given coordinates (inverse of :func:`vectorize`)."""
    return _devectorize_rows(np.asarray(v, dtype=float).reshape(1, -1))[0]


def _devectorize_rows(vs: np.ndarray) -> np.ndarray:
    """Hermitian ``(n, k, k)`` stack from coordinate rows of shape ``(n, k*k)``."""
    n, size = vs.shape
    k = isqrt(size)
    if k * k != size:
        raise ValueError(f"coordinate length {size} is not a perfect square")
    n_pairs = k * (k - 1) // 2
    m = np.zeros((n, k, k), dtype=complex)
    diag = np.arange(k)
    m[:, diag, diag] = vs[:, :k]
    rows, cols = _upper_pairs(k)
    upper = (vs[:, k : k + n_pairs] + 1.0j * vs[:, k + n_pairs :]) / _SQRT2
    m[:, rows, cols] = upper
    m[:, cols, rows] = upper.conj()
    return m


class ConeSpace:
    """Pointed convex cone in ``R^dim`` with a linear unit functional."""

    kind = "abstract"

    def __init__(self, dim: int, unit: np.ndarray):
        if dim < 1:
            raise ValueError("cone dimension must be positive")
        unit = np.asarray(unit, dtype=float)
        if unit.shape != (dim,):
            raise ValueError(f"unit functional must have shape ({dim},), got {unit.shape}")
        require_finite(unit, "unit functional")
        unit = unit.copy()
        unit.flags.writeable = False
        self._dim = dim
        self._unit = unit

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def unit(self) -> np.ndarray:
        return self._unit

    def _coerce(self, v) -> np.ndarray:
        a = np.asarray(v, dtype=float)
        if a.shape != (self._dim,):
            raise ValueError(f"expected a vector of length {self._dim}, got shape {a.shape}")
        return a

    def contains(self, v, tol: float | None = None) -> bool:
        return bool(self._members(self._coerce(v)[None], tol)[0])

    def _members(self, vs: np.ndarray, tol: float | None = None) -> np.ndarray:
        """Membership of each row of an ``(n, dim)`` array, as booleans.

        Non-finite coordinates raise ``ValueError`` before any solver runs.
        """
        require_finite(vs, "cone coordinates")
        return self._member_rows(vs, tol)

    def _member_rows(self, vs: np.ndarray, tol: float | None) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self._dim})"


class SimplexCone(ConeSpace):
    """Nonnegative orthant; unit functional sums the coordinates."""

    kind = "simplex"

    def __init__(self, dim: int):
        super().__init__(dim, np.ones(dim))

    def _member_rows(self, vs: np.ndarray, tol: float | None) -> np.ndarray:
        tol = PSD_EIG_TOL if tol is None else tol
        return (vs >= -tol).all(axis=1)


class PsdCone(ConeSpace):
    """PSD matrices in Hermitian-basis coordinates; unit is the trace functional."""

    kind = "psd"

    def __init__(self, matrix_dim: int):
        if matrix_dim < 1:
            raise ValueError("matrix dimension must be positive")
        self._matrix_dim = matrix_dim
        # The trace functional is vectorize(identity): ones on the diagonal coordinates.
        unit = np.concatenate([np.ones(matrix_dim), np.zeros(matrix_dim * matrix_dim - matrix_dim)])
        super().__init__(matrix_dim * matrix_dim, unit)

    @property
    def matrix_dim(self) -> int:
        return self._matrix_dim

    def _member_rows(self, vs: np.ndarray, tol: float | None) -> np.ndarray:
        tol = PSD_EIG_TOL if tol is None else tol
        return np.linalg.eigvalsh(_devectorize_rows(vs))[:, 0] >= -tol


# Certificates for polyhedral cones. These constants choose which points
# the certificates decide and which go to the exact NNLS, not the rule: a
# point is a member when its distance to the cone is at most tol. A cone
# whose candidate normals need more than _MAX_FACET_MINORS minors,
# C(m, dim-1) * dim, gets no facets: past that, enumerating them costs more
# than the fit certificate below (about 40 us per cone; the facets take about
# as long at dim 3 with 6 generators, 45 minors, and twice as long at dim 4
# with 8, 224 minors).
_MAX_FACET_MINORS = 64
# A (dim-1)-subset of unit generators whose cofactor normal, of length the
# subset's volume, is at most _DEPENDENT_VOLUME long is dependent and spans
# no facet. A cone gets no facets when a volume lies in (_DEPENDENT_VOLUME,
# _MIN_VOLUME], too close to dependent for its normal to be trusted, or when
# no generator is more than _MIN_VOLUME (a sine) off a candidate hyperplane:
# the generators' rank is below dim, or nearly.
_DEPENDENT_VOLUME = 1e-12
_MIN_VOLUME = 1e-4
# A normal is kept as a facet when no unit generator lies more than this on
# its negative side; the same figure bounds the round-off in a kept normal.
_FACET_SLACK = 1e-9
# A residual of v computed in floating point carries round-off of a few
# units in the last place of max |v_i|; one within that of tol counts as at
# most tol.
_NNLS_ROUNDOFF = 8 * np.finfo(float).eps


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Rows of ``x`` scaled to unit length; scaling by the largest entry
    first keeps the norms from overflowing or underflowing."""
    scaled = x / np.abs(x).max(axis=-1, keepdims=True)
    return scaled / np.linalg.norm(scaled, axis=-1, keepdims=True)


@lru_cache(maxsize=64)
def _cofactor_index(m: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays that take the ``(C, dim, dim-1, dim-1)`` stack of minors
    of every (dim-1)-subset of ``m`` generators, one per dropped column, in
    one gather; and the cofactor signs of the columns."""
    subsets = np.array(list(combinations(range(m), dim - 1)), dtype=np.intp)
    columns = np.array([[c for c in range(dim) if c != j] for j in range(dim)], dtype=np.intp)
    rows = subsets[:, None, :, None]
    cols = columns[None, :, None, :]
    signs = (-1.0) ** np.arange(dim)
    for a in (rows, cols, signs):
        a.flags.writeable = False
    return rows, cols, signs


def _facet_normals(unit_gens: np.ndarray) -> np.ndarray | None:
    """Unit inward facet normals of the cone spanned by the unit generators,
    or ``None`` when they cannot certify membership.

    Every facet of a full-dimensional cone is spanned by dim-1 independent
    generators, so each candidate is the cofactor normal of a (dim-1)-subset;
    it is a facet when every generator lies on one side.
    """
    m, dim = unit_gens.shape
    if m < dim or comb(m, dim - 1) * dim > _MAX_FACET_MINORS:
        return None
    rows, cols, signs = _cofactor_index(m, dim)
    normals = np.linalg.det(unit_gens[rows, cols]) * signs
    volumes = np.linalg.norm(normals, axis=1)
    independent = volumes > _DEPENDENT_VOLUME
    volumes = volumes[independent]
    if (volumes <= _MIN_VOLUME).any():
        return None
    normals = normals[independent] / volumes[:, None]
    sides = unit_gens @ normals.T  # sines of the angles between generators and hyperplanes
    if not np.abs(sides).max(initial=0.0) > _MIN_VOLUME:
        return None  # rank below dim, or too close to it
    facets = np.concatenate(
        [normals[sides.min(axis=0) >= -_FACET_SLACK], -normals[sides.max(axis=0) <= _FACET_SLACK]]
    )
    return facets if facets.shape[0] else None


def _least_change_fit(basis: np.ndarray) -> np.ndarray:
    """The ``(dim, m)`` map taking ``v`` to the least-squares solution of
    ``basis @ x = v`` nearest the uniform combination ``t * 1`` that matches
    ``v`` along ``basis @ 1``. For a point well inside the cone that
    solution is nonnegative, and certifies the point a member."""
    pinv = np.linalg.pinv(basis)
    center = basis.sum(axis=1)
    return pinv.T + np.outer(center / (center @ center), 1.0 - pinv @ center)


def _certificates(
    unit_gens: np.ndarray, unit: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray | None]:
    """Unit normals whose half-spaces hold the cone, their relative
    round-off margin, and a fit that certifies members when the normals are
    not all of the cone's facets (``None`` when they are).

    A point outside one half-space by more than ``tol`` is outside the cone,
    because the distance to a supporting half-space is at most the distance
    to the cone. The normals are the facets when they can be enumerated,
    else the unit functional alone. Inside every facet means inside the
    cone; without the facets, a point is certified a member by a
    nonnegative combination of the generators within ``tol`` of it. A kept
    facet is within ``_FACET_SLACK`` of supporting the cone, so a point
    ``p`` of the cone has ``F @ p >= -_FACET_SLACK * |p| / alpha``, where
    ``alpha`` is the least cosine between the unit functional and a
    generator; the margin is that figure per unit of ``max |p_i|``.
    """
    m, dim = unit_gens.shape
    if np.abs(unit).max() > 0:
        unit = _unit_rows(unit)
    values = unit_gens @ unit
    alpha = float(values.min())
    if not alpha > 0:  # the cone is rejected; only a point near 0 is certified
        return np.empty((0, dim)), 0.0, np.zeros((dim, m))
    margin = _FACET_SLACK * (1.0 + 1.0 / alpha) * sqrt(dim)
    facets = _facet_normals(unit_gens)
    if facets is not None:
        return facets, margin, None
    # The fit runs on the generators scaled to unit value, where states are
    # mixtures of them; its coefficients are rescaled to the unit generators.
    return unit[None], margin, _least_change_fit(unit_gens.T / values) / values


def _nnls_residual(a: np.ndarray, b: np.ndarray, maxiter: int) -> float:
    """``min |a @ x - b|`` over ``x >= 0``, by the Lawson–Hanson active-set method.

    As in Lawson and Hanson's own code, the gradient is taken from the parts
    of the columns and of ``b`` orthogonal to the passive columns, which
    keeps it accurate when columns are nearly parallel. Each least-squares
    solve counts as one iteration; passing ``maxiter`` raises
    ``RuntimeError``. Scaling the columns to unit length and ``b`` to a
    largest entry of 1 leaves the residual unchanged up to the scale of
    ``b``, and keeps the norms finite.
    """
    a = a / np.linalg.norm(a, axis=0)
    scale = float(np.abs(b).max())
    if not scale > 0:
        return 0.0
    b = b / scale
    dim, n = a.shape
    eps = np.finfo(float).eps
    ab = np.column_stack([a, b])
    b_norm = sqrt(b @ b)
    iters = 0

    def solve(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least-squares coefficients of ``b`` on the columns, and the parts
        of ``a`` and ``b`` orthogonal to their span, which is zero when the
        columns span the whole space."""
        nonlocal iters
        iters += 1
        if iters > maxiter:
            raise RuntimeError(f"NNLS did not converge in {maxiter} iterations")
        coefficients, _, rank, _ = np.linalg.lstsq(a[:, columns], ab, rcond=None)
        z = np.zeros(n)
        z[columns] = coefficients[:, -1]
        return z, np.zeros_like(ab) if rank == dim else ab - a[:, columns] @ coefficients

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    off_span = ab
    while True:
        off_columns, residual = off_span[:, :-1], off_span[:, -1]
        residual_norm = sqrt(residual @ residual)
        off_norms = np.sqrt(np.einsum("ij,ij->j", off_columns, off_columns))
        w = off_columns.T @ residual
        # A gradient entry within its round-off cannot reduce the residual;
        # that includes every column (nearly) in the passive span.
        enters = ~passive & (w > 2 * dim * eps * (off_norms * b_norm + residual_norm))
        while True:  # the entering column must get a positive coefficient
            if not enters.any():
                return scale * residual_norm
            j = int(np.argmax(np.where(enters, w, -np.inf)))
            passive[j] = True
            z, next_off_span = solve(passive)
            if z[j] > 0:
                break
            passive[j] = enters[j] = False
        while (z[passive] <= 0).any():  # step back to the feasible boundary, drop the columns that hit it
            blocking = np.flatnonzero(passive & (z <= 0))
            ratios = x[blocking] / (x[blocking] - z[blocking])
            step = ratios.min()
            x += step * (z - x)
            x[blocking[ratios <= step]] = 0.0
            passive &= x > 0
            x[~passive] = 0.0
            z, next_off_span = solve(passive)
        x, off_span = z, next_off_span


class PolyhedralCone(ConeSpace):
    """Cone generated by finitely many rays.

    Construction enforces: finite, nonzero generators, ``u(g) > 0`` on every
    generator, and pointedness (no generator's negation is a nonnegative
    combination of the generators).

    A point ``v`` is a member when it is within Euclidean distance ``tol``
    (default ``CONE_FEAS_TOL``) of the cone, the residual of the nonnegative
    least-squares (NNLS) fit of ``v`` by the generators, up to a few units
    of round-off in the last place of ``|v|``.

    Certificates decide most points without the NNLS. When the cone's
    facets can be enumerated, a point inside all of them is a member, and a
    point more than ``tol`` outside one of them is not, up to a relative
    round-off margin: the distance to a facet's half-space is at most the
    distance to the cone. Otherwise the unit functional is the one such
    half-space, and a point is certified a member by a nonnegative
    combination of the generators within ``tol`` of it. The remaining
    points get the exact NNLS residual.
    """

    kind = "polyhedral"

    def __init__(self, generators: np.ndarray, unit: np.ndarray):
        g = np.asarray(generators, dtype=float)
        if g.ndim != 2 or g.shape[0] < 1:
            raise ValueError(f"generators must have shape (m, dim), got {g.shape}")
        require_finite(g, "generators")
        g = g.copy()
        g.flags.writeable = False
        self._generators = g
        super().__init__(g.shape[1], unit)
        if not (np.abs(g).max(axis=1) > 0).all():
            raise ValueError("generators must be nonzero")
        unit_gens = _unit_rows(g)
        self._basis = unit_gens.T
        self._certificates = _certificates(unit_gens, self._unit)
        negated_inside = self._members(-g)
        if negated_inside.any():
            j = int(np.argmax(negated_inside))
            raise ValueError(f"cone is not pointed: -generators[{j}] lies in the cone")
        values = g @ self._unit
        if (values <= 0).any():
            raise ValueError("unit functional must be strictly positive on every generator")

    @property
    def generators(self) -> np.ndarray:
        return self._generators

    def _member_rows(self, vs: np.ndarray, tol: float | None) -> np.ndarray:
        tol = CONE_FEAS_TOL if tol is None else tol
        if tol < 0:  # no distance is negative
            return np.zeros(vs.shape[0], dtype=bool)
        normals, relative_margin, fit = self._certificates
        peaks = np.abs(vs).max(axis=1)
        margin = relative_margin * peaks
        low = (vs @ normals.T).min(axis=1, initial=np.inf)  # minus the largest violation
        if fit is None:
            inside = low >= margin
        else:
            # |r| <= sqrt(dim) * max |r_i|, a bound that cannot overflow
            residuals = np.maximum(vs @ fit, 0.0) @ self._basis.T - vs
            bound = (tol + _NNLS_ROUNDOFF * peaks) / sqrt(self._dim)
            inside = np.abs(residuals).max(axis=1) <= bound
        # an overflowed product is NaN, and stays undecided
        undecided = ~inside & ~(low < -(tol + margin))
        # 50 least-squares solves per generator leave ample room on cones with one or two.
        maxiter = 50 * self._basis.shape[1]
        for i in np.flatnonzero(undecided):
            residual = _nnls_residual(self._basis, vs[i], maxiter)
            inside[i] = residual <= tol + _NNLS_ROUNDOFF * peaks[i]
        return inside


@dataclass(frozen=True, eq=False)
class Effect:
    """Linear functional between 0 and the unit in the cone order."""

    cone: ConeSpace
    functional: np.ndarray

    def __post_init__(self) -> None:
        f = self.cone._coerce(self.functional).copy()
        f.flags.writeable = False
        object.__setattr__(self, "functional", f)
        if not effect_valid(self.cone, f):
            raise ValueError("functional is not between 0 and the unit on the cone")

    def __call__(self, v) -> float:
        return float(self.functional @ self.cone._coerce(v))


def cone_membership(cone: ConeSpace, v, tol: float | None = None) -> bool:
    """Whether ``v`` lies in the cone, to tolerance ``tol`` (kind-specific default)."""
    return cone.contains(v, tol)


def effect_valid(cone: ConeSpace, phi) -> bool:
    """Whether ``0 <= phi(v) <= u(v)`` holds (within ``PSD_EIG_TOL``) across the cone.

    The simplex and PSD cones are self-dual, so there it holds when ``phi``
    and ``u - phi`` pass the cone's own membership check; a polyhedral cone
    checks both on its generators. A non-finite ``phi`` raises ``ValueError``.
    """
    f = phi.functional if isinstance(phi, Effect) else cone._coerce(phi)
    require_finite(f, "effect functional")
    if isinstance(cone, (SimplexCone, PsdCone)):
        return bool(cone._member_rows(np.stack([f, cone.unit - f]), None).all())
    if isinstance(cone, PolyhedralCone):
        gens = cone.generators
        lower = gens @ f
        upper = gens @ (cone.unit - f)
        return bool((lower >= -PSD_EIG_TOL).all() and (upper >= -PSD_EIG_TOL).all())
    raise TypeError(f"unsupported cone kind {cone.kind!r}")


@dataclass(frozen=True, eq=False)
class GptState:
    """Cone element with unit value 1."""

    cone: ConeSpace
    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = self.cone._coerce(self.coords).copy()
        if not self.cone.contains(coords):
            raise ValueError("coordinates lie outside the cone")
        u = float(self.cone.unit @ coords)
        if abs(u - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"unit value is {u!r}, expected 1")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)


@dataclass(frozen=True, eq=False)
class Svm:
    """State-valued measure: one cone element per world, unit total."""

    cone: ConeSpace
    atoms: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 2 or atoms.shape[0] < 1 or atoms.shape[1] != self.cone.dim:
            raise ValueError(f"atoms must have shape (n_worlds, {self.cone.dim}), got {atoms.shape}")
        inside = self.cone._members(atoms)
        if not inside.all():
            raise ValueError(f"atom {int(np.argmin(inside))} lies outside the cone")
        total_u = float(self.cone.unit @ atoms.sum(axis=0))
        if abs(total_u - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"total unit value is {total_u!r}, expected 1")
        atoms = atoms.copy()
        atoms.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)

    @property
    def n_worlds(self) -> int:
        return self.atoms.shape[0]

    @property
    def total(self) -> np.ndarray:
        return self.atoms.sum(axis=0)


def svm_value(mu: Svm, lam: Event) -> np.ndarray:
    """Measure value on ``lam``: the coordinate-wise sum of atoms."""
    require_worlds("event", lam.n, "SVM", mu.n_worlds)
    return _event_value(mu.atoms, lam)


def gpt_conditional_state(mu: Svm, lam: Event) -> GptState:
    """Conditional state ``mu(lam) / u[mu(lam)]``."""
    value = svm_value(mu, lam)
    u = float(mu.cone.unit @ value)
    if u <= NULL_MASS_TOL:
        raise ConditioningOnNull(f"event {lam.worlds()} has unit mass {u!r}")
    return GptState(mu.cone, value / u)


def _same_cone(a: ConeSpace, b: ConeSpace) -> bool:
    """Equal kind and unit and, for polyhedral cones, equal generators."""
    return a is b or (a.kind == b.kind and np.array_equal(a.unit, b.unit)
                      and (a.kind != "polyhedral" or np.array_equal(a.generators, b.generators)))


def _gpt_layer(model: KnowledgeModel, mu: Svm, targets: Sequence) -> _Layer:
    """An SVM for the agreement pipeline: values are sums of atoms, masses
    their unit values, and distance is the coordinate max-norm. Every
    target, state or raw, must have the SVM's cone dimension, and a state
    must belong to the SVM's cone."""
    require_worlds("SVM", mu.n_worlds, "model", model.n_worlds)
    unit = mu.cone.unit

    def distance(xs: np.ndarray, target: np.ndarray) -> np.ndarray:
        return np.abs(xs - target).max(axis=1)

    coords = tuple(
        t.coords if isinstance(t, GptState) else as_array(i, "a vector of numbers", t, "iuf").astype(float)
        for i, t in enumerate(targets)
    )
    for i, c in enumerate(coords):
        if c.shape != unit.shape:
            raise ValueError(f"target {i} must have shape {unit.shape}, got {c.shape}")
    for i, t in enumerate(targets):
        if isinstance(t, GptState) and not _same_cone(t.cone, mu.cone):
            raise ValueError(f"target {i} is a state of another cone than the SVM's")
    return _Layer(mu.atoms, lambda x: (x, x @ unit), lambda x: GptState(mu.cone, x), distance, coords)


def gpt_agreement_event(model: KnowledgeModel, mu: Svm, targets: Sequence, tol: float = MATCH_TOL) -> Event:
    """Worlds where every agent's cell-conditional state matches its target.

    Matching is coordinate max-norm distance at most ``tol``; worlds whose
    cell has unit mass at most ``NULL_MASS_TOL`` are excluded. Targets may be
    :class:`GptState` or plain coordinate vectors (an unnormalized target
    simply never matches).
    """
    return _agreement_event(model, _gpt_layer(model, mu, targets), tol)


def verify_gpt_aumann(
    model: KnowledgeModel, mu: Svm, targets: Sequence, tol: float = MATCH_TOL
) -> AgreementVerdict:
    """Check the GPT agreement theorem for target states ``targets``.

    Vacuous when the common knowledge of the agreement event is empty or has
    unit mass at most ``tol``; otherwise each target must be within ``tol``
    (max-norm) of the conditional state on the common event.
    """
    return _verify(model, _gpt_layer(model, mu, targets), tol)


def embed_classical(mu: ProbabilityMeasure) -> Svm:
    """Probability measure as an SVM over the simplex cone.

    The atom for world ``w`` is ``weight(w)`` times the ``w``-th basis
    vector, so conditional states are conditional distributions.
    """
    n = mu.n_worlds
    return Svm(SimplexCone(n), np.diag(mu.weights))


def embed_quantum(rho: Dovm) -> Svm:
    """DOVM as an SVM over the PSD cone in Hermitian-basis coordinates.

    Vectorization commutes with conditioning: trace normalization becomes
    unit-functional normalization.
    """
    return Svm(PsdCone(rho.dim), _vectorize_rows(rho.atoms))
