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
from typing import NamedTuple, Sequence

import numpy as np

from . import _EXPORTS
from .classical import ProbabilityMeasure
from .errors import as_array, require_finite, require_worlds
from .knowledge import Event, KnowledgeModel
from .quantum import Dovm, _first, _instances, require_hermitian
from .tolerances import (
    CONE_FEAS_TOL,
    HERMITIAN_LOOSE_TOL,
    MATCH_TOL,
    PSD_EIG_TOL,
    WEIGHT_SUM_TOL,
)
from .verdicts import (AgreementVerdict, _agreement_events, _Block, _conditional, _event_sums, _mask_rows, _Measures,
                       _model_block, _Rule, _verify)

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
    """Coordinates of each matrix in a Hermitian ``(..., k, k)`` stack, shape ``(..., k*k)``."""
    rows, cols = _upper_pairs(h.shape[-1])
    upper = h[..., rows, cols]
    diagonal = np.diagonal(h, axis1=-2, axis2=-1).real
    return np.concatenate([diagonal, _SQRT2 * upper.real, _SQRT2 * upper.imag], axis=-1)


def devectorize(v: np.ndarray) -> np.ndarray:
    """Hermitian matrix with the given finite coordinates (inverse of :func:`vectorize`)."""
    v = np.asarray(v, dtype=float)
    require_finite(v, "coordinates")
    return _devectorize_rows(v.reshape(1, -1))[0]


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


def _require_dim(dim: int) -> None:
    if dim < 1:
        raise ValueError("cone dimension must be positive")


def _unit_functionals(dim: int, units: np.ndarray) -> np.ndarray:
    """A ``(b, dim)`` stack of unit functionals, checked, as a read-only copy."""
    _require_dim(dim)
    if units.shape[1:] != (dim,):
        raise ValueError(f"unit functional must have shape ({dim},), got {units.shape[1:]}")
    require_finite(units, "unit functional")
    units = units.copy()
    units.flags.writeable = False
    return units


class ConeSpace:
    """Pointed convex cone in ``R^dim`` with a linear unit functional."""

    kind = "abstract"

    def __init__(self, dim: int, unit: np.ndarray):
        self._dim = dim
        self._unit = _unit_functionals(dim, np.asarray(unit, dtype=float)[None])[0]

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def unit(self) -> np.ndarray:
        return self._unit

    def _coerce(self, v, what: str) -> np.ndarray:
        """``v`` as a float vector of length ``dim``; a NaN or an infinity raises ``ValueError`` naming ``what``."""
        v = self._coerce_rows(np.asarray(v, dtype=float)[None])[0]
        require_finite(v, what)
        return v

    def _coerce_rows(self, vs) -> np.ndarray:
        """``vs`` as a float array of vectors of length ``dim`` along its first axis."""
        a = np.asarray(vs, dtype=float)
        if a.shape[1:] != (self._dim,):
            raise ValueError(f"expected a vector of length {self._dim}, got shape {a.shape[1:]}")
        return a

    def contains(self, v, tol: float | None = None) -> bool:
        return bool(_members_in([self], self._coerce(v, "cone coordinates")[None], np.zeros(1, dtype=np.intp), tol)[0])

    @staticmethod
    def _rows_in(cones: Sequence[ConeSpace], vs: np.ndarray, owners: np.ndarray, tol: float | None) -> np.ndarray:
        """Membership of each row ``vs[r]`` in ``cones[owners[r]]``, for :func:`_members_in` alone. A simplex
        or PSD cone is fixed by its dimension, so those kinds check every row alike."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self._dim})"


def _members_in(cones: Sequence[ConeSpace], vs: np.ndarray, owners: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Membership of each row ``vs[r]`` in its cone ``cones[owners[r]]``, as
    booleans, to tolerance ``tol`` (the kind's default when ``None``): the
    one membership check. The cones share their kind; a NaN or infinite
    coordinate or ``tol`` raises ``ValueError`` before any solver runs."""
    kind = type(cones[0])
    if any(type(c) is not kind for c in cones):
        raise ValueError("a block's cones must share their kind")
    require_finite(vs, "cone coordinates")
    if tol is not None:
        require_finite(tol, "tol")
    return kind._rows_in(cones, vs, owners, tol)


def _unit_values(cones: Sequence[ConeSpace], vs: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """The unit value of each row ``vs[r]`` under the unit functional of
    its cone ``cones[owners[r]]``, the products added in coordinate order
    (:func:`_row_dots`): the one rule for every GPT mass, so a row gets the
    same bits in any stack as alone."""
    first = cones[0]
    units = first.unit[None] if all(c is first for c in cones) else np.array([c.unit for c in cones])[owners]
    return _row_dots(units[:, None], vs)[:, 0]


class SimplexCone(ConeSpace):
    """Nonnegative orthant; unit functional sums the coordinates."""

    kind = "simplex"

    def __init__(self, dim: int):
        _require_dim(dim)
        super().__init__(dim, np.ones(dim))

    @staticmethod
    def _rows_in(cones: Sequence[ConeSpace], vs: np.ndarray, owners: np.ndarray, tol: float | None) -> np.ndarray:
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

    @staticmethod
    def _rows_in(cones: Sequence[ConeSpace], vs: np.ndarray, owners: np.ndarray, tol: float | None) -> np.ndarray:
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


def _facet_normals(unit_gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit inward facet normals of each cone of a ``(b, m, dim)`` stack of
    unit generators, stacked ``(b, F, dim)`` with each cone's padded by
    repeating its last, and how many each cone has: 0 when they cannot
    certify membership.

    Every facet of a full-dimensional cone is spanned by dim-1 independent
    generators, so each candidate is the cofactor normal of a (dim-1)-subset;
    it is a facet when every generator lies on one side.
    """
    b, m, dim = unit_gens.shape
    if m < dim or comb(m, dim - 1) * dim > _MAX_FACET_MINORS:
        return np.zeros((b, 1, dim)), np.zeros(b, dtype=np.intp)
    rows, cols, signs = _cofactor_index(m, dim)
    normals = np.linalg.det(unit_gens[:, rows, cols]) * signs
    volumes = np.linalg.norm(normals, axis=2)
    independent = volumes > _DEPENDENT_VOLUME
    trusted = ~(independent & (volumes <= _MIN_VOLUME)).any(axis=1)
    normals = normals / np.where(independent, volumes, 1.0)[..., None]
    sides = unit_gens @ normals.transpose(0, 2, 1)  # sines of the angles between generators and hyperplanes
    spread = np.where(independent[:, None, :], np.abs(sides), 0.0).max(axis=(1, 2))
    trusted &= spread > _MIN_VOLUME  # else the rank is below dim, or too close to it
    kept = independent[:, None, :] & np.stack([sides.min(axis=1) >= -_FACET_SLACK, sides.max(axis=1) <= _FACET_SLACK],
                                              axis=1)
    kept = kept.reshape(b, -1)  # the candidates as normals, then negated
    counts = np.where(trusted, kept.sum(axis=1), 0)
    # each cone's kept candidates, in order, then its last one repeated
    order = np.argsort(~kept, axis=1, kind="stable")
    last = np.maximum(counts, 1)[:, None] - 1
    pick = np.take_along_axis(order, np.minimum(np.arange(max(counts.max(), 1)), last), axis=1)
    candidates = np.concatenate([normals, -normals], axis=1)
    return np.take_along_axis(candidates, pick[..., None], axis=1), counts


def _least_change_fit(basis: np.ndarray) -> np.ndarray:
    """The ``(b, dim, m)`` maps taking ``v`` to the least-squares solution
    of ``basis[k] @ x = v`` nearest the uniform combination ``t * 1`` that
    matches ``v`` along ``basis[k] @ 1``. For a point well inside the cone
    that solution is nonnegative, and certifies the point a member."""
    pinv = np.linalg.pinv(basis)
    center = basis.sum(axis=2)[..., None]
    norms = center.transpose(0, 2, 1) @ center
    return pinv.transpose(0, 2, 1) + center / norms * (1.0 - pinv @ center).transpose(0, 2, 1)


class _Certificates(NamedTuple):
    """The membership certificates of a stack of polyhedral cones, entry
    ``k`` for cone ``k``.

    ``normals`` are unit normals whose half-spaces hold the cone, each
    cone's padded to the stack's length by repeating its last, which leaves
    their minimum unchanged; ``counts`` says how many are the cone's facets.
    ``margins`` are their relative round-off margins. Where a cone's normals
    are not all its facets (``fitted``), ``fits`` certify members; ``bases``
    hold the unit generators as columns, the NNLS's matrix.
    """

    normals: np.ndarray  # (c, F, dim)
    counts: np.ndarray  # (c,)
    margins: np.ndarray  # (c,)
    fitted: np.ndarray  # (c,) booleans
    fits: np.ndarray  # (c, dim, m)
    bases: np.ndarray  # (c, dim, m)


def _certificates(unit_gens: np.ndarray, units: np.ndarray) -> _Certificates:
    """The certificates of the cones of a ``(b, m, dim)`` stack of unit
    generators under their ``(b, dim)`` unit functionals.

    A point outside one half-space by more than ``tol`` is outside the cone,
    because the distance to a supporting half-space is at most the distance
    to the cone. The normals are the facets when they can be enumerated,
    else the unit functional alone. Inside every facet means inside the
    cone; without the facets, a point is certified a member by a
    nonnegative combination of the generators within ``tol`` of it. A kept
    facet is within ``_FACET_SLACK`` of supporting the cone, so a point
    ``p`` of the cone has ``F @ p >= -_FACET_SLACK * |p| / alpha``, where
    ``alpha`` is the least cosine between the unit functional and a
    generator; the margin is that figure per unit of ``max |p_i|``. A cone
    with ``alpha <= 0`` is rejected: its one normal is zero, its margin 0
    and its fit 0, so only a point near 0 is certified.
    """
    b, m, dim = unit_gens.shape
    units = units.copy()
    nonzero = np.abs(units).max(axis=1) > 0
    units[nonzero] = _unit_rows(units[nonzero])
    values = (unit_gens @ units[:, :, None])[..., 0]
    alphas = values.min(axis=1)
    valid = alphas > 0
    margins = np.zeros(b)
    margins[valid] = _FACET_SLACK * (1.0 + 1.0 / alphas[valid]) * sqrt(dim)
    normals, counts = _facet_normals(unit_gens)
    counts[~valid] = 0
    fitted = counts == 0
    normals[fitted] = np.where(valid[:, None], units, 0.0)[fitted, None, :]
    fits = np.zeros((b, dim, m))
    at = np.flatnonzero(fitted & valid)
    if at.size:
        # The fit runs on the generators scaled to unit value, where states
        # are mixtures of them; its coefficients are rescaled to the unit generators.
        scale = values[at, None, :]
        fits[at] = _least_change_fit(unit_gens[at].transpose(0, 2, 1) / scale) / scale
    return _Certificates(normals, counts, margins, fitted, fits, unit_gens.transpose(0, 2, 1))


def _row_dots(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a[r] @ v[r]`` for each ``r`` of an ``(n, k, d)`` and an ``(n, d)``
    stack, the products added in coordinate order: a row rounds alike in
    any stack, whatever its length and neighbours."""
    out = a[..., 0] * v[:, None, 0]
    for j in range(1, v.shape[1]):
        out += a[..., j] * v[:, None, j]
    return out


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

    Cones are built as a stack (:func:`_polyhedral_cones`, as a search
    block builds its seeds' cones): the certificates and the checks run
    once for the stack, and a constructed cone is a stack of one. Rows that
    each name their cone by an owner index are decided by one call on their
    stack's certificates (:func:`_members_in`), with each undecided point's
    own NNLS; cones of two stacks raise ``ValueError``.
    """

    kind = "polyhedral"

    def __init__(self, generators: np.ndarray, unit: np.ndarray):
        _build_polyhedral([self], np.asarray(generators, dtype=float)[None], np.asarray(unit, dtype=float)[None])

    @property
    def generators(self) -> np.ndarray:
        return self._generators

    @staticmethod
    def _rows_in(cones: Sequence[PolyhedralCone], vs: np.ndarray, owners: np.ndarray, tol: float | None) -> np.ndarray:
        stack = cones[0]._stack
        if any(c._stack is not stack for c in cones):
            raise ValueError("a block's polyhedral cones must be built as one stack")
        tol = CONE_FEAS_TOL if tol is None else tol
        if tol < 0:  # no distance is negative
            return np.zeros(vs.shape[0], dtype=bool)
        owner = np.array([c._at for c in cones], dtype=np.intp)[owners]
        peaks = np.abs(vs).max(axis=1)
        margin = stack.margins[owner] * peaks
        low = _row_dots(stack.normals[owner], vs).min(axis=1)  # minus the largest violation
        inside = low >= margin
        fitted = np.flatnonzero(stack.fitted[owner])
        if fitted.size:
            k, v = owner[fitted], vs[fitted]
            # |r| <= sqrt(dim) * max |r_i|, a bound that cannot overflow
            coefficients = np.maximum(_row_dots(stack.fits[k].transpose(0, 2, 1), v), 0.0)
            residuals = _row_dots(stack.bases[k], coefficients) - v
            bound = (tol + _NNLS_ROUNDOFF * peaks[fitted]) / sqrt(vs.shape[1])
            inside[fitted] = np.abs(residuals).max(axis=1) <= bound
        # an overflowed product is NaN, and stays undecided
        undecided = ~inside & ~(low < -(tol + margin))
        for i in np.flatnonzero(undecided):
            # 50 least-squares solves per generator leave ample room on cones with one or two.
            residual = _nnls_residual(stack.bases[owner[i]], vs[i], 50 * stack.bases.shape[2])
            inside[i] = residual <= tol + _NNLS_ROUNDOFF * peaks[i]
        return inside


def _build_polyhedral(cones: Sequence[PolyhedralCone], generators: np.ndarray, units: np.ndarray) -> None:
    """Build ``cones[k]`` from the ``(b, m, dim)`` stack of generators and
    the ``(b, dim)`` unit functionals, every check and the certificates
    once for the stack. A bad cone at index ``k`` raises what building it
    alone raises."""
    if generators.ndim != 3 or generators.shape[1] < 1:
        raise ValueError(f"generators must have shape (m, dim), got {generators.shape[1:]}")
    require_finite(generators, "generators")
    g = generators.copy()
    g.flags.writeable = False
    b, m, dim = g.shape
    units = _unit_functionals(dim, units)
    if not (np.abs(g).max(axis=2) > 0).all():
        raise ValueError("generators must be nonzero")
    unit_gens = _unit_rows(g)
    stack = _certificates(unit_gens, units)
    for k, cone in enumerate(cones):
        cone._dim, cone._unit, cone._generators, cone._stack, cone._at = dim, units[k], g[k], stack, k
    negated_inside = _members_in(cones, -g.reshape(-1, dim), np.repeat(np.arange(b), m)).reshape(b, m)
    if negated_inside.any():
        raise ValueError(f"cone is not pointed: -generators[{_first(negated_inside)[1]}] lies in the cone")
    if (_row_dots(g, units) <= 0).any():
        raise ValueError("unit functional must be strictly positive on every generator")


def _polyhedral_cones(generators: np.ndarray, units: np.ndarray) -> list[PolyhedralCone]:
    """The polyhedral cones of a ``(b, m, dim)`` stack of generators under
    their ``(b, dim)`` unit functionals, built as one stack."""
    cones = [object.__new__(PolyhedralCone) for _ in range(len(generators))]
    _build_polyhedral(cones, np.asarray(generators, dtype=float), np.asarray(units, dtype=float))
    return cones


@dataclass(frozen=True, eq=False)
class Effect:
    """Linear functional between 0 and the unit in the cone order."""

    cone: ConeSpace
    functional: np.ndarray

    def __post_init__(self) -> None:
        f = self.cone._coerce(self.functional, "effect functional").copy()
        f.flags.writeable = False
        object.__setattr__(self, "functional", f)
        if not effect_valid(self.cone, f):
            raise ValueError("functional is not between 0 and the unit on the cone")

    def __call__(self, v) -> float:
        return float(self.functional @ self.cone._coerce(v, "cone coordinates"))


def cone_membership(cone: ConeSpace, v, tol: float | None = None) -> bool:
    """Whether ``v`` lies in the cone, to tolerance ``tol`` (kind-specific default): no coordinate
    (simplex) or eigenvalue (PSD) is below ``-tol``, or the Euclidean distance to a polyhedral cone is
    at most ``tol``, which a negative ``tol`` admits nothing within. A NaN or infinite ``tol`` or
    coordinate raises ``ValueError``."""
    return cone.contains(v, tol)


def effect_valid(cone: ConeSpace, phi) -> bool:
    """Whether ``0 <= phi(v) <= u(v)`` holds (within ``PSD_EIG_TOL``) across the cone.

    The simplex and PSD cones are self-dual, so there it holds when ``phi``
    and ``u - phi`` pass the cone's own membership check; a polyhedral cone
    checks both on its generators. A non-finite ``phi`` raises ``ValueError``.
    """
    f = phi.functional if isinstance(phi, Effect) else cone._coerce(phi, "effect functional")
    if isinstance(cone, (SimplexCone, PsdCone)):
        return bool(_members_in([cone], np.stack([f, cone.unit - f]), np.zeros(2, dtype=np.intp)).all())
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
        object.__setattr__(self, "coords", self._check([self.cone], np.asarray(self.coords, dtype=float)[None])[0])

    @staticmethod
    def _check(cones: Sequence[ConeSpace], coords) -> np.ndarray:
        """The state check on a ``(b, dim)`` stack of coordinates, row ``k``
        a state of ``cones[k]``: each in its cone with unit value 1. Returns
        a read-only copy."""
        coords = cones[0]._coerce_rows(coords).copy()
        owners = np.arange(len(coords))
        if not _members_in(cones, coords, owners).all():
            raise ValueError("coordinates lie outside the cone")
        u = _unit_values(cones, coords, owners)
        bad = np.abs(u - 1.0) > WEIGHT_SUM_TOL
        if bad.any():
            raise ValueError(f"unit value is {float(u[np.argmax(bad)])!r}, expected 1")
        coords.flags.writeable = False
        return coords


@dataclass(frozen=True, eq=False)
class Svm:
    """State-valued measure: one cone element per world, unit total."""

    cone: ConeSpace
    atoms: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", self._check([self.cone], np.asarray(self.atoms, dtype=float)[None])[0])

    @staticmethod
    def _check(cones: Sequence[ConeSpace], atoms) -> np.ndarray:
        """The SVM check on a ``(b, n, dim)`` block of atom stacks, stack
        ``k`` over ``cones[k]``: atoms in their cone with unit total.
        Returns a read-only copy."""
        atoms = np.asarray(atoms, dtype=float)
        dim = cones[0].dim
        if atoms.ndim != 3 or atoms.shape[1] < 1 or atoms.shape[2] != dim:
            raise ValueError(f"atoms must have shape (n_worlds, {dim}), got {atoms.shape[1:]}")
        owners = np.repeat(np.arange(len(atoms)), atoms.shape[1])
        inside = _members_in(cones, atoms.reshape(-1, dim), owners).reshape(atoms.shape[:2])
        if not inside.all():
            raise ValueError(f"atom {_first(~inside)[1]} lies outside the cone")
        total_u = _unit_values(cones, atoms.sum(axis=1), np.arange(len(atoms)))
        bad = np.abs(total_u - 1.0) > WEIGHT_SUM_TOL
        if bad.any():
            raise ValueError(f"total unit value is {float(total_u[np.argmax(bad)])!r}, expected 1")
        atoms = atoms.copy()
        atoms.flags.writeable = False
        return atoms

    @property
    def n_worlds(self) -> int:
        return self.atoms.shape[0]

    @property
    def total(self) -> np.ndarray:
        return self.atoms.sum(axis=0)


def _same_cone(a: ConeSpace, b: ConeSpace) -> bool:
    """Equal kind and unit and, for polyhedral cones, equal generators."""
    return a is b or (a.kind == b.kind and np.array_equal(a.unit, b.unit)
                      and (a.kind != "polyhedral" or np.array_equal(a.generators, b.generators)))


# Values are sums of atoms, masses their unit values, distance the
# coordinate max-norm; a state is a GptState of its scenario's cone.
_RULE = _Rule(
    lambda x, cones, owners: (x, _unit_values(cones, x, owners)),
    lambda xs, ys: np.abs(xs - ys).max(axis=-1),
    lambda v, cones: GptState._check(cones, v),
    lambda v, cones: _instances(GptState, v, cones),
)


def _measures(atoms: np.ndarray, cones: Sequence[ConeSpace]) -> _Measures:
    """A ``(b, n, dim)`` block of SVM atom stacks, stack ``k`` over ``cones[k]``, as a stack of measures."""
    return _Measures(atoms, _RULE, cones)


def svm_value(mu: Svm, lam: Event) -> np.ndarray:
    """Measure value on ``lam``: the coordinate-wise sum of atoms."""
    require_worlds("event", lam.n, "SVM", mu.n_worlds)
    return _event_sums(mu.atoms[None], _mask_rows([lam.mask], lam.n))[0]


def gpt_conditional_state(mu: Svm, lam: Event) -> GptState:
    """Conditional state ``mu(lam) / u[mu(lam)]``; raises
    :class:`ConditioningOnNull` when the unit value is at most ``NULL_MASS_TOL``."""
    require_worlds("event", lam.n, "SVM", mu.n_worlds)
    return _conditional(_measures(mu.atoms[None], [mu.cone]), lam)


def _gpt_block(model: KnowledgeModel, mu: Svm, targets: Sequence) -> _Block:
    """An SVM and its targets as a block of one. Every target, state or raw,
    must have the SVM's cone dimension, and a state must belong to the SVM's cone."""
    require_worlds("SVM", mu.n_worlds, "model", model.n_worlds)
    unit = mu.cone.unit
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
    return _model_block(model, _measures(mu.atoms[None], [mu.cone]), coords)


def gpt_agreement_event(model: KnowledgeModel, mu: Svm, targets: Sequence, tol: float = MATCH_TOL) -> Event:
    """Worlds where every agent's cell-conditional state matches its target.

    Matching is coordinate max-norm distance at most ``tol``; worlds whose
    cell has unit mass at most ``NULL_MASS_TOL`` are excluded. Targets may be
    :class:`GptState` or plain coordinate vectors (an unnormalized target
    simply never matches).
    """
    return Event(_agreement_events(_gpt_block(model, mu, targets), tol)[0], model.n_worlds)


def verify_gpt_aumann(
    model: KnowledgeModel, mu: Svm, targets: Sequence, tol: float = MATCH_TOL
) -> AgreementVerdict:
    """Check the GPT agreement theorem for target states ``targets``.

    Vacuous when the common knowledge of the agreement event is empty or has
    unit mass at most ``NULL_MASS_TOL``; otherwise each target must be within
    ``tol`` (max-norm) of the conditional state on the common event.
    """
    return _verify(_gpt_block(model, mu, targets), tol)[0]


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
