"""Quantum layer: density-operator-valued measures and agreement.

A DOVM assigns a PSD matrix to each world, the atoms summing to a density
operator. Conditioning on an event sums the atoms over it (the GPT layer
shares these sums) and normalizes by the trace. Sandwiching with the square
root (or pseudo-inverse square root) of a state converts DOVMs and POVMs.

Finiteness, squareness, Hermiticity and positivity are each checked in one
place, on a stack of matrices (``_hermitian_stack``, ``_psd_stack``); a
single matrix is checked as a stack of one, and errors name the first bad
matrix of a stack by its index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConditioningOnNull, NotHermitian, NotPsd, require_finite_items, require_worlds
from .knowledge import Event, KnowledgeModel, Partition
from .tolerances import (
    HERMITIAN_LOOSE_TOL,
    HERMITIAN_TOL,
    MATCH_TOL,
    NULL_MASS_TOL,
    PSD_EIG_TOL,
    SUPPORT_CUTOFF,
    WEIGHT_SUM_TOL,
)
from .verdicts import AgreementVerdict, _agreement_event, _Layer, _verify

__all__ = [
    "require_hermitian",
    "psd_sqrt",
    "psd_sqrt_pinv",
    "trace_norm",
    "DensityOperator",
    "Dovm",
    "Povm",
    "dovm_value",
    "conditional_state",
    "dovm_to_povm",
    "povm_to_dovm",
    "quantum_agreement_event",
    "verify_quantum_aumann",
]


def require_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Symmetrize ``(m + m^dagger)/2`` if ``m`` is a finite square matrix within
    ``tol`` of Hermitian, else raise; ``m`` is checked as a stack of one."""
    return _hermitian_stack(np.asarray(m)[None], "matrix", tol)[0]


def _psd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of the symmetrized ``m``; raises :class:`NotPsd` below ``-PSD_EIG_TOL``."""
    vals, vecs = np.linalg.eigh(require_hermitian(m))
    _require_psd(vals[None], "matrix")
    return vals, vecs


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """PSD square root via eigendecomposition.

    Eigenvalues in ``[-PSD_EIG_TOL, 0)`` are clamped to zero; anything below
    ``-PSD_EIG_TOL`` raises :class:`NotPsd`.
    """
    vals, vecs = _psd_eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def psd_sqrt_pinv(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse square root of a PSD matrix and its support projector.

    Eigenvalues at or below ``SUPPORT_CUTOFF`` count as zero rank, so the
    first return value satisfies ``r @ m @ r = support`` on the support of ``m``.
    """
    vals, vecs = _psd_eigh(m)
    keep = vals > SUPPORT_CUTOFF
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, vals, 1.0)), 0.0)
    root = (vecs * inv_sqrt) @ vecs.conj().T
    support = (vecs * keep.astype(float)) @ vecs.conj().T
    return root, support


def trace_norm(m: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix (sum of absolute eigenvalues)."""
    return float(_trace_norms(require_hermitian(m, tol=HERMITIAN_LOOSE_TOL)))


def _trace_norms(h: np.ndarray) -> np.ndarray:
    """Trace norm of each matrix in a Hermitian stack (or of one matrix)."""
    return np.abs(np.linalg.eigvalsh(h)).sum(axis=-1)


def _hermitian_stack(raw, what: str, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Check an ``(n, d, d)`` stack of finite matrices, each within ``tol`` of
    Hermitian, and return it symmetrized; errors name the first bad index.

    A passing stack costs one ``all`` and one ``max``; the index is looked
    for only on failure. Finiteness is checked first, so no NaN or infinity
    reaches the arithmetic.
    """
    a = np.asarray(raw, dtype=complex)
    if a.ndim != 3 or a.shape[0] < 1 or a.shape[1] < 1 or a.shape[1] != a.shape[2]:
        raise ValueError(f"{what} stack must have shape (n, d, d), got {a.shape}")
    require_finite_items(a, what)
    adjoint = a.conj().transpose(0, 2, 1)
    deviation = np.abs(a - adjoint)
    if deviation.max() > tol:
        per_matrix = deviation.max(axis=(1, 2))
        w = int(np.argmax(per_matrix > tol))
        raise NotHermitian(f"{what} {w} deviates from Hermitian by {per_matrix[w]:.3e} (> {tol:.0e})")
    return (a + adjoint) / 2.0


def _require_psd(vals: np.ndarray, what: str) -> None:
    """Raise :class:`NotPsd` naming the first matrix of a stack whose
    eigenvalues ``vals`` (ascending, one row per matrix) go below ``-PSD_EIG_TOL``."""
    lowest = vals[:, 0]
    if any(v < -PSD_EIG_TOL for v in lowest.tolist()):  # cheaper than a numpy reduction on short stacks
        w = int(np.argmax(lowest < -PSD_EIG_TOL))
        raise NotPsd(f"{what} {w} has eigenvalue {lowest[w]:.3e} below -{PSD_EIG_TOL:.0e}")


def _cell_values(atoms: np.ndarray, partition: Partition) -> np.ndarray:
    """Sum of the per-world ``atoms`` over each cell, stacked in cell order.

    Each cell's sum adds its worlds in increasing order, as
    ``atoms[list(cell)].sum(axis=0)`` does, so the values agree bit for bit.
    """
    sums = np.zeros((len(partition),) + atoms.shape[1:], dtype=atoms.dtype)
    np.add.at(sums, partition.labels, atoms)
    return sums


def _event_value(atoms: np.ndarray, e: Event) -> np.ndarray:
    """Sum of the per-world ``atoms`` over the worlds of ``e``; zeros when it is empty."""
    if not e:
        return np.zeros(atoms.shape[1:], dtype=atoms.dtype)
    return atoms[np.fromiter(e, dtype=np.intp)].sum(axis=0)


def _sandwich(root: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Hermitian part of ``root @ m @ root`` for every ``m`` in the stack.

    For Hermitian ``root`` and ``m`` the product is Hermitian up to
    round-off, which can exceed ``HERMITIAN_TOL`` at larger dimensions;
    ``_hermitian_stack`` symmetrizes the same way, so validated results are
    unchanged wherever the raw product already passed.
    """
    p = root @ stack @ root
    return (p + p.conj().transpose(0, 2, 1)) / 2.0


def _psd_stack(raw, what: str) -> np.ndarray:
    """Symmetrized ``(n, d, d)`` stack of PSD matrices.

    Every Hermiticity check runs before the one batched eigensolve, so a
    non-Hermitian matrix is reported ahead of a non-PSD one at any index.
    """
    h = _hermitian_stack(raw, what)
    _require_psd(np.linalg.eigvalsh(h), what)
    return h


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """PSD matrix of unit trace; the input is symmetrized on construction."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _psd_stack(np.asarray(self.matrix)[None], "density operator")[0]
        tr = float(m.trace().real)
        if abs(tr - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Dovm:
    """One PSD atom per world; the atoms sum to a density operator."""

    atoms: np.ndarray

    def __post_init__(self) -> None:
        stacked = _psd_stack(self.atoms, "atom")
        DensityOperator(stacked.sum(axis=0))  # total must be a valid state
        stacked.flags.writeable = False
        object.__setattr__(self, "atoms", stacked)

    @property
    def n_worlds(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def total(self) -> np.ndarray:
        return self.atoms.sum(axis=0)


@dataclass(frozen=True, eq=False)
class Povm:
    """PSD effects summing to an orthogonal projector (the identity when
    complete; :attr:`is_complete` reports which).

    The sub-normalized case exists so that converting a rank-deficient DOVM
    stays well-defined: its effects sum to the support projector of the
    total state rather than the full identity.
    """

    effects: np.ndarray

    def __post_init__(self) -> None:
        stacked = _psd_stack(self.effects, "effect")
        total = stacked.sum(axis=0)
        if float(np.abs(total @ total - total).max()) > WEIGHT_SUM_TOL:
            raise ValueError("effects do not sum to an orthogonal projector")
        stacked.flags.writeable = False
        object.__setattr__(self, "effects", stacked)

    @property
    def n_worlds(self) -> int:
        return self.effects.shape[0]

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def is_complete(self) -> bool:
        """True when the effects sum to the identity within tolerance."""
        total = self.effects.sum(axis=0)
        return float(np.abs(total - np.eye(self.dim)).max()) <= WEIGHT_SUM_TOL


def dovm_value(rho: Dovm, lam: Event) -> np.ndarray:
    """Measure value on ``lam``: the sum of atoms over its worlds."""
    require_worlds("event", lam.n, "DOVM", rho.n_worlds)
    return _event_value(rho.atoms, lam)


def conditional_state(rho: Dovm, lam: Event) -> DensityOperator:
    """Conditional state ``rho(lam) / Tr[rho(lam)]``."""
    value = dovm_value(rho, lam)
    tr = float(value.trace().real)
    if tr <= NULL_MASS_TOL:
        raise ConditioningOnNull(f"event {lam.worlds()} has trace mass {tr!r}")
    return DensityOperator(value / tr)


def dovm_to_povm(rho: Dovm) -> Povm:
    """Sandwich each atom with the pseudo-inverse square root of the total.

    Effects sum to the support projector of the total state (the identity
    when it has full rank).
    """
    inv_root, _ = psd_sqrt_pinv(rho.total)
    return Povm(_sandwich(inv_root, rho.atoms))


def povm_to_dovm(e: Povm, sigma: DensityOperator) -> Dovm:
    """Sandwich each effect with the square root of ``sigma``."""
    if e.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: POVM is {e.dim}, state is {sigma.dim}")
    root = psd_sqrt(sigma.matrix)
    return Dovm(_sandwich(root, e.effects))


def _quantum_layer(model: KnowledgeModel, rho: Dovm, sigmas: Sequence = ()) -> _Layer:
    """A DOVM for the agreement pipeline: values are sums of atoms, masses
    their traces, and distance is the trace norm."""
    require_worlds("DOVM", rho.n_worlds, "model", model.n_worlds)

    def cell_sums(partition: Partition) -> tuple[np.ndarray, np.ndarray]:
        values = _cell_values(rho.atoms, partition)
        return values, values.trace(axis1=1, axis2=2).real

    def event_sums(e: Event) -> tuple[np.ndarray, float]:
        value = dovm_value(rho, e)
        return value, float(value.trace().real)

    def distance(xs: np.ndarray, target: np.ndarray) -> np.ndarray:
        return _trace_norms(_hermitian_stack(xs - target, "cell conditional", tol=HERMITIAN_LOOSE_TOL))

    matrices = [s.matrix if isinstance(s, DensityOperator) else s for s in sigmas]
    if not all(isinstance(s, DensityOperator) for s in sigmas):  # a state is checked already
        matrices = _hermitian_stack(matrices, "target", HERMITIAN_LOOSE_TOL)
    return _Layer(cell_sums, event_sums, DensityOperator, distance, tuple(matrices))


def quantum_agreement_event(model: KnowledgeModel, rho: Dovm, sigmas: Sequence, tol: float = MATCH_TOL) -> Event:
    """Worlds where every agent's cell-conditional state matches its target.

    Matching is trace-norm distance at most ``tol``; worlds whose cell has
    trace mass at most ``NULL_MASS_TOL`` are excluded. Targets may be
    :class:`DensityOperator` or plain Hermitian matrices (an unnormalized
    target simply never matches).
    """
    return _agreement_event(model, _quantum_layer(model, rho, sigmas), tol)


def verify_quantum_aumann(
    model: KnowledgeModel, rho: Dovm, sigmas: Sequence, tol: float = MATCH_TOL, *, max_iters: int | None = None
) -> AgreementVerdict:
    """Check the quantum agreement theorem for target states ``sigmas``.

    Vacuous when the common knowledge of the agreement event is empty or has
    trace mass at most ``tol``; otherwise each target must be within ``tol``
    trace-norm distance of the conditional state on the common event.
    """
    return _verify(model, _quantum_layer(model, rho, sigmas), tol, max_iters)
