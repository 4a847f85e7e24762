"""Quantum layer: density-operator-valued measures and agreement.

A DOVM assigns a PSD matrix to each world, the atoms summing to a density
operator. Conditioning on an event sums the atoms over it and divides by
the trace, in ``verdicts``, which conditions every layer; this module gives
it the layer's rule (trace masses, trace-norm distances, density operators
as states). Sandwiching with the square root (or pseudo-inverse square
root) of a state converts DOVMs and POVMs.

Finiteness, squareness, Hermiticity and positivity are each checked in one
place, on a block of stacks of matrices (``_hermitian_stack``,
``_psd_stack``); a single matrix is checked as a stack of one, and errors
name the first bad matrix of the first bad stack by its index in that
stack. A positivity check, here or of a GPT's PSD cone, is a yes or no:
``_least_eigenvalues`` first tries a Cholesky factorisation of the
stack shifted by half the tolerance, which certifies a passing stack, and
runs the eigensolve only when that fails or cannot be trusted, so every
decision and every message is that of the eigensolve. The square roots
keep their ``eigh``, since they need the eigenvectors, and trace norms
their ``eigvalsh``, since distances feed verdicts. Each measure class
has one check, its ``_check``, written on a block: the constructor runs it
on a block of one, and a generator runs it once on a block of many, whose
checked entries :func:`_instances` wraps, so an object built either way
has passed the same check.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import _EXPORTS
from .errors import NotHermitian, NotPsd, as_array, require_finite, require_finite_items, require_worlds
from .knowledge import Event, KnowledgeModel
from .tolerances import (
    HERMITIAN_LOOSE_TOL,
    HERMITIAN_TOL,
    MATCH_TOL,
    PSD_EIG_TOL,
    SUPPORT_CUTOFF,
    WEIGHT_SUM_TOL,
)
from .verdicts import (AgreementVerdict, _agreement_events, _Block, _conditional, _event_sums, _mask_rows, _Measures,
                       _model_block, _Rule, _verify)

__all__ = _EXPORTS["quantum"]


def require_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Symmetrize ``(m + m^dagger)/2`` if ``m`` is a finite square matrix within
    ``tol`` of Hermitian, else raise; ``m`` is checked as a stack of one. A
    NaN or infinite ``tol`` raises ``ValueError``."""
    return _hermitian_stack(np.asarray(m)[None, None], "matrix", tol)[0, 0]


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a ``(..., d, d)`` stack."""
    return m.conj().swapaxes(-1, -2)


def _psd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of the symmetrized ``m``, a matrix or a ``(..., d, d)``
    stack, checked as one stack; raises :class:`NotPsd` below ``-PSD_EIG_TOL``."""
    m = np.asarray(m)
    vals, vecs = np.linalg.eigh(_hermitian_stack(m.reshape((1, -1) + m.shape[-2:]), "matrix"))
    _require_psd(vals[..., 0], "matrix")
    return vals.reshape(m.shape[:-1]), vecs.reshape(m.shape)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """PSD square root via eigendecomposition, of a matrix or of each
    matrix of a ``(..., d, d)`` stack.

    Eigenvalues in ``[-PSD_EIG_TOL, 0)`` are clamped to zero; anything below
    ``-PSD_EIG_TOL`` raises :class:`NotPsd`.
    """
    vals, vecs = _psd_eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ _adjoint(vecs)


def psd_sqrt_pinv(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse square root of a PSD matrix and its support projector,
    or of each matrix of a ``(..., d, d)`` stack.

    Eigenvalues at or below ``SUPPORT_CUTOFF`` count as zero rank, so the
    first return value satisfies ``r @ m @ r = support`` on the support of ``m``.
    """
    vals, vecs = _psd_eigh(m)
    keep = vals > SUPPORT_CUTOFF
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, vals, 1.0)), 0.0)
    root = (vecs * inv_sqrt[..., None, :]) @ _adjoint(vecs)
    support = (vecs * keep.astype(float)[..., None, :]) @ _adjoint(vecs)
    return root, support


def trace_norm(m: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix (sum of absolute eigenvalues)."""
    return float(_trace_norms(require_hermitian(m, tol=HERMITIAN_LOOSE_TOL)))


def _trace_norms(h: np.ndarray) -> np.ndarray:
    """Trace norm of each matrix in a Hermitian stack (or of one matrix)."""
    return np.abs(np.linalg.eigvalsh(h)).sum(axis=-1)


def _first(bad: np.ndarray) -> tuple[int, int]:
    """Stack and index of the first ``True`` of a ``(b, n)`` array, stack by stack."""
    return divmod(int(np.argmax(bad)), bad.shape[1])


def _hermitian_stack(raw, what: str, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Check a ``(b, n, d, d)`` block of ``b`` stacks of ``n`` finite
    matrices, each within ``tol`` of Hermitian, and return it symmetrized;
    errors name the first bad matrix of the first bad stack by its index in
    that stack, as a check of that stack alone would.

    A passing block costs one ``all`` and one ``max``; the index is looked
    for only on failure. Finiteness, of ``tol`` and then of the entries, is
    checked first, so no NaN or infinity reaches the arithmetic.
    """
    require_finite(tol, "tol")
    a = np.asarray(raw, dtype=complex)
    if a.ndim != 4 or a.shape[1] < 1 or a.shape[2] < 1 or a.shape[2] != a.shape[3]:
        raise ValueError(f"{what} stack must have shape (n, d, d), got {a.shape[1:]}")
    if not np.isfinite(a).all():
        for stack in a:
            require_finite_items(stack, what)
    adjoint = _adjoint(a)
    deviation = np.abs(a - adjoint)
    if deviation.max() > tol:
        per_matrix = deviation.max(axis=(2, 3))
        k, w = _first(per_matrix > tol)
        raise NotHermitian(f"{what} {w} deviates from Hermitian by {per_matrix[k, w]:.3e} (> {tol:.0e})")
    return (a + adjoint) / 2.0


def _require_psd(lowest: np.ndarray, what: str) -> None:
    """Raise :class:`NotPsd` naming the first matrix of a block whose least
    eigenvalue in ``lowest`` (``(b, n)``) is below ``-PSD_EIG_TOL``."""
    if (lowest < -PSD_EIG_TOL).any():  # a NaN is not below
        k, w = _first(lowest < -PSD_EIG_TOL)
        raise NotPsd(f"{what} {w} has eigenvalue {lowest[k, w]:.3e} below -{PSD_EIG_TOL:.0e}")


def _sandwich(root: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Hermitian part of ``root @ m @ root`` for every ``m`` in the stack; a
    ``(..., d, d)`` stack of roots takes a ``(..., n, d, d)`` block of stacks.

    For Hermitian ``root`` and ``m`` the product is Hermitian up to
    round-off, which can exceed ``HERMITIAN_TOL`` at larger dimensions;
    ``_hermitian_stack`` symmetrizes the same way, so validated results are
    unchanged wherever the raw product already passed.
    """
    root = root[..., None, :, :]
    p = root @ stack @ root
    return (p + _adjoint(p)) / 2.0


def _least_eigenvalues(h: np.ndarray, tol: float) -> np.ndarray:
    """The least eigenvalue of each matrix of the Hermitian ``(..., d, d)``
    stack ``h``, as ``eigvalsh`` finds it; or zeros for the whole stack when
    a certificate shows that ``eigvalsh`` would find none below ``-tol``
    (``tol > 0`` there, so a zero is not below ``-tol`` either).

    The certificate is one Cholesky factorisation of ``A = h + (tol/2) I``
    for the whole stack. Let ``a`` be the stack's largest entry modulus and
    ``eps`` the machine epsilon; ``A``'s entries are at most ``a + tol/2``,
    so ``||A||_2 <= d (a + tol/2)``. If the factorisation succeeds, the
    computed factor is exact for ``A + dA`` with ``||dA||_2 <= d
    gamma_(d+1) ||A||_2`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, Thm 10.5; ``gamma_(d+1)`` is about ``(d + 1) eps``), so
    every eigenvalue of ``h`` is at least ``-tol/2`` less about
    ``d^2 (d + 1) eps (a + tol/2)`` and the shift's rounding, at most
    ``eps (a + tol/2)``. ``eigvalsh`` is backward stable: it lands within
    ``p(d) eps ||h||_2 <= p(d) d eps a`` of each eigenvalue, ``p(d)`` a
    modest polynomial, taken as ``(d + 1)^2``. The three terms sum to
    ``(d (d + 1) (2d + 1) + 1) eps (a + tol/2)``, below
    ``2 (d + 1)^3 eps (a + tol/2)``, and the certificate is trusted only
    when eight times that is at most ``tol/2`` (the factor covers complex
    arithmetic's constants): then every eigenvalue ``eigvalsh`` would
    return is at least ``-tol``. At ``tol <= 0`` no shift certifies the
    decision (a negative ``tol`` asks every eigenvalue to be at least
    ``|tol|``), nor where the entries are too large for the bound; there,
    and when the factorisation fails, ``eigvalsh`` runs.
    """
    d = h.shape[-1]
    half = tol / 2.0
    if half > 0 and 16 * (d + 1) ** 3 * np.finfo(float).eps * (np.abs(h).max(initial=0.0) + half) <= half:
        try:
            np.linalg.cholesky(h + half * np.eye(d))
            return np.zeros(h.shape[:-2])
        except np.linalg.LinAlgError:
            pass
    return np.linalg.eigvalsh(h)[..., 0]


def _psd_stack(raw, what: str) -> np.ndarray:
    """Symmetrized ``(b, n, d, d)`` block of stacks of PSD matrices.

    Every Hermiticity check runs before the positivity check (certificate,
    then eigensolve on failure: ``_least_eigenvalues``), so a
    non-Hermitian matrix is reported ahead of a non-PSD one at any index.
    """
    h = _hermitian_stack(raw, what)
    _require_psd(_least_eigenvalues(h, PSD_EIG_TOL), what)
    return h


def _instances(cls, checked: np.ndarray, *heads) -> list:
    """One ``cls`` per entry of ``checked``, a block that ``cls._check`` has
    returned; ``heads`` hold, entry by entry, the fields before the stacked
    one (a cone per entry). Each entry has passed the check its constructor
    would run on it alone, so the constructor is not run again."""
    names = [f.name for f in fields(cls)]
    out = []
    for entry, *head in zip(checked, *heads):
        obj = object.__new__(cls)
        for name, value in zip(names, (*head, entry)):
            object.__setattr__(obj, name, value)
        out.append(obj)
    return out


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """PSD matrix of unit trace; the input is symmetrized on construction."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", self._check(np.asarray(self.matrix)[None])[0])

    @staticmethod
    def _check(matrices) -> np.ndarray:
        """The density-operator check on a ``(b, d, d)`` stack: each matrix
        PSD with unit trace. Returns the stack symmetrized and read-only."""
        m = _psd_stack(np.asarray(matrices)[:, None], "density operator")[:, 0]
        tr = m.trace(axis1=1, axis2=2).real
        bad = np.abs(tr - 1.0) > WEIGHT_SUM_TOL
        if bad.any():
            raise ValueError(f"trace is {float(tr[np.argmax(bad)])!r}, expected 1")
        m.flags.writeable = False
        return m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Dovm:
    """One PSD atom per world; the atoms sum to a density operator."""

    atoms: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", self._check(np.asarray(self.atoms, dtype=complex)[None])[0])

    @staticmethod
    def _check(atoms) -> np.ndarray:
        """The DOVM check on a ``(b, n, d, d)`` block of atom stacks: PSD
        atoms whose total is a density operator. Returns the block
        symmetrized and read-only."""
        stacked = _psd_stack(atoms, "atom")
        DensityOperator._check(stacked.sum(axis=1))  # each total must be a valid state
        stacked.flags.writeable = False
        return stacked

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
        object.__setattr__(self, "effects", self._check(np.asarray(self.effects, dtype=complex)[None])[0])

    @staticmethod
    def _check(effects) -> np.ndarray:
        """The POVM check on a ``(b, n, d, d)`` block of effect stacks: PSD
        effects summing to an orthogonal projector. Returns the block
        symmetrized and read-only."""
        stacked = _psd_stack(effects, "effect")
        total = stacked.sum(axis=1)
        if (np.abs(total @ total - total).max(axis=(1, 2)) > WEIGHT_SUM_TOL).any():
            raise ValueError("effects do not sum to an orthogonal projector")
        stacked.flags.writeable = False
        return stacked

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


def _trace_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Trace-norm distance of each matrix of ``xs`` to the matching one of ``ys``."""
    return _trace_norms(_hermitian_stack((xs - ys)[None], "cell conditional", tol=HERMITIAN_LOOSE_TOL)[0])


# Values are sums of atoms, masses their traces; a state is a DensityOperator.
_RULE = _Rule(
    lambda x, spaces, owners: (x, x.trace(axis1=-2, axis2=-1).real),
    _trace_distances,
    lambda v, spaces: DensityOperator._check(v),
    lambda v, spaces: _instances(DensityOperator, v),
)


def _measures(atoms: np.ndarray) -> _Measures:
    """A ``(b, n, d, d)`` block of DOVM atom stacks, as a stack of measures."""
    return _Measures(atoms, _RULE, [None] * len(atoms))


def dovm_value(rho: Dovm, lam: Event) -> np.ndarray:
    """Measure value on ``lam``: the sum of atoms over its worlds."""
    require_worlds("event", lam.n, "DOVM", rho.n_worlds)
    return _event_sums(rho.atoms[None], _mask_rows([lam.mask], lam.n))[0]


def conditional_state(rho: Dovm, lam: Event) -> DensityOperator:
    """Conditional state ``rho(lam) / Tr[rho(lam)]``; raises
    :class:`ConditioningOnNull` when the trace is at most ``NULL_MASS_TOL``."""
    require_worlds("event", lam.n, "DOVM", rho.n_worlds)
    return _conditional(_measures(rho.atoms[None]), lam)


def _quantum_block(model: KnowledgeModel, rho: Dovm, sigmas: Sequence) -> _Block:
    """A DOVM and its targets as a block of one; distance is the trace norm.
    Every target must be a ``d x d`` matrix for the DOVM's ``d``."""
    require_worlds("DOVM", rho.n_worlds, "model", model.n_worlds)
    matrices = [
        s.matrix if isinstance(s, DensityOperator) else as_array(i, "a matrix of numbers", s, "iufc")
        for i, s in enumerate(sigmas)
    ]
    for i, m in enumerate(matrices):
        if m.shape != (rho.dim, rho.dim):
            raise ValueError(f"target {i} must have shape {(rho.dim, rho.dim)}, got {m.shape}")
    if not all(isinstance(s, DensityOperator) for s in sigmas):  # a state is checked already
        matrices = _hermitian_stack([matrices], "target", HERMITIAN_LOOSE_TOL)[0]
    return _model_block(model, _measures(rho.atoms[None]), matrices)


def quantum_agreement_event(model: KnowledgeModel, rho: Dovm, sigmas: Sequence, tol: float = MATCH_TOL) -> Event:
    """Worlds where every agent's cell-conditional state matches its target.

    Matching is trace-norm distance at most ``tol``; worlds whose cell has
    trace mass at most ``NULL_MASS_TOL`` are excluded. Targets may be
    :class:`DensityOperator` or plain Hermitian matrices (an unnormalized
    target simply never matches).
    """
    return Event(_agreement_events(_quantum_block(model, rho, sigmas), tol)[0], model.n_worlds)


def verify_quantum_aumann(
    model: KnowledgeModel, rho: Dovm, sigmas: Sequence, tol: float = MATCH_TOL
) -> AgreementVerdict:
    """Check the quantum agreement theorem for target states ``sigmas``.

    Vacuous when the common knowledge of the agreement event is empty or has
    trace mass at most ``NULL_MASS_TOL``; otherwise each target must be within
    ``tol`` trace-norm distance of the conditional state on the common event.
    """
    return _verify(_quantum_block(model, rho, sigmas), tol)[0]
