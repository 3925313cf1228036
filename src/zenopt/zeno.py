"""Survival probability under repeated projective measurement and the
projected-Hamiltonian limit dynamics, in dense linear algebra (hbar = 1).

Every function takes plain array-likes and checks each matrix it is given: a
Hamiltonian must be Hermitian and a projector idempotent, both within 1e-12
(ContractError), and square with dimension at most ``MAX_DIM``
(CapacityError).  A matrix or state numpy cannot read as a complex array,
a time that is not finite and a measurement count that is not an integer
from 1 to 2^63 - 1 raise ContractError.  Matrix exponentials go through an
eigendecomposition so repeated projection products stay exact to machine
precision.
"""

from __future__ import annotations

import numpy as np

from .errors import INT64_MAX, CapacityError, ContractError, InputError, check_finite, check_int

MAX_DIM = 256


def _complex_array(value, what: str) -> np.ndarray:
    """``value`` as a complex array; ContractError for anything numpy cannot convert."""
    try:
        return np.asarray(value, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"{what} is not an array of numbers: {exc}") from None


def _square(mat) -> np.ndarray:
    mat = _complex_array(mat, "matrix")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] > MAX_DIM:
        raise CapacityError(f"dense analysis capped at dim {MAX_DIM}, got {mat.shape[0]}")
    return mat


def _hermitian(mat, what: str = "Hamiltonian") -> np.ndarray:
    """``mat`` as a complex square matrix, checked Hermitian within 1e-12."""
    mat = _square(mat)
    if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
        raise ContractError(f"{what} must be Hermitian within 1e-12")
    return mat


def _projector(mat) -> np.ndarray:
    """``mat`` as a complex square matrix, checked an orthogonal projector within 1e-12."""
    mat = _hermitian(mat, "projector")
    if np.max(np.abs(mat @ mat - mat)) > 1e-12:
        raise ContractError("projector must satisfy P @ P = P within 1e-12")
    return mat


def expm_hermitian(hamiltonian, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H via eigendecomposition."""
    _check_run(t)
    evals, vecs = np.linalg.eigh(_hermitian(hamiltonian))
    return (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T


def _state(psi0, dim: int) -> np.ndarray:
    psi = _complex_array(psi0, "state").reshape(-1)
    if psi.shape != (dim,):
        raise ContractError(f"state must have dimension {dim}, got {psi.shape}")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise ContractError(f"state must be normalized, |psi| = {norm}")
    return psi


def _check_run(t, n_measurements: int = 1) -> None:
    """ContractError unless ``t`` is finite and ``n_measurements`` an integer
    from 1 to 2^63 - 1."""
    try:
        check_finite(t, "t")
        check_int(n_measurements, "n_measurements", 1, INT64_MAX)
    except InputError as exc:
        raise ContractError(str(exc)) from None


def survival_analytic(hamiltonian, psi0, t: float, n_measurements: int) -> float:
    """Second-order survival estimate 1 - t * (t/N) * Theta.

    Theta is the energy variance <H^2> - <H>^2 in the initial state.  This is
    the small-interval expansion taken at face value, so the result is not
    clamped and can drop below 0 for long times.
    """
    mat = _hermitian(hamiltonian)
    _check_run(t, n_measurements)
    psi = _state(psi0, mat.shape[0])
    h_psi = mat @ psi
    mean = np.vdot(psi, h_psi).real
    second = np.vdot(h_psi, h_psi).real  # <H^2> since H is Hermitian
    theta = second - mean**2
    eps = t / n_measurements
    return float(1.0 - t * eps * theta)


def _hamiltonian_and_projector(hamiltonian, projector) -> tuple[np.ndarray, np.ndarray]:
    """Validated H and P matrices, which must have the same dimension."""
    mat, proj = _hermitian(hamiltonian), _projector(projector)
    if mat.shape != proj.shape:
        raise ContractError(f"Hamiltonian shape {mat.shape} differs from projector shape {proj.shape}")
    return mat, proj


def _projected_evolution(hamiltonian, projector, psi0, t: float, n_measurements: int):
    """Validated (H, P, psi0) and the product (P exp(-i H t/N))^N psi0."""
    mat, proj = _hamiltonian_and_projector(hamiltonian, projector)
    _check_run(t, n_measurements)
    psi = _state(psi0, mat.shape[0])
    step = expm_hermitian(mat, t / n_measurements)
    vec = psi
    for _ in range(n_measurements):
        vec = proj @ (step @ vec)
    return mat, proj, psi, vec


def survival_empirical(hamiltonian, projector, psi0, t: float, n_measurements: int) -> float:
    """Exact survival ||(P exp(-i H t/N))^N psi0||^2.

    Requires P psi0 = psi0: survival is measured for a state starting inside
    the projected subspace.
    """
    _, proj, psi, vec = _projected_evolution(hamiltonian, projector, psi0, t, n_measurements)
    if np.linalg.norm(proj @ psi - psi) > 1e-10:
        raise ContractError("initial state must lie inside the projected subspace")
    return float(np.linalg.norm(vec) ** 2)


def zeno_hamiltonian(hamiltonian, projector) -> np.ndarray:
    """Generator P H P of the dynamics inside the measured subspace."""
    mat, proj = _hamiltonian_and_projector(hamiltonian, projector)
    return proj @ mat @ proj


def zeno_limit_error(hamiltonian, projector, psi0, t: float, n_measurements: int) -> float:
    """Distance of the N-measurement product from its N -> infinity limit.

    Returns ||(P exp(-i H t/N))^N psi0 - P exp(-i P H P t) psi0||.
    """
    mat, proj, psi, vec = _projected_evolution(hamiltonian, projector, psi0, t, n_measurements)
    limit = proj @ (expm_hermitian(proj @ mat @ proj, t) @ psi)
    return float(np.linalg.norm(vec - limit))
