import numpy as np
import pytest

from zenopt import (
    CapacityError,
    ContractError,
    expm_hermitian,
    survival_analytic,
    survival_empirical,
    zeno_hamiltonian,
    zeno_limit_error,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PROJ_0 = np.diag([1.0, 0.0]).astype(complex)
KET_0 = np.array([1.0, 0.0], dtype=complex)


def _random_hermitian(rng, dim, norm=1.0):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    herm = (raw + raw.conj().T) / 2
    return herm / np.linalg.norm(herm, 2) * norm


def _random_state(rng, dim):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def test_expm_hermitian_matches_series():
    rng = np.random.default_rng(0)
    h = _random_hermitian(rng, 6)
    t = 0.8
    series = np.eye(6, dtype=complex)
    term = np.eye(6, dtype=complex)
    for k in range(1, 40):
        term = term @ (-1j * t * h) / k
        series += term
    assert np.max(np.abs(expm_hermitian(h, t) - series)) < 1e-12


def test_survival_analytic_zero_hamiltonian():
    assert survival_analytic(np.zeros((2, 2)), KET_0, 3.0, 5) == 1.0


def test_survival_analytic_pauli_x_printed_formula():
    # 1 - t*(t/N)*variance with variance of X in |0> equal to 1
    value = survival_analytic(PAULI_X, KET_0, np.pi / 2, 10)
    assert abs(value - (1 - (np.pi / 2) * (np.pi / 20))) < 1e-12
    assert abs(value - 0.7533) < 1e-3


def test_survival_analytic_is_linear_in_variance():
    # H = 2X has variance 4 in |0>: 1 - t^2*4/N = 0.99, and the exact
    # survival cos(2t)^2 = 0.99003 agrees to second order.
    h = 2.0 * PAULI_X
    value = survival_analytic(h, KET_0, 0.05, 1)
    assert abs(value - 0.99) < 1e-12
    assert abs(value - survival_empirical(h, PROJ_0, KET_0, 0.05, 1)) < 1e-4


def test_survival_analytic_eigenvector():
    h = np.diag([1.0, 3.0]).astype(complex)
    assert abs(survival_analytic(h, KET_0, 2.0, 4) - 1.0) < 1e-12


def test_survival_analytic_unclamped():
    # long times push the raw second-order formula below zero
    assert survival_analytic(PAULI_X, KET_0, 10.0, 1) < 0


@pytest.mark.parametrize(
    "n,expected",
    [(1, 0.0), (10, np.cos(np.pi / 20) ** 20), (200, np.cos(np.pi / 400) ** 400)],
)
def test_survival_empirical_closed_form(n, expected):
    value = survival_empirical(PAULI_X, PROJ_0, KET_0, np.pi / 2, n)
    assert abs(value - expected) < 1e-10


def test_survival_empirical_large_n_close_to_one():
    assert survival_empirical(PAULI_X, PROJ_0, KET_0, np.pi / 2, 200) > 0.98


def test_survival_empirical_monotone_in_n():
    values = [
        survival_empirical(PAULI_X, PROJ_0, KET_0, np.pi / 2, n)
        for n in (1, 2, 4, 8, 16, 32, 64, 128, 256)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_survival_empirical_in_unit_interval():
    rng = np.random.default_rng(3)
    for dim in (2, 4, 8):
        h = _random_hermitian(rng, dim, norm=2.0)
        proj = np.zeros((dim, dim), dtype=complex)
        proj[0, 0] = proj[1, 1] = 1.0
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        for n in (1, 3, 9):
            value = survival_empirical(h, proj, psi, 1.7, n)
            assert 0.0 <= value <= 1.0 + 1e-12


def test_analytic_empirical_agreement_small_interval():
    # For normalized H and t*||H||/N < 0.05 the printed second-order formula
    # tracks the exact product to 0.02.
    rng = np.random.default_rng(9)
    for trial in range(5):
        h = _random_hermitian(rng, 4)
        psi = _random_state(rng, 4)
        proj = np.outer(psi, psi.conj())
        t, n = 1.0, 25
        analytic = survival_analytic(h, psi, t, n)
        empirical = survival_empirical(h, proj, psi, t, n)
        assert abs(analytic - empirical) < 0.02


def test_zeno_hamiltonian_identity_projector():
    rng = np.random.default_rng(1)
    h = _random_hermitian(rng, 4)
    result = zeno_hamiltonian(h, np.eye(4, dtype=complex))
    assert np.allclose(result, h)


def test_zeno_hamiltonian_kills_offdiagonal_x():
    result = zeno_hamiltonian(PAULI_X, PROJ_0)
    assert np.allclose(result, 0.0)


def test_zeno_hamiltonian_block_selection():
    block = np.array([[2.0, 1.0], [1.0, -1.0]], dtype=complex)
    h = np.zeros((4, 4), dtype=complex)
    h[:2, :2] = block
    h[2:, 2:] = np.array([[5.0, 0.0], [0.0, 7.0]])
    h[0, 2] = h[2, 0] = 0.3
    proj = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    result = zeno_hamiltonian(h, proj)
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = block
    assert np.allclose(result, expected)


def test_zeno_limit_error_commuting_is_zero():
    h = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    proj = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    for n in (1, 7, 32):
        assert zeno_limit_error(h, proj, psi, 1.3, n) < 1e-10


def test_zeno_limit_error_decreases():
    rng = np.random.default_rng(42)
    h = _random_hermitian(rng, 4, norm=1.5)
    proj = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 0.6
    psi[1] = 0.8
    assert zeno_limit_error(h, proj, psi, 1.0, 64) < zeno_limit_error(h, proj, psi, 1.0, 1)


def test_zeno_limit_error_log_log_slope():
    rng = np.random.default_rng(7)
    h = _random_hermitian(rng, 4, norm=1.5)
    proj = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    ns = np.array([4, 8, 16, 32, 64, 128, 256])
    errors = np.array([zeno_limit_error(h, proj, psi, 1.0, int(n)) for n in ns])
    slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
    assert -1.5 <= slope <= -0.6


def test_zeno_limit_error_accepts_state_outside_subspace():
    # Unlike survival_empirical, the limit formula needs no P psi0 = psi0.
    rng = np.random.default_rng(3)
    h = _random_hermitian(rng, 4, norm=1.5)
    proj = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    psi = _random_state(rng, 4)
    assert np.linalg.norm(proj @ psi - psi) > 0.1
    assert zeno_limit_error(h, proj, psi, 1.0, 256) < zeno_limit_error(h, proj, psi, 1.0, 4)
    with pytest.raises(ContractError):
        zeno_limit_error(h, proj, psi, 1.0, 0)


@pytest.mark.parametrize("n", [2.5, 2.0, 0, -1, True, np.float64(3)])
def test_measurement_count_must_be_a_positive_integer(n):
    for call in (
        lambda: survival_analytic(PAULI_X, KET_0, 1.0, n),
        lambda: survival_empirical(PAULI_X, PROJ_0, KET_0, 1.0, n),
        lambda: zeno_limit_error(PAULI_X, PROJ_0, KET_0, 1.0, n),
    ):
        with pytest.raises(ContractError, match="n_measurements must be"):
            call()


def test_measurement_count_accepts_numpy_integers():
    expected = survival_empirical(PAULI_X, PROJ_0, KET_0, 1.0, 4)
    assert survival_empirical(PAULI_X, PROJ_0, KET_0, 1.0, np.int64(4)) == expected


def test_contract_errors():
    nonherm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ContractError):
        survival_analytic(nonherm, KET_0, 1.0, 2)
    notproj = np.array([[0.5, 0.5], [0.5, 0.6]], dtype=complex)
    with pytest.raises(ContractError):
        survival_empirical(PAULI_X, notproj, KET_0, 1.0, 2)
    with pytest.raises(ContractError):
        survival_empirical(PAULI_X, PROJ_0, np.array([1.0, 1.0]), 1.0, 2)
    ket_1 = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(ContractError):
        survival_empirical(PAULI_X, PROJ_0, ket_1, 1.0, 2)  # P psi != psi


def test_functions_validate_plain_matrices():
    nonherm = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ContractError, match="Hamiltonian must be Hermitian within 1e-12"):
        expm_hermitian(nonherm, 1.0)
    with pytest.raises(ContractError, match=r"projector must satisfy P @ P = P within 1e-12"):
        zeno_hamiltonian(PAULI_X, np.array([[0.5, 0.0], [0.0, 0.5]]))
    with pytest.raises(CapacityError):
        expm_hermitian(np.zeros((300, 300)), 1.0)
    with pytest.raises(ContractError, match="expected a square matrix"):
        expm_hermitian(np.zeros((2, 3)), 1.0)
    # lists are accepted as they are
    value = survival_empirical(PAULI_X.tolist(), PROJ_0.tolist(), KET_0, np.pi / 2, 10)
    assert abs(value - np.cos(np.pi / 20) ** 20) < 1e-12
    assert isinstance(zeno_hamiltonian(PAULI_X, PROJ_0), np.ndarray)


def test_zeno_layer_matches_dense_model():
    # Cross-module consistency: a one-constraint toy circuit's cumulative
    # survival equals the dense (H_mixer, P_feasible) repeated-measurement
    # product.  RX(beta/Q) per qubit realizes exp(-i*(beta/Q)*sum_i X_i/2).
    from zenopt import (
        ConstrainedBinaryProblem,
        Constraint,
        LayerParams,
        Multipliers,
        build_circuit,
        prepare_initial_state,
        run_circuit,
    )

    problem = ConstrainedBinaryProblem(2, (0, 0), (Constraint((1, 1), 1, "pair"),))
    mult = Multipliers.uniform(1, 1.0)
    beta, q_measurements = 0.7, 3
    params = LayerParams((0.0,), (beta,), q_measurements)
    circuit = build_circuit(problem, ("ZENO",), mult, params)
    state = prepare_initial_state(problem, ("ZENO",), circuit.layout)
    survival_circuit = run_circuit(circuit, state).survival_prob

    x1 = np.kron(np.eye(2), PAULI_X)
    x2 = np.kron(PAULI_X, np.eye(2))
    mixer = (x1 + x2) / 2.0
    feasible = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)  # x0+x1 <= 1
    psi0 = np.array([1.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(3.0)
    dense = survival_empirical(mixer, feasible, psi0, beta, q_measurements)
    assert abs(survival_circuit - dense) < 1e-6


def test_mismatched_hamiltonian_and_projector_dimensions():
    proj = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    shapes = r"\(2, 2\).*\(4, 4\)"
    with pytest.raises(ContractError, match=shapes):
        survival_empirical(PAULI_X, proj, KET_0, 0.5, 3)
    with pytest.raises(ContractError, match=shapes):
        zeno_limit_error(PAULI_X, proj, KET_0, 0.5, 3)
    with pytest.raises(ContractError, match=shapes):
        zeno_hamiltonian(PAULI_X, proj)


def test_state_of_the_wrong_dimension_is_a_contract_error():
    with pytest.raises(ContractError, match=r"state must have dimension 2, got \(3,\)"):
        survival_analytic(PAULI_X, [1.0, 0.0, 0.0], 0.5, 2)
