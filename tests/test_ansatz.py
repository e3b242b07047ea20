import numpy as np
import pytest

import qimpute.ansatz
from qimpute.ansatz import (
    Ansatz,
    conditional_output,
    effective_angles,
    flip_bits,
    param_count,
    project_signs,
    sign_matrix,
    statevector,
)
from qimpute.oracle import gate_level_oracle


def bit(value, n, i):
    """b_i of the n-bit input ``value``; b_1 is the most significant bit."""
    return (value >> (n - i)) & 1


def walk_block(ansatz, params, value):
    """(flip, angle) of one input's block, walking the gates one by one."""
    angle = params[0]
    phase = 0
    for k, ctrl in enumerate(ansatz.controls, start=1):
        if all(bit(value, ansatz.n_inputs, i) for i in ctrl):
            phase ^= 1
        angle += -params[k] if phase else params[k]
    return phase, angle


def op_on_qubit(op, bit_position, n_qubits):
    """Embed a 1-qubit operator at a bit position of the full index."""
    upper = np.eye(1 << (n_qubits - bit_position - 1))
    lower = np.eye(1 << bit_position)
    return np.kron(np.kron(upper, op), lower)


def controlled_not(control_bits, dim):
    """Permutation matrix flipping index bit 0 when all control bits are set."""
    mask = 0
    for p in control_bits:
        mask |= 1 << p
    mat = np.zeros((dim, dim))
    for col in range(dim):
        row = col ^ 1 if (col & mask) == mask else col
        mat[row, col] = 1.0
    return mat


def dense_oracle(ansatz, params):
    """The circuit as a product of explicit 2^(N+1) x 2^(N+1) gate matrices."""
    n = ansatz.n_inputs
    n_qubits = n + 1
    dim = 1 << n_qubits
    state = np.zeros(dim)
    state[0] = 1.0

    def rotation(angle):
        c, s = np.cos(angle), np.sin(angle)
        return np.array([[c, -s], [s, c]])

    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    for i in range(1, n + 1):
        state = op_on_qubit(hadamard, n - i + 1, n_qubits) @ state
    state = op_on_qubit(rotation(params[0]), 0, n_qubits) @ state
    for k, ctrl in enumerate(ansatz.controls, start=1):
        state = controlled_not([n - i + 1 for i in ctrl], dim) @ state
        state = op_on_qubit(rotation(params[k]), 0, n_qubits) @ state
    return state


def block(ansatz, params, value):
    """(flip, angle) of one input's block, read off ``effective_angles``."""
    theta, flips = effective_angles(ansatz, params)
    return int(flips[value]), theta[value]


def test_param_counts():
    assert param_count("linear", 3) == 4
    assert param_count("quadratic", 3) == 7
    assert param_count("exponential", 3) == 8
    assert param_count("quadratic", 1) == 2
    with pytest.raises(ValueError):
        param_count("linear", 0)
    with pytest.raises(ValueError):
        param_count("cubic", 3)


def test_constructors_match_counts():
    for n in range(1, 7):
        for kind in ("linear", "quadratic", "exponential"):
            ansatz = getattr(Ansatz, kind)(n)
            assert ansatz.param_count == param_count(kind, n)


def test_linear_with_pairs_endpoints():
    assert Ansatz.linear_with_pairs(4, 0) == Ansatz.linear(4)
    assert Ansatz.linear_with_pairs(4, 6) == Ansatz.quadratic(4)
    partial = Ansatz.linear_with_pairs(4, 2)
    assert partial.param_count == 7
    with pytest.raises(ValueError):
        Ansatz.linear_with_pairs(4, 7)


def test_bad_control_sets_rejected():
    with pytest.raises(ValueError):
        Ansatz("custom", 2, ((1,), (1,)))
    with pytest.raises(ValueError):
        Ansatz("custom", 2, ((2, 1),))
    with pytest.raises(ValueError):
        Ansatz("custom", 2, ((3,),))


class TestBlockRotation:
    def test_two_input_even_block(self):
        a = np.array([0.3, 0.5, 0.7])
        flip, angle = block(Ansatz.linear(2), a, 0b00)
        assert flip == 0
        assert angle == pytest.approx(a[0] + a[1] + a[2], abs=1e-15)

    def test_two_input_odd_parity_block(self):
        # b = 10 has prefix parities (1, 1): both later rotations flip sign
        a = np.array([0.3, 0.5, 0.7])
        flip, angle = block(Ansatz.linear(2), a, 0b10)
        assert flip == 1
        assert angle == pytest.approx(a[0] - a[1] - a[2], abs=1e-15)

    def test_all_zero_input_gets_plain_sum(self):
        rng = np.random.default_rng(0)
        for kind in ("linear", "quadratic", "exponential"):
            ansatz = getattr(Ansatz, kind)(3)
            params = rng.uniform(-1, 1, ansatz.param_count)
            flip, angle = block(ansatz, params, 0)
            assert flip == 0
            assert angle == pytest.approx(params.sum(), abs=1e-12)

    def test_matches_vectorized_angles(self):
        rng = np.random.default_rng(1)
        for kind in ("linear", "quadratic", "exponential"):
            ansatz = getattr(Ansatz, kind)(4)
            params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
            theta, flips = effective_angles(ansatz, params)
            for value in range(16):
                flip, angle = walk_block(ansatz, params, value)
                assert angle == pytest.approx(theta[value], abs=1e-12)
                assert flip == int(flips[value])

    def test_angle_linear_in_params(self):
        rng = np.random.default_rng(2)
        ansatz = Ansatz.quadratic(3)
        x = rng.uniform(-2, 2, ansatz.param_count)
        y = rng.uniform(-2, 2, ansatz.param_count)
        combined, _ = effective_angles(ansatz, 1.5 * x + 0.25 * y)
        parts = 1.5 * effective_angles(ansatz, x)[0] + 0.25 * effective_angles(ansatz, y)[0]
        assert np.allclose(combined, parts, rtol=0.0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            effective_angles(Ansatz.linear(2), [0.0, 0.0])
        with pytest.raises(ValueError):
            effective_angles(Ansatz.linear(2), np.zeros((1, 3)))


class TestFlipBits:
    def test_linear_flip_is_total_parity(self):
        for n in range(1, 6):
            flips = flip_bits(Ansatz.linear(n))
            for value in range(1 << n):
                assert int(flips[value]) == sum(bit(value, n, i) for i in range(1, n + 1)) % 2

    def test_quadratic_flip_adds_all_pairs_parity(self):
        for n in range(2, 6):
            flips = flip_bits(Ansatz.quadratic(n))
            for value in range(1 << n):
                bits = [bit(value, n, i) for i in range(1, n + 1)]
                pairs = sum(bits[i] * bits[j] for i in range(n) for j in range(i + 1, n))
                assert int(flips[value]) == (sum(bits) + pairs) % 2

    def test_exponential_flip_marks_every_nonzero_input(self):
        for n in range(1, 6):
            flips = flip_bits(Ansatz.exponential(n))
            assert not flips[0]
            assert flips[1:].all()


def test_sign_views_agree():
    # effective_angles, project_signs and flip_bits are matrix-free views of S
    rng = np.random.default_rng(7)
    ansatze = [
        Ansatz.linear(4), Ansatz.quadratic(4), Ansatz.exponential(3),
        Ansatz.linear_with_pairs(4, 2), Ansatz("custom", 3, ()),
    ]
    for ansatz in ansatze:
        signs = sign_matrix(ansatz)
        params = rng.uniform(-2, 2, ansatz.param_count)
        values = rng.uniform(-1, 1, signs.shape[0])
        theta, flips = effective_angles(ansatz, params)
        assert np.allclose(theta, signs @ params, rtol=0.0, atol=1e-12)
        assert np.allclose(project_signs(ansatz, values), signs.T @ values, rtol=0.0, atol=1e-12)
        assert np.array_equal(flips, signs[:, -1] < 0)
        assert np.array_equal(flip_bits(ansatz), flips)


def test_sign_matrix_built_once_and_read_only(monkeypatch):
    consumed = []
    phases = qimpute.ansatz._phases

    def counting_phases(ansatz):
        consumed.append(ansatz)
        return phases(ansatz)

    monkeypatch.setattr(qimpute.ansatz, "_phases", counting_phases)
    ansatz = Ansatz.quadratic(4)
    for _ in range(3):
        effective_angles(ansatz, np.zeros(ansatz.param_count))
        project_signs(ansatz, np.ones(16))
        flip_bits(ansatz)
        sign_matrix(ansatz)
    assert consumed == [ansatz]
    with pytest.raises(ValueError):
        sign_matrix(ansatz)[0, 0] = 2.0
    with pytest.raises(ValueError):
        flip_bits(ansatz)[0] = True
    with pytest.raises(ValueError):
        Ansatz.linear(20).signs


class TestConditionalOutput:
    def test_zero_parameters_follow_parity(self):
        for n in range(1, 6):
            out = conditional_output(Ansatz.linear(n), np.zeros(n + 1))
            parity = flip_bits(Ansatz.linear(n))
            assert np.allclose(out.amp0, np.where(parity, 0.0, 1.0))
            assert np.allclose(out.amp1, np.where(parity, 1.0, 0.0))

    def test_single_input_quarter_turn(self):
        out = conditional_output(Ansatz.linear(1), [np.pi / 4, 0.0])
        assert out.amp0[0] == pytest.approx(np.cos(np.pi / 4))
        assert out.amp1[0] == pytest.approx(np.sin(np.pi / 4))

    def test_rows_normalized(self):
        rng = np.random.default_rng(3)
        for kind in ("linear", "quadratic"):
            ansatz = getattr(Ansatz, kind)(5)
            params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
            out = conditional_output(ansatz, params)
            assert np.max(np.abs(out.amp0 ** 2 + out.amp1 ** 2 - 1.0)) < 1e-12
            joint = out.joint_probabilities()
            assert joint.sum() == pytest.approx(1.0, abs=1e-12)


class TestStatevector:
    def test_single_input_zero_parameters(self):
        state = statevector(Ansatz.linear(1), [0.0, 0.0])
        r = 1 / np.sqrt(2)
        assert np.allclose(state, [r, 0.0, 0.0, r])

    def test_unit_norm(self):
        rng = np.random.default_rng(4)
        for n in (3, 8):
            ansatz = Ansatz.linear(n)
            params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
            assert np.linalg.norm(statevector(ansatz, params)) == pytest.approx(1.0, abs=1e-12)

    def test_width_cap(self):
        with pytest.raises(ValueError):
            statevector(Ansatz.linear(20), np.zeros(21))


class TestOracleAgreement:
    def test_matches_analytic_path(self):
        rng = np.random.default_rng(5)
        for kind in ("linear", "quadratic", "exponential"):
            for n in (2, 3):
                ansatz = getattr(Ansatz, kind)(n)
                for _ in range(10):
                    params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
                    dev = np.abs(statevector(ansatz, params) - gate_level_oracle(ansatz, params))
                    assert dev.max() < 1e-10

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(8)
        for kind in ("linear", "quadratic", "exponential"):
            for n in range(1, 5):
                ansatz = getattr(Ansatz, kind)(n)
                params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
                dev = np.abs(gate_level_oracle(ansatz, params) - dense_oracle(ansatz, params))
                assert dev.max() < 1e-14

    def test_single_input_block_structure(self):
        # blocks R_y(a0+a1) and X.R_y(a0-a1), read off the oracle amplitudes
        rng = np.random.default_rng(6)
        a0, a1 = rng.uniform(0, 2 * np.pi, 2)
        state = gate_level_oracle(Ansatz.linear(1), [a0, a1]) * np.sqrt(2)
        assert state[0] == pytest.approx(np.cos(a0 + a1), abs=1e-12)
        assert state[1] == pytest.approx(np.sin(a0 + a1), abs=1e-12)
        assert state[2] == pytest.approx(np.sin(a0 - a1), abs=1e-12)
        assert state[3] == pytest.approx(np.cos(a0 - a1), abs=1e-12)

    def test_oracle_width_cap(self):
        ansatz = Ansatz.linear(11)
        with pytest.raises(ValueError):
            gate_level_oracle(ansatz, np.zeros(12))


def test_exponential_sign_matrix_invertible():
    for n in range(1, 7):
        signs = sign_matrix(Ansatz.exponential(n))
        assert signs.shape == (1 << n, 1 << n)
        assert np.linalg.matrix_rank(signs) == 1 << n
