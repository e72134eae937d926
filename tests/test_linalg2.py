import math

import numpy as np
import pytest

import oracles
from conftest import CAPTION_PT, random_matrix, random_state
from nhqubit.dynamics import build_hamiltonian
from nhqubit.errors import DegenerateNonDiagonalizable, NonPhysicalState
from nhqubit.linalg2 import DensityMatrix, eig2, fidelity, opnorm


class TestEig2:
    def test_caption_hamiltonian_eigenvalues(self):
        # alpha +- sqrt(delta^2 + xi^2 - theta^2) = 1 +- sqrt(0.2301)
        vals, vecs = eig2(build_hamiltonian(CAPTION_PT))
        got = sorted(vals, key=lambda z: z.real)
        split = math.sqrt(0.56**2 + 0.81**2 - 0.86**2)
        assert got[0] == pytest.approx(1.0 - split, abs=1e-12)
        assert got[1] == pytest.approx(1.0 + split, abs=1e-12)
        assert abs(got[1] - (1.0 + 0.479687)) < 1e-6

    def test_eigenpairs_satisfy_definition(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            m = random_matrix(rng)
            try:
                vals, vecs = eig2(m)
            except DegenerateNonDiagonalizable:
                continue
            for i in range(2):
                resid = m @ vecs[:, i] - vals[i] * vecs[:, i]
                assert np.linalg.norm(resid) < 1e-10 * max(
                    np.linalg.norm(m), 1.0
                )

    def test_matches_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            m = random_matrix(rng)
            try:
                vals, _ = eig2(m)
            except DegenerateNonDiagonalizable:
                continue
            ref, _ = oracles.brute_eig(m)
            diff = min(
                max(abs(vals[0] - ref[0]), abs(vals[1] - ref[1])),
                max(abs(vals[0] - ref[1]), abs(vals[1] - ref[0])),
            )
            assert diff < 1e-10 * max(np.linalg.norm(m), 1.0)

    def test_hermitian_branch_is_orthonormal_descending(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = random_matrix(rng)
            h = a + a.conj().T
            vals, vecs = eig2(h)
            assert vals[0].imag == 0.0 and vals[1].imag == 0.0
            assert vals[0].real >= vals[1].real
            gram = vecs.conj().T @ vecs
            assert np.allclose(gram, np.eye(2), atol=1e-14)

    def test_diagonal_shortcut(self):
        vals, vecs = eig2(np.diag([3.0, -1.0]))
        assert list(vals) == [3.0, -1.0]
        assert np.array_equal(vecs, np.eye(2))

    def test_jordan_block_raises(self):
        with pytest.raises(DegenerateNonDiagonalizable):
            eig2([[0.0, 1.0], [0.0, 0.0]])

    def test_degenerate_diagonal_is_fine(self):
        vals, _ = eig2(np.eye(2))
        assert list(vals) == [1.0, 1.0]

    def test_rejects_bad_shapes_and_nonfinite(self):
        with pytest.raises(ValueError):
            eig2(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            eig2([[np.nan, 0.0], [0.0, 1.0]])


class TestOpnorm:
    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            m = random_matrix(rng)
            assert opnorm(m) == pytest.approx(
                oracles.brute_opnorm(m), abs=1e-10 * max(np.linalg.norm(m), 1)
            )

    def test_matches_svd(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = random_matrix(rng)
            assert opnorm(m) == pytest.approx(
                np.linalg.norm(m, 2), rel=1e-12, abs=1e-13
            )

    def test_zero_matrix(self):
        assert opnorm(np.zeros((2, 2))) == 0.0

    def test_oracle_matches_svd(self):
        """The oracle converges on near-degenerate pairs too: on this draw
        power iteration (200 steps) was off by 2.7e-10 relative to scale."""
        rng = np.random.default_rng(99)
        ms = np.array([random_matrix(rng) for _ in range(10_000)])
        svd = np.linalg.svd(ms, compute_uv=False)[:, 0]
        scales = np.maximum(np.linalg.norm(ms, axis=(-2, -1)), 1.0)
        worst = np.max(np.abs(oracles.brute_opnorm(ms, iters=200) - svd)
                       / scales)
        assert worst <= 1e-13
        assert oracles.brute_opnorm(np.zeros((2, 2))) == 0.0


class TestDensityMatrix:
    def test_plus_state(self):
        rho = DensityMatrix.plus()
        assert rho.eigenvalues() == (0.0, 1.0)
        assert rho.sigma_z() == 0.0

    def test_trace_violation(self):
        with pytest.raises(NonPhysicalState):
            DensityMatrix(p1=0.6, p2=0.6, c=0.0)

    def test_positivity_violation(self):
        with pytest.raises(NonPhysicalState):
            DensityMatrix(p1=0.5, p2=0.5, c=0.9 + 0.0j)

    def test_from_matrix_rejects_non_hermitian(self):
        with pytest.raises(NonPhysicalState):
            DensityMatrix.from_matrix([[0.5, 0.5], [-0.5, 0.5]])

    def test_eigenvalues_clamp(self):
        rho = DensityMatrix(p1=0.5, p2=0.5, c=0.5 + 0.0j)
        lo, hi = rho.eigenvalues()
        assert lo == 0.0 and hi == 1.0

    def test_roundtrip_matrix(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            rho = random_state(rng)
            again = DensityMatrix.from_matrix(rho.matrix)
            assert again == rho


class TestFidelity:
    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a, b = random_state(rng), random_state(rng)
            assert fidelity(a, b) == pytest.approx(
                oracles.brute_fidelity(a.matrix, b.matrix), abs=1e-10
            )

    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            rho = random_state(rng)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        up = DensityMatrix(p1=1.0, p2=0.0, c=0.0j)
        down = DensityMatrix(p1=0.0, p2=1.0, c=0.0j)
        assert fidelity(up, down) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a, b = random_state(rng), random_state(rng)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-14)

    def test_requires_density_matrices(self):
        with pytest.raises(NonPhysicalState):
            fidelity(np.eye(2) / 2, DensityMatrix.plus())
