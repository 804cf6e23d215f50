"""Tests for truncated Fock-space optics."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qretrodict import hilbert, optics, retrodict
from qretrodict.errors import (
    DimensionMismatch,
    ValidationError,
    ZeroProbabilityError,
)
from qretrodict.hilbert import Operator
from qretrodict.optics import (
    BeamSplitter,
    FockSpace,
    ReferenceState,
    annihilation,
    beam_splitter_unitary,
    compose_measurement_pom,
    creation,
    inefficient_detector_retro,
    normal_ordered_damping,
    number_projector,
    projection_synthesis_retro,
    pure_state_fidelity,
    scissors_output,
    total_photon_blocks,
)
from support import random_density, random_psd


def detector_diagonal(n, eta, N):
    """Binomial closed form for the inefficient-counter retrodictive diagonal."""
    k = np.arange(N + 1)
    vals = np.zeros(N + 1)
    for kk in range(n, N + 1):
        vals[kk] = eta ** (n + 1) * math.comb(kk, n) * (1 - eta) ** (kk - n)
    return vals


def compose_by_primitives(rho_c, pi_b, pi_c, bs, space):
    """Reference route for the composed POM element using two-mode primitives."""
    u = beam_splitter_unitary(bs, space)
    weighted = hilbert.tensor(hilbert.identity([space.dim]), rho_c)
    joint = hilbert.tensor(pi_b, pi_c)
    m = hilbert.matmul(hilbert.matmul(hilbert.matmul(weighted, hilbert.adjoint(u)),
                                      joint), u)
    return hilbert.partial_trace(m, 1)


def kron_beam_splitter_unitary(bs, space):
    """Beam-splitter unitary cut block by block from the dense two-mode generator.

    Oracle for the per-block builder: b'c + c'b is assembled with
    Kronecker products over both modes, and each photon-number block is
    sliced out of it and exponentiated.
    """
    dim = space.dim
    b = annihilation(space).mat
    generator = np.kron(b.conj().T, b) + np.kron(b, b.conj().T)
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    for idx in total_photon_blocks(space):
        block = generator[np.ix_(idx, idx)]
        w, v = np.linalg.eigh(block)
        u[np.ix_(idx, idx)] = (v * np.exp(1j * bs.theta * w)) @ v.conj().T
    return u


def dense_synthesis_retro(ref, n, m, bs, space):
    """Synthesized retrodictive state through the dense composed element."""
    element = compose_measurement_pom(ref.projector(space), number_projector(space, n),
                                      number_projector(space, m), bs, space)
    return retrodict.retro_state(element)


def dense_scissors_output(ref, bs, space):
    """Scissors output with the resource U|1,0> taken from the full unitary."""
    dim = space.dim
    retro = dense_synthesis_retro(ref, 1, 0, bs, space)
    one_photon_in = np.zeros(dim * dim, dtype=complex)
    one_photon_in[1 * dim + 0] = 1.0
    psi = kron_beam_splitter_unitary(BeamSplitter(math.pi / 4), space) @ one_photon_in
    psi_mat = psi.reshape(dim, dim)  # [n_d, n_b] amplitudes
    out = psi_mat @ retro.mat.T @ psi_mat.conj().T
    return (out + out.conj().T) / (2.0 * np.trace(out).real)


def random_reference(rng, length):
    amps = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return ReferenceState(tuple(amps / np.linalg.norm(amps)))


class TestTypes:
    def test_fock_space_requires_positive_truncation(self):
        assert FockSpace(1).dim == 2
        with pytest.raises(ValidationError):
            FockSpace(0)

    def test_beam_splitter_transmittance(self):
        assert BeamSplitter(0.0).eta == pytest.approx(1.0)
        assert BeamSplitter(math.pi / 2).eta == pytest.approx(0.0, abs=1e-15)
        assert BeamSplitter(math.pi / 4).eta == pytest.approx(0.5)
        with pytest.raises(ValidationError):
            BeamSplitter(float("nan"))

    def test_reference_state_normalization(self):
        ReferenceState((1 / np.sqrt(2), 1j / np.sqrt(2)))
        with pytest.raises(ValidationError):
            ReferenceState((1.0, 0.5))
        with pytest.raises(ValidationError):
            ReferenceState(())

    def test_reference_state_padding(self):
        ref = ReferenceState((0.6, 0.8))
        np.testing.assert_allclose(ref.ket(FockSpace(3)), [0.6, 0.8, 0, 0],
                                   atol=1e-15)
        with pytest.raises(DimensionMismatch):
            ReferenceState((1.0, 0.0, 0.0)).ket(FockSpace(1))


class TestLadderOperators:
    def test_smallest_space_matrix(self):
        np.testing.assert_allclose(annihilation(FockSpace(1)).mat,
                                   [[0, 1], [0, 0]], atol=1e-15)

    def test_annihilate_vacuum(self):
        b = annihilation(FockSpace(5)).mat
        vac = np.zeros(6)
        vac[0] = 1.0
        np.testing.assert_allclose(b @ vac, np.zeros(6), atol=1e-15)

    def test_matrix_elements(self):
        space = FockSpace(6)
        b = annihilation(space).mat
        for k in range(1, space.dim):
            assert b[k - 1, k] == pytest.approx(math.sqrt(k))

    def test_commutator_below_truncation_edge(self):
        space = FockSpace(7)
        b = annihilation(space).mat
        bdag = creation(space).mat
        comm = b @ bdag - bdag @ b
        for k in range(space.truncation):
            assert comm[k, k] == pytest.approx(1.0)
        # The edge state is where the truncation must show up.
        assert comm[space.truncation, space.truncation] != pytest.approx(1.0)


class TestBeamSplitterUnitary:
    def test_zero_angle_is_identity(self):
        u = beam_splitter_unitary(BeamSplitter(0.0), FockSpace(3))
        np.testing.assert_allclose(u.mat, np.eye(16), atol=1e-12)

    def test_single_photon_block_closed_form(self):
        # One photon in, nothing in the coupled port: amplitude cos(theta)
        # to stay, i sin(theta) to hop.
        theta = 0.3
        space = FockSpace(4)
        u = beam_splitter_unitary(BeamSplitter(theta), space)
        vec = np.zeros(space.dim ** 2, dtype=complex)
        vec[1 * space.dim + 0] = 1.0
        out = u.mat @ vec
        expected = np.zeros_like(vec)
        expected[1 * space.dim + 0] = math.cos(theta)
        expected[0 * space.dim + 1] = 1j * math.sin(theta)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_balanced_splitter_entangles_single_photon(self):
        space = FockSpace(2)
        u = beam_splitter_unitary(BeamSplitter(math.pi / 4), space)
        vec = np.zeros(space.dim ** 2, dtype=complex)
        vec[1 * space.dim + 0] = 1.0
        out = u.mat @ vec
        expected = np.zeros_like(vec)
        expected[1 * space.dim + 0] = 1 / math.sqrt(2)
        expected[0 * space.dim + 1] = 1j / math.sqrt(2)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_full_matrix_exponential(self):
        # Independent route: exponentiate the whole two-mode generator.
        space = FockSpace(5)
        theta = 0.77
        b = annihilation(space).mat
        gen = np.kron(b.conj().T, b) + np.kron(b, b.conj().T)
        expected = scipy.linalg.expm(1j * theta * gen)
        got = beam_splitter_unitary(BeamSplitter(theta), space)
        np.testing.assert_allclose(got.mat, expected, atol=1e-12)

    def test_conserves_total_photon_number(self):
        space = FockSpace(6)
        u = beam_splitter_unitary(BeamSplitter(1.1), space).mat
        n = np.diag(np.arange(space.dim)).astype(complex)
        total = np.kron(n, np.eye(space.dim)) + np.kron(np.eye(space.dim), n)
        assert np.max(np.abs(u @ total - total @ u)) <= 1e-10

    def test_blocks_within_truncation_are_unitary(self):
        space = FockSpace(8)
        u = beam_splitter_unitary(BeamSplitter(0.9), space).mat
        for total, idx in enumerate(total_photon_blocks(space)):
            if total > space.truncation:
                continue
            block = u[np.ix_(idx, idx)]
            gram = block.conj().T @ block
            assert np.max(np.abs(gram - np.eye(len(idx)))) <= 1e-10

    def test_block_assembly_equals_kron_generator_assembly(self):
        for n_trunc in (1, 2, 5, 9):
            space = FockSpace(n_trunc)
            for theta in (0.0, 0.3, math.pi / 4, 1.2, -2.1):
                got = beam_splitter_unitary(BeamSplitter(theta), space).mat
                expected = kron_beam_splitter_unitary(BeamSplitter(theta), space)
                assert np.array_equal(got, expected), (n_trunc, theta)

    def test_full_truncated_matrix_is_unitary(self):
        u = beam_splitter_unitary(BeamSplitter(0.4), FockSpace(5))
        assert hilbert.is_unitary(u, tol=1e-10)


class TestComposeMeasurementPom:
    def test_decoupled_modes_pass_through(self):
        space = FockSpace(4)
        rng = np.random.default_rng(71)
        rho_c = random_density(rng, space.dim)
        for n in range(space.dim):
            got = compose_measurement_pom(rho_c, number_projector(space, n),
                                          hilbert.identity([space.dim]),
                                          BeamSplitter(0.0), space)
            np.testing.assert_allclose(got.mat, number_projector(space, n).mat,
                                       atol=1e-12)

    def test_matches_primitive_route(self):
        rng = np.random.default_rng(73)
        space = FockSpace(4)
        bs = BeamSplitter(0.6)
        for _ in range(5):
            rho_c = random_density(rng, space.dim)
            pi_b = Operator(random_psd(rng, space.dim))
            pi_c = Operator(random_psd(rng, space.dim))
            fast = compose_measurement_pom(rho_c, pi_b, pi_c, bs, space)
            slow = compose_by_primitives(rho_c, pi_b, pi_c, bs, space)
            np.testing.assert_allclose(fast.mat, slow.mat, atol=1e-10)

    def test_defining_probability_identity(self):
        # Tr_b(rho_b element) must equal the joint two-mode probability for
        # arbitrary test states.
        rng = np.random.default_rng(79)
        space = FockSpace(4)
        bs = BeamSplitter(0.95)
        rho_c = random_density(rng, space.dim)
        pi_b = number_projector(space, 1)
        pi_c = number_projector(space, 2)
        element = compose_measurement_pom(rho_c, pi_b, pi_c, bs, space)
        u = beam_splitter_unitary(bs, space)
        joint = hilbert.tensor(pi_b, pi_c)
        for _ in range(20):
            rho_b = random_density(rng, space.dim)
            lhs = np.trace(rho_b.mat @ element.mat)
            evolved = u.mat @ np.kron(rho_b.mat, rho_c.mat) @ u.mat.conj().T
            rhs = np.trace(evolved @ joint.mat)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_output_is_psd(self):
        rng = np.random.default_rng(83)
        space = FockSpace(5)
        element = compose_measurement_pom(
            random_density(rng, space.dim), number_projector(space, 2),
            number_projector(space, 1), BeamSplitter(0.3), space)
        assert hilbert.is_psd(element, 1e-9)

    def test_counting_outcomes_resolve_identity(self):
        # With vacuum in the coupled port, every input photon ends up
        # counted: outcomes with n+m <= N exhaust the truncated space.
        space = FockSpace(4)
        bs = BeamSplitter(0.8)
        vac = number_projector(space, 0)
        total = np.zeros((space.dim, space.dim), dtype=complex)
        for n in range(space.dim):
            for m in range(space.dim - n):
                element = compose_measurement_pom(
                    vac, number_projector(space, n), number_projector(space, m),
                    bs, space)
                total += element.mat
        np.testing.assert_allclose(total, np.eye(space.dim), atol=1e-10)

    def test_dimension_mismatch(self):
        space = FockSpace(3)
        with pytest.raises(DimensionMismatch):
            compose_measurement_pom(Operator(np.eye(2) / 2),
                                    number_projector(space, 0),
                                    number_projector(space, 0),
                                    BeamSplitter(0.1), space)


class TestNormalOrderedDamping:
    def test_full_damping_leaves_vacuum_projector(self):
        space = FockSpace(5)
        got = normal_ordered_damping(1.0, space)
        np.testing.assert_allclose(got.mat, number_projector(space, 0).mat,
                                   atol=1e-15)

    def test_no_damping_is_identity(self):
        got = normal_ordered_damping(0.0, FockSpace(4))
        np.testing.assert_allclose(got.mat, np.eye(5), atol=1e-15)

    def test_half_damping_entry(self):
        got = normal_ordered_damping(0.5, FockSpace(6))
        assert got.mat[3, 3] == pytest.approx(0.125, abs=1e-15)

    def test_matches_normal_ordered_series(self):
        # Independent oracle: expand the normal-ordered exponential term by
        # term, sum_m (-eta)^m / m! * k!/(k-m)!.
        eta = 0.37
        space = FockSpace(8)
        got = np.diag(normal_ordered_damping(eta, space).mat).real
        for k in range(space.dim):
            series = sum((-eta) ** m / math.factorial(m)
                         * math.factorial(k) / math.factorial(k - m)
                         for m in range(k + 1))
            assert got[k] == pytest.approx(series, abs=1e-12)

    def test_rejects_out_of_range_eta(self):
        with pytest.raises(ValidationError):
            normal_ordered_damping(-0.1, FockSpace(2))
        with pytest.raises(ValidationError):
            normal_ordered_damping(1.1, FockSpace(2))


class TestInefficientDetectorRetro:
    def test_perfect_detector_with_no_counts_retrodicts_vacuum(self):
        space = FockSpace(6)
        got = inefficient_detector_retro(0, 1.0, space)
        np.testing.assert_allclose(got.mat, number_projector(space, 0).mat,
                                   atol=1e-15)

    def test_single_count_half_efficiency_diagonal(self):
        space = FockSpace(40)
        got = np.diag(inefficient_detector_retro(1, 0.5, space).mat).real
        k = np.arange(41)
        expected = 0.25 * k * 0.5 ** np.clip(k - 1, 0, None)
        expected[0] = 0.0
        np.testing.assert_allclose(got, expected, atol=1e-15)
        assert abs(got.sum() - 1.0) <= 1e-9

    def test_matches_binomial_closed_form(self):
        space = FockSpace(25)
        for n in (0, 1, 2, 3):
            for eta in (0.3, 0.6, 1.0):
                got = np.diag(inefficient_detector_retro(n, eta, space).mat).real
                np.testing.assert_allclose(got, detector_diagonal(n, eta, 25),
                                           atol=1e-13)

    def test_off_diagonal_entries_vanish(self):
        got = inefficient_detector_retro(2, 0.7, FockSpace(10)).mat
        np.testing.assert_allclose(got - np.diag(np.diag(got)),
                                   np.zeros_like(got), atol=1e-15)

    def test_cross_pipeline_agreement(self):
        # The counting element composed behind a beam splitter of matching
        # transmittance carries the same retrodictive state.
        space = FockSpace(12)
        for n, eta in ((0, 0.5), (1, 0.5), (2, 0.8)):
            bs = BeamSplitter(math.acos(math.sqrt(eta)))
            element = compose_measurement_pom(
                number_projector(space, 0), number_projector(space, n),
                hilbert.identity([space.dim]), bs, space)
            # The element itself is the closed form up to one factor of eta.
            closed = inefficient_detector_retro(n, eta, space)
            np.testing.assert_allclose(eta * element.mat, closed.mat, atol=1e-12)
            # And both routes agree once normalized to unit trace.
            via_pipeline = retrodict.retro_state(element)
            normalized_closed = retrodict.retro_state(closed)
            np.testing.assert_allclose(via_pipeline.mat, normalized_closed.mat,
                                       atol=1e-12)

    def test_trace_converges_with_truncation(self):
        space = FockSpace(60)
        for n in (0, 1, 2, 3):
            for eta in (0.2, 0.3, 0.5, 0.9):
                tr = np.trace(inefficient_detector_retro(n, eta, space).mat).real
                deficit = 1.0 - sum(
                    eta ** (n + 1) * math.comb(k, n) * (1 - eta) ** (k - n)
                    for k in range(n, 61))
                assert abs(tr - 1.0) <= max(1e-8, deficit + 1e-12)
                if eta >= 0.5:
                    assert abs(tr - 1.0) <= 1e-8

    def test_rejects_zero_efficiency(self):
        with pytest.raises(ValidationError):
            inefficient_detector_retro(1, 0.0, FockSpace(5))

    def test_rejects_counts_beyond_truncation(self):
        with pytest.raises(ValidationError):
            inefficient_detector_retro(6, 0.5, FockSpace(5))


class TestProjectionSynthesisRetro:
    def test_single_photon_outcome_closed_form(self):
        # Counting (1, 0) behind the splitter synthesizes
        # cos(theta) c0* |1> - i sin(theta) c1* |0>, normalized.
        rng = np.random.default_rng(89)
        space = FockSpace(6)
        for _ in range(10):
            amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            amps /= np.linalg.norm(amps)
            theta = float(rng.uniform(0.1, 1.4))
            got = projection_synthesis_retro(ReferenceState(tuple(amps)), 1, 0,
                                             BeamSplitter(theta), space)
            expected = np.zeros(space.dim, dtype=complex)
            expected[1] = np.conj(amps[0]) * math.cos(theta)
            expected[0] = -1j * np.conj(amps[1]) * math.sin(theta)
            expected /= np.linalg.norm(expected)
            np.testing.assert_allclose(got.mat, np.outer(expected, expected.conj()),
                                       atol=1e-12)

    def test_vacuum_counts_retrodict_vacuum(self):
        space = FockSpace(3)
        got = projection_synthesis_retro(ReferenceState((1.0,)), 0, 0,
                                         BeamSplitter(0.7), space)
        np.testing.assert_allclose(got.mat, number_projector(space, 0).mat,
                                   atol=1e-12)

    def test_support_limited_by_total_counts(self):
        rng = np.random.default_rng(97)
        space = FockSpace(7)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps /= np.linalg.norm(amps)
        got = projection_synthesis_retro(ReferenceState(tuple(amps)), 2, 1,
                                         BeamSplitter(0.5), space)
        np.testing.assert_allclose(np.trace(got.mat), 1.0, atol=1e-12)
        assert np.max(np.abs(got.mat[4:, :])) <= 1e-12
        assert np.max(np.abs(got.mat[:, 4:])) <= 1e-12

    def test_truncation_independence(self):
        amps = (0.5, 0.5j, -0.5, 0.5)
        for n, m in ((1, 0), (1, 1), (2, 1)):
            small = projection_synthesis_retro(ReferenceState(amps), n, m,
                                               BeamSplitter(0.8), FockSpace(5))
            large = projection_synthesis_retro(ReferenceState(amps), n, m,
                                               BeamSplitter(0.8), FockSpace(6))
            overlap = np.trace(small.mat @ large.mat[:6, :6]).real
            assert overlap >= 1 - 1e-9

    @pytest.mark.parametrize("n_trunc", [6, 12, 24])
    def test_matches_dense_composed_element(self, n_trunc):
        # Oracle: the dense element U+ (Pi_n x Pi_m) U traced against the
        # reference, normalized by retro_state.
        rng = np.random.default_rng(100 + n_trunc)
        space = FockSpace(n_trunc)
        pairs = [(0, 0), (1, 0), (0, 1), (2, 1), (1, 3),
                 (n_trunc // 2, n_trunc - n_trunc // 2)]
        for n, m in pairs:
            for _ in range(2):
                ref = random_reference(rng, int(rng.integers(1, space.dim + 1)))
                bs = BeamSplitter(float(rng.uniform(-math.pi, math.pi)))
                got = projection_synthesis_retro(ref, n, m, bs, space)
                expected = dense_synthesis_retro(ref, n, m, bs, space)
                np.testing.assert_allclose(got.mat, expected.mat, rtol=0,
                                           atol=1e-14, err_msg=f"{(n, m)}")

    def test_reference_longer_than_truncation(self):
        with pytest.raises(DimensionMismatch):
            projection_synthesis_retro(ReferenceState((0.6, 0.0, 0.0, 0.8)), 1, 0,
                                       BeamSplitter(0.5), FockSpace(2))

    def test_zero_probability_outcome(self):
        # A two-photon reference cannot trigger the (1, 0) outcome.
        space = FockSpace(4)
        with pytest.raises(ZeroProbabilityError):
            projection_synthesis_retro(ReferenceState((0.0, 0.0, 1.0)), 1, 0,
                                       BeamSplitter(0.6), space)

    def test_counts_beyond_truncation(self):
        with pytest.raises(ValidationError):
            projection_synthesis_retro(ReferenceState((1.0,)), 3, 1, BeamSplitter(0.5),
                                       FockSpace(3))


class TestScissorsOutput:
    def test_vacuum_reference_passes_through(self):
        space = FockSpace(3)
        got = scissors_output(ReferenceState((1.0, 0.0)), BeamSplitter(0.4), space)
        np.testing.assert_allclose(got.mat, number_projector(space, 0).mat,
                                   atol=1e-12)

    def test_balanced_case_yields_equal_superposition(self):
        space = FockSpace(3)
        got = scissors_output(ReferenceState((1 / math.sqrt(2), 1 / math.sqrt(2))),
                              BeamSplitter(math.pi / 4), space)
        expected = np.zeros(space.dim, dtype=complex)
        expected[0] = expected[1] = 1 / math.sqrt(2)
        np.testing.assert_allclose(got.mat, np.outer(expected, expected.conj()),
                                   atol=1e-12)

    def test_matches_closed_form_for_random_inputs(self):
        rng = np.random.default_rng(101)
        space = FockSpace(4)
        for _ in range(20):
            amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            amps /= np.linalg.norm(amps)
            theta = float(rng.uniform(0.1, 1.4))
            got = scissors_output(ReferenceState(tuple(amps)), BeamSplitter(theta),
                                  space)
            expected = np.zeros(space.dim, dtype=complex)
            expected[0] = amps[0] * math.cos(theta)
            expected[1] = amps[1] * math.sin(theta)
            expected /= np.linalg.norm(expected)
            closed = Operator(np.outer(expected, expected.conj()))
            assert pure_state_fidelity(got, closed) >= 1 - 1e-10

    def test_truncates_higher_photon_reference(self):
        # Amplitudes beyond one photon are cut off, not folded in.
        space = FockSpace(5)
        amps = np.array([0.6, 0.0, 0.8], dtype=complex)
        got = scissors_output(ReferenceState(tuple(amps)), BeamSplitter(0.9), space)
        np.testing.assert_allclose(got.mat, number_projector(space, 0).mat,
                                   atol=1e-12)

    def test_zero_probability_projection(self):
        with pytest.raises(ZeroProbabilityError):
            scissors_output(ReferenceState((0.0, 1.0)), BeamSplitter(0.0),
                            FockSpace(3))

    @pytest.mark.parametrize("n_trunc", [6, 12, 24])
    def test_matches_dense_resource_route(self, n_trunc):
        rng = np.random.default_rng(200 + n_trunc)
        space = FockSpace(n_trunc)
        for _ in range(4):
            ref = random_reference(rng, int(rng.integers(2, space.dim + 1)))
            bs = BeamSplitter(float(rng.uniform(-math.pi, math.pi)))
            got = scissors_output(ref, bs, space)
            np.testing.assert_allclose(got.mat, dense_scissors_output(ref, bs, space),
                                       rtol=0, atol=1e-14)


def test_large_truncation_needs_no_dense_two_mode_matrices():
    # At N = 200 one dense two-mode unitary alone takes 16 * 201**4 bytes,
    # about 26 GB; the photon-number blocks need only the output operator.
    space = FockSpace(200)
    ref = ReferenceState((0.5, 0.5j, -0.5, 0.5))
    bs = BeamSplitter(0.6)
    tracemalloc.start()
    try:
        synthesized = projection_synthesis_retro(ref, 2, 2, bs, space)
        scissors = scissors_output(ref, bs, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    small = FockSpace(6)
    np.testing.assert_allclose(synthesized.mat[:7, :7],
                               projection_synthesis_retro(ref, 2, 2, bs, small).mat,
                               atol=1e-14)
    np.testing.assert_allclose(scissors.mat[:7, :7],
                               scissors_output(ref, bs, small).mat, atol=1e-14)
