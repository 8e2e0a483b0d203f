"""Clifford-algebra layer: canonical basis, Gamma group, intertwiners."""

import numpy as np
import pytest

from majorana import clifford

REP = clifford.build_canonical_rep()


def test_generators_are_integer_matrices():
    for M in REP.generators:
        assert M.dtype == float
        np.testing.assert_array_equal(M, np.round(M))
        assert set(np.unique(np.abs(M))) <= {0.0, 1.0}


def test_anticommutators_exact():
    g = clifford.MINKOWSKI
    for mu in range(4):
        for nu in range(4):
            lhs = clifford.anticommutator(REP.generators[mu], REP.generators[nu])
            np.testing.assert_array_equal(lhs, -2.0 * g[mu, nu] * np.eye(4))


def test_gamma5_square_and_anticommutation():
    ig5 = REP.gamma5
    np.testing.assert_array_equal(ig5 @ ig5, -np.eye(4))
    for M in REP.generators:
        np.testing.assert_array_equal(ig5 @ M, -(M @ ig5))


def test_basis_has_16_elements_traces_dets():
    assert len(REP.gamma_basis) == 16
    np.testing.assert_array_equal(REP.gamma_basis[0], np.eye(4))
    for A in REP.gamma_basis[1:]:
        assert abs(np.trace(A)) == 0.0
    for A in REP.gamma_basis:
        assert abs(np.linalg.det(A) - 1.0) < 1e-12


def test_gram_orthogonality():
    rpt = clifford.verify_basis_independence(REP)
    assert rpt.passed
    np.testing.assert_array_equal(rpt.gram, 4.0 * np.eye(16))


def test_symmetry_split_10_6():
    nsym = sum(np.array_equal(A, A.T) for A in REP.gamma_basis)
    assert nsym == 10


def test_gamma2_group_closure_and_order():
    g2 = REP.gamma2_group
    assert len(g2) == 32
    # pairwise distinct
    for i, A in enumerate(g2):
        for B in g2[i + 1:]:
            assert np.abs(A - B).max() > 0.5
    # closed under product (exact: all entries are integers)
    for A in g2[::7]:
        for B in g2[::5]:
            P = A @ B
            assert any(np.array_equal(P, C) for C in g2)


def test_omega_sets_partition():
    # every basis element commutes or anticommutes with every other
    for k in (1, 5, 9, 12):
        com, acom = clifford.omega_sets(REP.gamma_basis[k], REP)
        assert sorted(com + acom) == list(range(16))
        assert 0 in com  # identity commutes with everything
        A = REP.gamma_basis[k]
        for i in com:
            np.testing.assert_allclose(clifford.commutator(A, REP.gamma_basis[i]),
                                       0.0, atol=1e-12)
        for i in acom:
            np.testing.assert_allclose(
                clifford.anticommutator(A, REP.gamma_basis[i]), 0.0, atol=1e-12)


def test_omega_sets_rejects_non_gamma():
    with pytest.raises(clifford.NotInGammaError):
        clifford.omega_sets(np.diag([1.0, 2.0, 3.0, 4.0]), REP)


def test_rep_from_generators_rejects_bad_algebra():
    bad = [M.copy() for M in REP.generators]
    bad[1][0, 0] += 0.5
    with pytest.raises(ValueError):
        clifford.rep_from_generators(*bad)


def test_intertwiner_random_conjugation():
    rng = np.random.default_rng(7)
    Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    rep_b = clifford.rep_from_generators(*(Q @ M @ Q.T for M in REP.generators))
    S = clifford.intertwiner(REP, rep_b)
    for A, B in zip(REP.gamma2_group, rep_b.gamma2_group):
        np.testing.assert_allclose(S @ A, B @ S, atol=1e-12)
    assert abs(abs(np.linalg.det(S)) - 1.0) < 1e-12


def pairwise_inverse_indices(group, tol=1e-9):
    """Oracle: for each A the first B with |A B - I| < tol, one pair at a time."""
    inv = []
    for A in group:
        for j, B in enumerate(group):
            if np.abs(A @ B - np.eye(4)).max() < tol:
                inv.append(j)
                break
        else:
            raise ValueError("group element has no inverse in the list")
    return inv


def test_group_inverse_indices_match_pairwise_search():
    Q = np.linalg.qr(np.random.default_rng(8).normal(size=(4, 4)))[0]
    rep_b = clifford.rep_from_generators(*(Q @ M @ Q.T for M in REP.generators))
    for group in (REP.gamma2_group, rep_b.gamma2_group):
        inv = clifford._group_inverse_indices(group)
        assert inv == pairwise_inverse_indices(group)
        assert all(type(j) is int for j in inv)
        for A, j in zip(group, inv):
            np.testing.assert_allclose(A @ group[j], np.eye(4), atol=1e-12)
    # with repeats, the first match: I -> 0, ig0 -> 2 (-ig0), -ig0 -> 1
    g0 = REP.generators[0]
    repeats = [np.eye(4), g0, -g0, np.eye(4), g0]
    assert clifford._group_inverse_indices(repeats) == pairwise_inverse_indices(repeats)
    assert clifford._group_inverse_indices(repeats) == [0, 2, 1, 0, 2]


def test_group_inverse_indices_reject_a_missing_inverse():
    # 2 I has no inverse in the list; nor does ig0 once -ig0 is dropped
    g0 = REP.generators[0]
    for group in ([np.eye(4), 2.0 * np.eye(4)], [np.eye(4), g0]):
        with pytest.raises(ValueError):
            pairwise_inverse_indices(group)
        with pytest.raises(ValueError):
            clifford._group_inverse_indices(group)


def test_intertwiner_of_rep_with_itself_is_scalar():
    S = clifford.intertwiner(REP, REP)
    # Schur: the self-intertwiner of an irreducible real rep here is +-I
    np.testing.assert_allclose(np.abs(S), np.eye(4), atol=1e-12)
