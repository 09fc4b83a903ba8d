"""The closed-form group exponential against a general matrix exponential.

In every catalogued model the square of an algebra element is diagonal,
so exp X = cos(Theta) + (sin(Theta) / Theta) X with X^2 = -Theta^2.  The
checks run over list_groups(), so a new catalogued group is covered with
no edit here.  scipy.linalg.expm is the oracle; it is needed by the tests
only, and without it the oracle checks report skipped.
"""

import numpy as np
import pytest

from cheegerdef.lie_core import (
    anticommutator_residual,
    closed_form_exp,
    get_group,
    list_groups,
)

ATOL = 1e-14


def _expm():
    return pytest.importorskip("scipy.linalg").expm


def _so3_basis():
    Lx = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    Ly = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    Lz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return (Lx, Ly, Lz)


def _near_pi_vectors(group):
    """Each basis direction scaled to rotation angles at and next to +-pi."""
    out = []
    for a, B in enumerate(group.algebra.matrices):
        unit_angle = np.sqrt(np.max(-np.diag(B @ B)))
        for angle in (np.pi, -np.pi, np.nextafter(np.pi, 0.0), np.pi - 1e-9,
                      np.pi + 1e-9):
            v = np.zeros(group.algebra.dim)
            v[a] = angle / unit_angle
            out.append(v)
    return out


@pytest.mark.parametrize("gid", list_groups())
def test_basis_anticommutators_are_diagonal(gid):
    basis = get_group(gid).algebra.matrices
    for a in basis:
        for b in basis:
            S = a @ b + b @ a
            assert np.array_equal(S, np.diag(np.diag(S)))
    assert anticommutator_residual(basis) == 0.0


@pytest.mark.parametrize("gid", list_groups())
def test_closed_form_matches_expm(gid):
    expm = _expm()
    group = get_group(gid)
    rows = np.random.default_rng(20261018).random((50, group.draws_per_vector))
    vecs = list(group.algebra_vectors(rows))
    vecs += [np.zeros(group.algebra.dim)] + _near_pi_vectors(group)
    worst = 0.0
    for v in vecs:
        X = group.algebra.element(v)
        worst = max(worst, float(np.max(np.abs(closed_form_exp(X) - expm(X)))))
    assert worst <= ATOL
    assert np.array_equal(closed_form_exp(group.algebra.element(vecs[50])),
                          np.eye(group.algebra.matrices[0].shape[0]))


@pytest.mark.parametrize("gid", list_groups())
def test_stack_equals_elements_one_at_a_time(gid):
    group = get_group(gid)
    rows = np.random.default_rng(3).random((9, group.draws_per_vector))
    vecs = group.algebra_vectors(rows)
    X = np.stack([group.algebra.element(v) for v in vecs])
    np.testing.assert_array_equal(group.algebra.element(vecs), X)
    stacked = closed_form_exp(X)
    for Xe, Me in zip(X, stacked):
        np.testing.assert_array_equal(closed_form_exp(Xe), Me)


def test_so3_fails_the_condition_and_the_closed_form():
    # negative control: in so(3) the square of an element is not diagonal,
    # so the closed form is not its exponential
    expm = _expm()
    basis = _so3_basis()
    assert anticommutator_residual(basis) > 0.5
    X = 0.7 * basis[0] + 0.4 * basis[1] - 0.9 * basis[2]
    assert np.max(np.abs(closed_form_exp(X) - expm(X))) > 1e-3


def test_group_with_non_diagonal_squares_is_refused(monkeypatch):
    from cheegerdef import lie_core
    monkeypatch.setitem(lie_core._MAKERS, "so3",
                        lambda: lie_core._model("so3", _so3_basis()))
    monkeypatch.setattr(lie_core, "_GROUPS", {})
    with pytest.raises(ValueError, match="so3: squares of algebra elements are not diagonal"):
        get_group("so3")
