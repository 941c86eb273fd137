import numpy as np
import numpy.testing as npt
import pytest

from nhgeo.errors import (ExceptionalPointError, IllConditionedError,
                          NonConvergenceError)
from nhgeo.models import SIGMA_X, rm_d_vector
from nhgeo.spectra import (Eigensystem, eigensystem, eigensystem_general,
                           eigensystem_two_band, gauge_rescale,
                           overlap_matrices)


def _random_nh(rng, n=2, scale=0.4):
    return (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * scale \
        + np.diag(np.arange(1.0, n + 1.0))


def test_hermitian_sigma_x():
    eig = eigensystem_two_band(4.0 * SIGMA_X)
    # equal decay -> ties broken by ascending Re: band 0 is -4
    npt.assert_allclose(eig.energies, [-4.0, 4.0], atol=1e-14)
    npt.assert_allclose(eig.right, eig.left, atol=1e-14)
    root2 = 1.0 / np.sqrt(2.0)
    npt.assert_allclose(np.abs(eig.right), root2, atol=1e-14)
    # first nonvanishing component real positive
    assert np.all(np.real(eig.right[:, 0]) > 0)


def test_biorthonormality_random_batch(rng):
    h = (rng.normal(size=(25, 2, 2)) + 1j * rng.normal(size=(25, 2, 2)))
    eig = eigensystem_two_band(h)
    cross = np.einsum("bni,bmi->bnm", np.conj(eig.left), eig.right)
    npt.assert_allclose(cross, np.broadcast_to(np.eye(2), cross.shape), atol=1e-12)


def test_ordering_diagonal_example():
    eig = eigensystem_general(np.diag([1.0 + 0.0j, 2.0 - 1.0j]))
    npt.assert_allclose(eig.energies, [1.0, 2.0 - 1.0j], atol=1e-14)
    npt.assert_allclose(np.abs(eig.right), np.eye(2), atol=1e-14)


def test_hermitian_left_equals_right(rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    eig = eigensystem_general(h)
    npt.assert_allclose(eig.left, eig.right, atol=1e-9)
    npt.assert_allclose(eig.overlap_right, np.eye(4), atol=1e-10)


def test_reconstruction_three_band(rng):
    h = _random_nh(rng, n=3)
    eig = eigensystem_general(h)
    recon = np.einsum("n,ni,nj->ij", eig.energies, eig.right, np.conj(eig.left))
    npt.assert_allclose(recon, h, atol=1e-9 * np.max(np.abs(h)))


def test_completeness(rng):
    h = _random_nh(rng, n=4)
    eig = eigensystem_general(h)
    one = np.einsum("ni,nj->ij", eig.right, np.conj(eig.left))
    npt.assert_allclose(one, np.eye(4), atol=1e-10)


def test_rm_energies_match_pseudospin(rm_model, rng):
    for _ in range(5):
        kx, ky = rng.uniform(-np.pi, np.pi, size=2)
        eig = eigensystem_two_band(rm_model.hamiltonian(kx, ky))
        d = rm_d_vector(kx, ky, rm_model.params)
        s = np.sqrt(np.sum(d * d))
        npt.assert_allclose(sorted(eig.energies, key=np.real),
                            sorted([s, -s], key=np.real), atol=1e-12)


def test_im_ordering(rm_model, rng):
    kx, ky = rng.uniform(-np.pi, np.pi, size=(2, 30))
    eig = eigensystem_two_band(rm_model.hamiltonian(kx, ky))
    assert np.all(np.imag(eig.energies[..., 0]) >= np.imag(eig.energies[..., 1]) - 1e-14)


def test_branch_ordering_is_smooth(rm_model):
    # branch labels follow the analytic sqrt: energies continuous along a path
    kxs = np.linspace(-np.pi, np.pi, 200)
    eig = eigensystem_two_band(rm_model.hamiltonian(kxs, 0.3 * np.ones_like(kxs)),
                               ordering="branch")
    jumps = np.abs(np.diff(eig.energies[:, 0]))
    assert np.max(jumps) < 0.2


def test_overlap_matrices(rm_model, rng):
    kx, ky = 0.7, -2.1
    eig = eigensystem_two_band(rm_model.hamiltonian(kx, ky))
    gram, gram_inv = overlap_matrices(eig)
    assert abs(gram[0, 1]) > 1e-3  # right basis genuinely non-orthogonal
    npt.assert_allclose(gram_inv @ gram, np.eye(2), atol=1e-9)
    # left Gram equals the inverse of the right Gram
    direct = np.einsum("ni,mi->nm", np.conj(eig.left), eig.left)
    npt.assert_allclose(direct, np.linalg.inv(gram), atol=1e-9)


def test_overlap_hermitian_is_identity(hermitian_model):
    eig = eigensystem_two_band(hermitian_model.hamiltonian(0.4, 1.0))
    gram, _ = overlap_matrices(eig)
    npt.assert_allclose(gram, np.eye(2), atol=1e-12)


def test_overlap_ill_conditioned():
    # near-exceptional: dual construction loses precision, so skip validation
    eps = 3e-7
    h = np.array([[0.0, 1.0], [eps**2, 0.0]], dtype=complex)
    eig = eigensystem_two_band(h, validate=False)
    with pytest.raises(IllConditionedError):
        overlap_matrices(eig)


def test_gauge_rescale_preserves_biorthonormality(rm_model, rng):
    eig = eigensystem_two_band(rm_model.hamiltonian(1.1, 0.2))
    c = rng.normal(size=2) + 1j * rng.normal(size=2) + 2.0
    scaled = gauge_rescale(eig, c)
    cross = np.einsum("ni,mi->nm", np.conj(scaled.left), scaled.right)
    npt.assert_allclose(cross, np.eye(2), atol=1e-12)


def test_validate_rejects_nan(rm_model):
    # NaN residuals must fail every comparison, not slip past "err > tol"
    eig = eigensystem_two_band(rm_model.hamiltonian(1.1, 0.2))
    h = rm_model.hamiltonian(1.1, 0.2)
    for field in ("energies", "right", "left", "overlap_right"):
        bad = {name: np.copy(getattr(eig, name)) for name in
               ("energies", "right", "left", "overlap_right", "overlap_left")}
        bad[field].flat[0] = np.nan
        with pytest.raises(NonConvergenceError):
            Eigensystem(**bad).validate(h)
    with pytest.raises(NonConvergenceError), np.errstate(invalid="ignore"):
        eigensystem_two_band(np.full((2, 2), np.nan, dtype=complex))


def test_exceptional_point_two_band():
    with pytest.raises(ExceptionalPointError):
        eigensystem_two_band(np.eye(2, dtype=complex))


def test_exceptional_point_general():
    with pytest.raises(ExceptionalPointError):
        eigensystem_general(np.diag([1.0 + 0j, 1.0 + 1e-12j, 2.0 + 0j]))


def test_dispatcher(rng):
    h2 = _random_nh(rng, 2)
    h3 = _random_nh(rng, 3)
    assert eigensystem(h2).nbands == 2
    assert eigensystem(h3).nbands == 3
    with pytest.raises(ValueError):
        eigensystem(np.zeros((4, 3, 3)))


def test_general_matches_two_band(rng):
    h = _random_nh(rng, 2)
    a = eigensystem_two_band(h)
    b = eigensystem_general(h)
    npt.assert_allclose(a.energies, b.energies, atol=1e-10)
    # gauge-invariant comparison: projectors |R_n><L_n|
    for n in range(2):
        pa = np.outer(a.right[n], np.conj(a.left[n]))
        pb = np.outer(b.right[n], np.conj(b.left[n]))
        npt.assert_allclose(pa, pb, atol=1e-9)
