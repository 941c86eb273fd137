import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as npst

from nhgeo.errors import (ExceptionalPointError, IllConditionedError, NHGeoError,
                          NonConvergenceError)
from nhgeo.models import SIGMA_X, pauli_decompose, rm_d_vector
from nhgeo.spectra import (Eigensystem, _fix_phase, _gram, _require_positive, eigensystem_general,
                           eigensystem_two_band, gauge_rescale, mm, pseudospin_root)
from nhgeo.tolerances import BIORTHO_TOL, PHASE_COMPONENT_TOL, RECON_TOL


def _random_nh(rng, n=2, scale=0.4):
    return (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * scale \
        + np.diag(np.arange(1.0, n + 1.0))


def test_hermitian_sigma_x():
    eig = eigensystem_two_band(4.0 * SIGMA_X)
    # branch labels: band 0 is c + sqrt(d.d) = +4
    npt.assert_allclose(eig.energies, [4.0, -4.0], atol=1e-14)
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


def test_branch_ordering_is_smooth(rm_model):
    # branch labels follow the analytic sqrt: energies continuous along a path
    kxs = np.linspace(-np.pi, np.pi, 200)
    eig = eigensystem_two_band(rm_model.hamiltonian(kxs, 0.3 * np.ones_like(kxs)))
    jumps = np.abs(np.diff(eig.energies[:, 0]))
    assert np.max(jumps) < 0.2


def test_overlap_matrices(rm_model, rng):
    kx, ky = 0.7, -2.1
    eig = eigensystem_two_band(rm_model.hamiltonian(kx, ky))
    gram, gram_inv = eig.overlap_right, eig.overlap_left
    assert abs(gram[0, 1]) > 1e-3  # right basis genuinely non-orthogonal
    npt.assert_allclose(gram_inv @ gram, np.eye(2), atol=1e-9)
    # left Gram equals the inverse of the right Gram
    direct = np.einsum("ni,mi->nm", np.conj(eig.left), eig.left)
    npt.assert_allclose(direct, np.linalg.inv(gram), atol=1e-9)


def test_overlap_hermitian_is_identity(hermitian_model):
    eig = eigensystem_two_band(hermitian_model.hamiltonian(0.4, 1.0))
    npt.assert_allclose(eig.overlap_right, np.eye(2), atol=1e-12)
    npt.assert_allclose(eig.overlap_left, np.eye(2), atol=1e-12)


def test_gauge_rescale_preserves_biorthonormality(rm_model, rng):
    eig = eigensystem_two_band(rm_model.hamiltonian(1.1, 0.2))
    c = rng.normal(size=2) + 1j * rng.normal(size=2) + 2.0
    scaled = gauge_rescale(eig, c)
    cross = np.einsum("ni,mi->nm", np.conj(scaled.left), scaled.right)
    npt.assert_allclose(cross, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("bands", [2, 4])
def test_gauge_rescale_transforms_grams(rm_model, rng, bands):
    # the transformed Grams equal those recomputed from the rescaled vectors
    if bands == 2:
        kx, ky = rng.uniform(-np.pi, np.pi, size=(2, 64))
        eig = eigensystem_two_band(rm_model.hamiltonian(kx, ky))
    else:
        eig = eigensystem_general(_random_nh(rng, n=4))
    c = rng.uniform(0.2, 5.0, size=eig.energies.shape) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, size=eig.energies.shape))
    scaled = gauge_rescale(eig, c)
    for got, want in zip((scaled.overlap_right, scaled.overlap_left),
                         (_gram(scaled.right), _gram(scaled.left))):
        scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
        assert np.max(np.abs(got - want) / scale) <= 1e-14


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


@pytest.mark.parametrize("field, message", [
    ("left", "biorthonormality"),
    ("overlap_left", "overlap inverse"),
    ("energies", "reconstruction"),
])
def test_validate_rejects_each_broken_identity(rm_model, field, message):
    h = rm_model.hamiltonian(1.1, 0.2)
    eig = eigensystem_two_band(h)
    names = ("energies", "right", "left", "overlap_right", "overlap_left")
    bad = {name: np.copy(getattr(eig, name)) for name in names}
    bad[field].flat[0] += 1e-6
    with pytest.raises(NonConvergenceError, match=message):
        Eigensystem(**bad).validate(h)
    # the labels are not checked: every identity holds for the swapped bands
    swapped = Eigensystem(eig.energies[::-1], eig.right[::-1], eig.left[::-1],
                          eig.overlap_right[::-1, ::-1], eig.overlap_left[::-1, ::-1])
    swapped.validate(h)


@given(shapes=npst.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3,
                                                 max_side=3),
       n=st.integers(1, 4), k=st.integers(1, 4), m=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_mm_matches_matmul(shapes, n, k, m, seed):
    gen = np.random.default_rng(seed)
    shape_a, shape_b = shapes.input_shapes
    a = gen.normal(size=shape_a + (n, k, 2)) @ [1.0, 1j]
    b = gen.normal(size=shape_b + (k, m, 2)) @ [1.0, 1j]
    ref = np.matmul(a, b)
    out = mm(a, b)
    assert out.shape == ref.shape
    assert np.all(np.abs(out - ref) <= 1e-14 * np.matmul(np.abs(a), np.abs(b)))


@given(points=st.integers(1, 64), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2**32 - 1))
def test_two_band_batches_validate(points, scale, seed):
    gen = np.random.default_rng(seed)
    h = scale * (gen.normal(size=(points, 2, 2, 2)) @ [1.0, 1j])
    levels = np.linalg.eigvals(h)
    # non-defective, with a gap of at least 1e-3 of the largest level
    assume(np.all(np.abs(levels[:, 0] - levels[:, 1]) >= 1e-3 * np.max(np.abs(levels), axis=1)))
    eig = eigensystem_two_band(h)  # raises unless it validates
    left_h, right_t = np.conj(eig.left), np.swapaxes(eig.right, -1, -2)
    assert np.max(np.abs(left_h @ right_t - np.eye(2))) <= BIORTHO_TOL
    recon = right_t @ (eig.energies[..., :, None] * left_h)
    assert np.max(np.abs(recon - h)) <= RECON_TOL * np.max(np.abs(h))
    for gram in (eig.overlap_right, eig.overlap_left):
        assert np.array_equal(gram, np.conj(np.swapaxes(gram, -1, -2)))


def test_exceptional_point_two_band():
    with pytest.raises(ExceptionalPointError):
        eigensystem_two_band(np.eye(2, dtype=complex))


def test_parallel_right_vectors_two_band():
    # gapped, but the two right vectors come out numerically parallel: a Schur
    # denominator of the dual basis is exactly 0, a typed error and no
    # divide-by-zero warning
    h = np.array([[0.0, 0.0], [-1e150, -0.25j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IllConditionedError):
            eigensystem_two_band(h)


def test_exceptional_point_general():
    with pytest.raises(ExceptionalPointError):
        eigensystem_general(np.diag([1.0 + 0j, 1.0 + 1e-12j, 2.0 + 0j]))


@given(n=st.integers(2, 4), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       defective=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_general_validates_or_raises_typed(n, scale, defective, seed):
    # random complex N x N matrices; a defective draw carries a 2 x 2 Jordan block
    gen = np.random.default_rng(seed)
    h = scale * (gen.normal(size=(n, n, 2)) @ [1.0, 1j])
    if defective:
        p = gen.normal(size=(n, n, 2)) @ [1.0, 1j]
        jordan = np.diag(np.diag(h))
        jordan[1, 1], jordan[0, 1] = jordan[0, 0], scale
        h = p @ jordan @ np.linalg.inv(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            eig = eigensystem_general(h)
        except NHGeoError:
            return
    left_h, right_t = np.conj(eig.left), eig.right.T
    assert np.max(np.abs(left_h @ right_t - np.eye(n))) <= BIORTHO_TOL
    recon = right_t @ (eig.energies[:, None] * left_h)
    assert np.max(np.abs(recon - h)) <= RECON_TOL * np.max(np.abs(h))


def test_general_matches_two_band(rng):
    h = _random_nh(rng, 2)
    a = eigensystem_two_band(h)
    b = eigensystem_general(h)
    # branch labels against descending Im(e): pair each band by its energy
    order = [int(np.argmin(np.abs(a.energies - e))) for e in b.energies]
    assert sorted(order) == [0, 1]
    npt.assert_allclose(a.energies[order], b.energies, atol=1e-10)
    # gauge-invariant comparison: projectors |R_n><L_n|
    for n, m in enumerate(order):
        pa = np.outer(a.right[m], np.conj(a.left[m]))
        pb = np.outer(b.right[n], np.conj(b.left[n]))
        npt.assert_allclose(pa, pb, atol=1e-9)


# -- the flat two-band solve against the stacked form it replaced ---------------

def _stacked_dual(right, gram):
    r0, r1 = right[..., 0, :], right[..., 1, :]
    i00, i11, i01 = gram[..., 0, 0], gram[..., 1, 1], gram[..., 0, 1]
    _require_positive(i00, i11)
    den0, den1 = i00 - np.abs(i01) ** 2 / i11, i11 - np.abs(i01) ** 2 / i00
    _require_positive(den0, den1)
    l0 = (r0 - (np.conj(i01) / i11)[..., None] * r1) / den0[..., None]
    l1 = (r1 - (i01 / i00)[..., None] * r0) / den1[..., None]
    return np.stack([l0, l1], axis=-2)


def _stacked_two_band(h):
    """The stacked ``eigensystem_two_band``, frozen: every product keeps a
    component axis, so none is formed on one-element arrays."""
    d, c = pauli_decompose(h)
    s = pseudospin_root(d, c)
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    off = dx - 1j * dy

    def eigvec(sign):
        va = np.stack([off, sign * s - dz], axis=-1)
        vb = np.stack([dz + sign * s, dx + 1j * dy], axis=-1)
        na = np.sum(np.abs(va) ** 2, axis=-1)
        nb = np.sum(np.abs(vb) ** 2, axis=-1)
        v = np.where((na >= nb)[..., None], va, vb)
        return v / np.sqrt(np.sum(np.abs(v) ** 2, axis=-1))[..., None]

    energies = np.stack([c + s, c - s], axis=-1)
    right = _fix_phase(np.stack([eigvec(1.0), eigvec(-1.0)], axis=-2))
    overlap_right = _gram(right)
    left = _stacked_dual(right, overlap_right)
    return Eigensystem(energies, right, left, overlap_right, _gram(left)).validate(h)


def _signed_zeros(rng, z):
    z = z.copy()
    for part in (z.real, z.imag):
        part[rng.random(part.shape) < 0.3] = 0.0
        part[rng.random(part.shape) < 0.15] = -0.0
    return z


def _two_band_inputs(rng, kind, shape):
    """(..., 2, 2) matrices of one kind: random non-Hermitian, Hermitian, with
    signed zeros, with the na == nb tie of the vector choice (Hermitian with
    d_z = 0), or with a first component below PHASE_COMPONENT_TOL."""
    h = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    if kind == "hermitian":
        return h + np.conj(np.swapaxes(h, -1, -2))
    if kind == "zeros":
        return _signed_zeros(rng, h)
    if kind == "tie":
        c, dx, dy = rng.normal(size=(3,) + shape)
        return np.stack([c, dx - 1j * dy, dx + 1j * dy, c + 0j], axis=-1).reshape(shape + (2, 2))
    if kind == "small_lead":
        h[..., 0, 1] *= 10.0 ** rng.uniform(-16, -13, size=shape)
        h[..., 1, 0] *= rng.choice([0.0, 1e-14, 1.0], size=shape)
    return h


def _assert_same_eigensystem(got, want):
    for name in ("energies", "right", "left", "overlap_right", "overlap_left"):
        a, b = (np.ascontiguousarray(getattr(e, name)) for e in (got, want))
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


def _assert_same_solve(h):
    try:
        want = _stacked_two_band(h)
    except Exception as exc:  # the same typed error, raised by the same guard
        with pytest.raises(type(exc)):
            eigensystem_two_band(h)
        return
    _assert_same_eigensystem(eigensystem_two_band(h), want)


@pytest.mark.parametrize("kind", ["random", "hermitian", "zeros", "tie", "small_lead"])
@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (2048,), (3, 5)])
def test_two_band_solve_keeps_stacked_bits(rng, kind, shape):
    h = _two_band_inputs(rng, kind, shape)
    _assert_same_solve(h)
    if kind == "small_lead":  # the phase convention skipped a component somewhere
        v = _stacked_two_band(h).right
        assert np.any((np.abs(v[..., 0]) <= PHASE_COMPONENT_TOL) & (np.abs(v[..., 0]) > 0))
    if kind == "tie":  # every vector is the first candidate chosen on na == nb
        d, _ = pauli_decompose(h)
        assert np.all(d[..., 2] == 0)


@pytest.mark.parametrize("kind", ["random", "hermitian", "zeros", "tie", "small_lead"])
def test_two_band_solve_keeps_stacked_bits_on_single_matrices(rng, kind):
    # a single (2, 2) matrix and a batch of one: the products that form one
    # element per point are where numpy's rounding would differ
    for h in _two_band_inputs(rng, kind, (40,)):
        _assert_same_solve(h)
        _assert_same_solve(h[None])
    _assert_same_solve(np.diag([1.0, -1.0]))  # a vanishing first component
