"""The written-out two-band contractions against the einsum expressions they
replace: the same bits, sign of zero included.

Each contraction adds the terms in einsum's own order, with einsum's rounding
of every complex product; if a numpy release changes either, these fail.
"""

import numpy as np
import pytest

from nhgeo.geometry import _schur_square, _schur_weights
from nhgeo.spectra import _dot, _gram, _norms_sq, matrix_elements
from nhgeo.topology import _links

SIZES = (1, 7, 2304)


def _random(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _with_zeros(rng, z):
    """``z`` with about a third of its real and imaginary parts set to +-0."""
    z = z.copy()
    for part in (z.real, z.imag):
        part[rng.random(part.shape) < 0.35] = 0.0
        part[rng.random(part.shape) < 0.15] = -0.0
    return z


def _same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.fixture(params=["random", "zeros"])
def stack(request, rng):
    """Maker of random complex arrays of a given shape, plain or with signed zeros."""
    if request.param == "random":
        return lambda shape: _random(rng, shape)
    return lambda shape: _with_zeros(rng, _random(rng, shape))


@pytest.mark.parametrize("points", SIZES)
def test_matrix_elements_is_einsum(stack, points):
    left, op, right = (stack((points, 2, 2)) for _ in range(3))
    want = np.einsum("...ni,...ij,...mj->...nm", np.conj(left), op, right)
    _same_bits(matrix_elements(left, op, right), want)
    # the single off-diagonal elements the stencil forms
    for n in (0, 1):
        one = matrix_elements(left[..., 1 - n:2 - n, :], op, right[..., n:n + 1, :])
        _same_bits(one[..., 0, 0], want[..., 1 - n, n])


def test_matrix_elements_broadcast_and_strided(stack):
    left = stack((48, 48, 2, 2))
    op = stack((2, 2))  # one operator for the whole mesh
    right = np.swapaxes(stack((48, 48, 2, 2)), 0, 1)  # a non-contiguous view
    want = np.einsum("...ni,...ij,...mj->...nm", np.conj(left), op, right)
    _same_bits(matrix_elements(left, op, right), want)
    left = stack((7, 1, 2, 2))[::-1]
    want = np.einsum("...ni,...ij,...mj->...nm", np.conj(left), op, right[:7])
    _same_bits(matrix_elements(left, op, right[:7]), want)


@pytest.mark.parametrize("points", SIZES)
def test_schur_square_is_einsum(stack, points):
    # two bands: one band besides the selected one, so m and k have length 1
    b, v = stack((points, 2, 1)), stack((points, 2, 2))
    gram = np.einsum("...ni,...mi->...nm", np.conj(v), v) + np.eye(2)
    w = _schur_weights(gram, 0, [1])
    want = np.einsum("...am,...mk,...bk->...ab", np.conj(b), w, b)
    _same_bits(_schur_square(b, gram, 0, [1]), want)


@pytest.mark.parametrize("points", SIZES)
@pytest.mark.parametrize("bands", [2, 3, 4])
def test_gram_and_norms_are_einsum(stack, points, bands):
    v = stack((points, bands, bands))
    _same_bits(_gram(v), np.einsum("...ni,...mi->...nm", np.conj(v), v))
    _same_bits(_norms_sq(v), np.real(np.einsum("...ni,...ni->...n", np.conj(v), v)))
    v = np.moveaxis(stack((bands, bands, points)), -1, 0)  # strided
    _same_bits(_gram(v), np.einsum("...ni,...mi->...nm", np.conj(v), v))


@pytest.mark.parametrize("points", SIZES)
def test_lock_overlap_is_einsum(stack, points):
    a, b = stack((points, 2, 2)), stack((points, 2, 2))
    _same_bits(_dot(np.conj(a), b), np.einsum("...ni,...ni->...n", np.conj(a), b))
    b = np.moveaxis(stack((2, 2, points)), -1, 0)  # strided
    _same_bits(_dot(np.conj(a), b), np.einsum("...ni,...ni->...n", np.conj(a), b))


@pytest.mark.parametrize("n_grid", [1, 7, 48])
def test_plaquette_links_are_einsum(stack, n_grid):
    bra, ket = stack((n_grid, n_grid, 2)), stack((n_grid, n_grid, 2))
    links = _links(np.moveaxis(np.conj(bra), -1, 0).copy(), np.moveaxis(ket, -1, 0).copy())
    for axis in (0, 1):
        rolled = np.roll(ket, -1, axis=axis)
        want = np.einsum("ijk,ijk->ij", np.conj(bra), rolled)
        _same_bits(_dot(np.conj(bra), rolled), want)
        # the (2, n, n) component planes that chern_plaquette holds
        _same_bits(links[axis], want)
