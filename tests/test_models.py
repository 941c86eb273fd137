import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from nhgeo.errors import ConfigError, DegeneratePointError
from nhgeo.models import (BlochModel, RMParams, SIGMA_X, SIGMA_Z, bz_mesh,
                          model_from_config, pauli_decompose, pauli_matrix,
                          rm_d_vector, rm_hamiltonian)
from nhgeo.tolerances import SCALE_LIMIT


def test_d_vector_appendix_origin():
    p = RMParams(t=1.0, delta=1.0, gamma=0.0, variant="appendix")
    npt.assert_allclose(rm_d_vector(0.0, 0.0, p), [4.0, 0.0, 0.0], atol=1e-15)


def test_d_vector_appendix_gamma():
    p = RMParams(t=1.0, delta=1.0, gamma=2.0, variant="appendix")
    npt.assert_allclose(rm_d_vector(0.0, 0.0, p), [4.0, 1.0j, 0.0], atol=1e-15)


@pytest.mark.parametrize("variant", ["appendix", "supplemental"])
def test_d_vector_real_in_hermitian_limit(variant, rng):
    p = RMParams(gamma=0.0, Gamma=0.0, variant=variant)
    kx, ky = rng.uniform(-np.pi, np.pi, size=(2, 40))
    d = rm_d_vector(kx, ky, p)
    npt.assert_allclose(np.imag(d), 0.0, atol=1e-15)


def test_hamiltonian_hermitian_origin_appendix():
    p = RMParams(gamma=0.0, variant="appendix")
    npt.assert_allclose(rm_hamiltonian(0.0, 0.0, p), 4.0 * SIGMA_X, atol=1e-14)


def test_hamiltonian_hermitian_everywhere(hermitian_model, rng):
    kx, ky = rng.uniform(-np.pi, np.pi, size=(2, 30))
    h = hermitian_model.hamiltonian(kx, ky)
    npt.assert_allclose(h, np.conj(np.swapaxes(h, -1, -2)), atol=1e-14)


def test_gamma_shifts_eigenvalues():
    # eigenvalues must equal +-(i Gamma/2 + sqrt(d.d))
    p = RMParams(gamma=1.0, Gamma=0.7, variant="supplemental")
    for kx, ky in [(0.3, -1.1), (2.2, 0.4)]:
        d = rm_d_vector(kx, ky, p)
        s = np.sqrt(np.sum(d * d))
        expect = np.array([0.5j * p.Gamma + s, -(0.5j * p.Gamma + s)])
        got = np.linalg.eigvals(rm_hamiltonian(kx, ky, p))
        got = got[np.argsort(got.real)][::-1]
        expect = expect[np.argsort(expect.real)][::-1]
        npt.assert_allclose(got, expect, atol=1e-12)


def test_derivative_origin_is_minus_sigma_z():
    # d(dx d)/dkx at k=0 is (0, 0, -1) in the Hermitian appendix limit
    p = RMParams(gamma=0.0, variant="appendix")
    m = BlochModel.rice_mele(p)
    npt.assert_allclose(m.derivative(0.0, 0.0, 0), -SIGMA_Z, atol=1e-14)


def test_constant_model_derivative_vanishes():
    m = BlochModel.constant(np.array([[1.0, 0.2], [0.1, 2.0]]))
    npt.assert_allclose(m.derivative(0.3, -0.4, 0), 0.0)
    npt.assert_allclose(m.derivative(0.3, -0.4, 1), 0.0)


def test_analytic_vs_central_difference(rm_model, rng):
    numeric = BlochModel(2, rm_model.hamiltonian, fd_step=1e-5)
    kx, ky = rng.uniform(-np.pi, np.pi, size=(2, 10))
    for axis in (0, 1):
        diff = rm_model.derivative(kx, ky, axis) - numeric.derivative(kx, ky, axis)
        assert np.max(np.abs(diff)) < 1e-8


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


#: a gapless point of each Rice-Mele variant: (parameters, k)
GAPLESS = {"appendix": (dict(gamma=1.0), (0.0, np.arccos(-0.75))),
           "supplemental": (dict(gamma=0.0, Delta=0.0), (-np.pi / 2, -np.pi))}


def _rice_mele_case(variant, Gamma, analytic=True):
    def case():
        def model(analytic, **kw):
            m = BlochModel.rice_mele(RMParams(variant=variant, Gamma=Gamma, **kw))
            return m if analytic else BlochModel(2, m.hamiltonian)

        params, k = GAPLESS[variant]
        return model(analytic, gamma=0.7), model(not analytic, gamma=0.7), \
            (model(analytic, **params), k)
    return case


def _pseudospin_case():
    p = RMParams(gamma=0.7, Gamma=0.0)

    def d_func(kx, ky):
        return rm_d_vector(kx, ky, p)

    def d_deriv(kx, ky, axis):
        return rm_d_vector(kx, ky, p, derivatives=True)[1 + axis]

    return BlochModel.pseudospin(d_func, d_deriv), BlochModel.pseudospin(d_func), None


def _constant_case():
    m = BlochModel.constant(np.array([[1.0, 0.2 + 0.1j], [0.1, -2.0j]]))
    return m, BlochModel(2, m.hamiltonian), None


#: (model, its central-difference (or analytic) twin, gapless (model, k) or
#: None: the pseudospin and constant models carry no gapless guard)
FUSED_CASES = {
    "supplemental-Gamma0": _rice_mele_case("supplemental", 0.0),
    "supplemental-Gamma": _rice_mele_case("supplemental", 0.6),
    "appendix-Gamma0": _rice_mele_case("appendix", 0.0),
    "appendix-Gamma": _rice_mele_case("appendix", 0.6),
    "central": _rice_mele_case("supplemental", 0.6, analytic=False),
    "pseudospin": _pseudospin_case,
    "constant": _constant_case,
}


@pytest.mark.parametrize("case", FUSED_CASES)
def test_fused_pass(case, rng):
    model, twin, gapless = FUSED_CASES[case]()
    kx, ky = rng.uniform(-np.pi, np.pi, size=(2, 6, 5))
    if case.startswith("appendix"):
        # keep away from the gapless manifold of this variant
        kx = 0.5 * kx + 1.5
    h, dhx, dhy = model.hamiltonian(kx, ky, derivatives=True)
    assert _same_bits(h, model.hamiltonian(kx, ky))
    assert _same_bits(dhx, model.derivative(kx, ky, 0))
    assert _same_bits(dhy, model.derivative(kx, ky, 1))
    # a scalar k gives the same bits as that point of a mesh
    for i, j in [(0, 0), (2, 3), (5, 4)]:
        point = model.hamiltonian(float(kx[i, j]), float(ky[i, j]), derivatives=True)
        for got, mesh in zip(point, (h, dhx, dhy)):
            assert _same_bits(got, mesh[i, j])
    # analytic and central-difference (step 1e-5) derivatives agree
    for got, ref in zip((dhx, dhy), twin.hamiltonian(kx, ky, derivatives=True)[1:]):
        assert np.max(np.abs(got - ref)) < 1e-8
    if gapless is not None:
        gapless_model, k = gapless
        with pytest.raises(DegeneratePointError):
            gapless_model.hamiltonian(*k, derivatives=True)


def test_fused_pass_broadcasts_momenta():
    m = BlochModel.rice_mele(RMParams(gamma=0.7, Gamma=0.6))
    kx, ky = np.linspace(-3.0, 3.0, 4), np.linspace(-2.0, 2.0, 3)
    out = m.hamiltonian(kx[:, None], ky[None, :], derivatives=True)
    full = m.hamiltonian(*np.meshgrid(kx, ky, indexing="ij"), derivatives=True)
    for got, want in zip(out, full):
        assert got.shape == (4, 3, 2, 2)
        assert _same_bits(got, want)


# -- the matrices the stencil sees, against the arithmetic they were written in -

def _frozen_rm_hamiltonian(kx, ky, p):
    """``rm_hamiltonian(kx, ky, p, derivatives=True)`` frozen as the stencil and
    the eigenvector route have always seen it: d.sigma and d_mu d.sigma formed
    as matrices, then g = 1 + i Gamma/(2s) and d_mu g applied to the matrices
    (no gapless guard: the test meshes avoid the gapless points)."""
    shape = np.broadcast(kx, ky).shape
    kx, ky = (np.broadcast_to(np.asarray(k, dtype=float), shape).reshape(-1) for k in (kx, ky))

    def sum3(q):
        return q[..., 0] + q[..., 1] + q[..., 2]

    def sigma(v):
        m = np.empty(v.shape[:-1] + (2, 2), dtype=complex)
        m[..., 0, 0] = v[..., 2]
        m[..., 0, 1] = v[..., 0] - 1j * v[..., 1]
        m[..., 1, 0] = v[..., 0] + 1j * v[..., 1]
        m[..., 1, 1] = -v[..., 2]
        return m

    d, *dd = rm_d_vector(kx, ky, p, derivatives=True)
    s = np.sqrt(sum3(d * d))
    h, *dh = (sigma(x) for x in (d, *dd))
    if p.Gamma != 0.0:
        g = (1.0 + 0.5j * p.Gamma / s)[:, None, None]
        s2 = s**2
        for x, m in zip(dd, dh):
            np.multiply(g, m, out=m)
            m += (-0.5j * p.Gamma * (sum3(d * x) / s) / s2)[:, None, None] * h
        np.multiply(g, h, out=h)
    return tuple(a.reshape(shape + (2, 2)) for a in (h, *dh))


@pytest.mark.parametrize("variant", ["supplemental", "appendix"])
@pytest.mark.parametrize("gamma, Gamma, dz_offset", [(0.0, 0.0, 0.0), (0.6, 0.0, 3.5),
                                                     (0.6, 0.5, 0.0), (1.7, 1.9, 3.5)])
def test_rm_hamiltonian_keeps_its_matrix_bits(variant, gamma, Gamma, dz_offset):
    # the bench reference cannot see a drift below 1e-12; this pin carries
    # the claim that H and d_mu H (the stencil's and the cross-check's input)
    # are unchanged by the d pass that the scan reads
    p = RMParams(gamma=gamma, Gamma=Gamma, variant=variant, dz_offset=dz_offset)
    kx, ky = bz_mesh(37, 29)
    kx, ky = kx + 0.01, ky + 0.02  # off the appendix variant's gapless point
    want = _frozen_rm_hamiltonian(kx, ky, p)
    for got in (rm_hamiltonian(kx, ky, p, derivatives=True),
                BlochModel.rice_mele(p).hamiltonian(kx, ky, derivatives=True)):
        assert all(_same_bits(a, b) for a, b in zip(got, want))
    assert _same_bits(rm_hamiltonian(kx, ky, p), want[0])


#: fixed momenta of the d pass properties, off every gapless point of the
#: drawn models but for a vanishing fraction of draws
_K = np.random.default_rng(11).uniform(-np.pi, np.pi, size=(2, 5, 7))


def _assert_d_pass_decomposes_the_matrices(model):
    """The model's (c, d, d_x d, d_y d) agree with the pauli_decompose of its
    own H and d_mu H to 1e-13 of each matrix's largest entry."""
    try:
        h, *dh = model.hamiltonian(*_K, derivatives=True)
    except DegeneratePointError:
        with pytest.raises(DegeneratePointError):
            model.pseudospin_pass(*_K)
        return
    c, d, *dd = model.pseudospin_pass(*_K)
    d_ref, c_ref = pauli_decompose(h)
    pairs = [(c, c_ref, h), (d, d_ref, h)] + [
        (x, pauli_decompose(m)[0], m) for x, m in zip(dd, dh)]
    for got, want, matrix in pairs:
        got = np.broadcast_to(got, want.shape)  # a family without c hands over 0
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(matrix))


_UNIT = st.floats(0.0, 2.0)


@given(gamma=_UNIT, Gamma=_UNIT, dz_offset=st.sampled_from([0.0, 3.5]),
       variant=st.sampled_from(["supplemental", "appendix"]))
def test_rice_mele_d_pass_is_its_matrix_pass(gamma, Gamma, dz_offset, variant):
    _assert_d_pass_decomposes_the_matrices(BlochModel.rice_mele(
        RMParams(gamma=gamma, Gamma=Gamma, dz_offset=dz_offset, variant=variant)))


_COMPLEX = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
_VECTOR = st.lists(_COMPLEX, min_size=3, max_size=3).map(np.array)


@given(a=_VECTOR, b=_VECTOR, e=_VECTOR)
def test_pseudospin_d_pass_is_its_matrix_pass(a, b, e):
    # d(k) = a + b cos kx + e sin ky with its analytic derivatives
    def d_func(kx, ky):
        return a + b * np.cos(kx)[..., None] + e * np.sin(ky)[..., None]

    def d_deriv(kx, ky, axis):
        k = np.asarray(kx if axis == 0 else ky, dtype=float)[..., None]
        return -b * np.sin(k) if axis == 0 else e * np.cos(k)

    _assert_d_pass_decomposes_the_matrices(BlochModel.pseudospin(d_func, d_deriv))


@given(entries=st.lists(_COMPLEX, min_size=4, max_size=4))
def test_constant_d_pass_is_its_matrix_pass(entries):
    model = BlochModel.constant(np.reshape(entries, (2, 2)))
    _assert_d_pass_decomposes_the_matrices(model)
    c, d, *dd = model.pseudospin_pass(*_K)
    assert not np.any(dd)


def test_derivative_axis_checked(rm_model):
    with pytest.raises(ValueError):
        rm_model.derivative(0.1, 0.2, 2)


def test_derivative_richardson_scaling(rm_model):
    # central-difference truncation error must drop as h^2
    kx, ky = 0.9, -0.7
    exact = rm_model.derivative(kx, ky, 0)
    errs = []
    for h in (2e-3, 1e-3):
        numeric = BlochModel(2, rm_model.hamiltonian, fd_step=h)
        errs.append(np.max(np.abs(numeric.derivative(kx, ky, 0) - exact)))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


@pytest.mark.parametrize("variant", ["appendix", "supplemental"])
def test_periodicity(variant, rng):
    p = RMParams(gamma=1.0, Gamma=0.3, variant=variant)
    kx, ky = rng.uniform(-np.pi, np.pi, size=(2, 20))
    if variant == "appendix":
        # keep away from the gapless manifold of this variant
        kx = 0.5 * kx + 1.5
    h0 = rm_hamiltonian(kx, ky, p)
    npt.assert_allclose(rm_hamiltonian(kx + 2 * np.pi, ky, p), h0, atol=1e-12)
    npt.assert_allclose(rm_hamiltonian(kx, ky + 2 * np.pi, p), h0, atol=1e-12)


def test_appendix_gapless_point_raises():
    # d.d vanishes identically at kx=0, cos ky = -3/4 for gamma = 1
    p = RMParams(gamma=1.0, variant="appendix")
    with pytest.raises(DegeneratePointError):
        rm_hamiltonian(0.0, np.arccos(-0.75), p)


def test_roundoff_gapless_point_raises():
    # d = (1.1e-16, -1.2e-16, 0) at (-pi/2, -pi): tiny against the parameter
    # scale, although |d.d| is not small against |d|^2 itself
    p = RMParams(gamma=0.0, Delta=0.0)
    kx, ky = bz_mesh(8, 8)
    assert np.max(np.abs(rm_d_vector(kx[2, 0], ky[2, 0], p))) < 1e-15
    with pytest.raises(DegeneratePointError):
        rm_hamiltonian(kx, ky, p)
    rm_hamiltonian(kx[3:6], ky[3:6], p)  # the rows between the two Dirac points pass


def test_pauli_roundtrip(rng):
    d = rng.normal(size=3) + 1j * rng.normal(size=3)
    c = complex(rng.normal(), rng.normal())
    h = pauli_matrix(d) + c * np.eye(2)
    d2, c2 = pauli_decompose(h)
    npt.assert_allclose(d2, d, atol=1e-14)
    npt.assert_allclose(c2, c, atol=1e-14)


def test_bz_mesh_covers_fundamental_zone():
    kx, ky = bz_mesh(8, 8)
    assert kx.min() == -np.pi and kx.max() < np.pi
    assert kx.shape == (8, 8)


def test_params_validation():
    with pytest.raises(ConfigError):
        RMParams(gamma=-0.1)
    with pytest.raises(ConfigError):
        RMParams(Gamma=-1.0)
    with pytest.raises(ConfigError):
        RMParams(variant="nope")
    with pytest.raises(ConfigError, match="overflows"):
        RMParams(t=1.0e154, Delta=1.0e154)


@pytest.mark.parametrize("params", [
    {"t": 4e153, "delta": 4e153, "Delta": 4e153},  # P^2 finite, but |d|^2 overflows
    {"Gamma": 1e300},  # Gamma/2 counts in the scale
], ids=["t_delta_Delta_4e153", "Gamma_1e300"])
def test_parameter_scale_bounds_the_squares_of_the_solve(params):
    with pytest.raises(ConfigError, match="overflows"):
        RMParams(**params)


def test_parameter_scale_limit():
    RMParams(t=SCALE_LIMIT / 2, Gamma=SCALE_LIMIT)  # at the limit
    with pytest.raises(ConfigError, match="overflows"):
        RMParams(t=SCALE_LIMIT / 2, Gamma=SCALE_LIMIT, gamma=1e140)


@pytest.mark.parametrize("entry", [-1e200, 1e200j, np.inf, np.nan, complex(0.0, np.nan)])
def test_constant_matrix_entries_bound_the_squares_of_the_solve(entry):
    with pytest.raises(ConfigError, match="overflows"):
        BlochModel.constant([[0.0, 0.0], [entry, -0.25j]])


def test_constant_matrix_at_the_limit_is_accepted():
    # the gapped matrix with numerically parallel right vectors stays a model,
    # so that its solve, not its configuration, fails (exit 3)
    BlochModel.constant([[0.0, 0.0], [-1e150, -0.25j]])
    BlochModel.constant([[SCALE_LIMIT, -SCALE_LIMIT * 1j], [0.0, 1.0]])


def test_model_from_config_rice_mele():
    m = model_from_config({"family": "rice_mele", "gamma": 0.5, "dz_offset": 0.25})
    assert m.params == RMParams(gamma=0.5, dz_offset=0.25)
    # a key no family reads is a ConfigError (exit 2), not silently ignored
    for key, val in (("derivative", {"kind": "central", "step": 1e-4}), ("gama", 0.5)):
        with pytest.raises(ConfigError, match=key):
            model_from_config({"family": "rice_mele", key: val})


@pytest.mark.parametrize("cfg, key", [
    ({"family": "rice_mele", "matrix": [[1.0, 0.0], [0.0, -1.0]]}, "matrix"),
    ({"family": "constant", "matrix": [[1.0, 0.0], [0.0, -1.0]], "t": 3.0}, "t"),
    ({"family": "constant", "matrix": [[1.0, 0.0], [0.0, -1.0]], "dz_offset": 1.0}, "dz_offset"),
])
def test_model_from_config_rejects_the_other_familys_keys(cfg, key):
    # each family reads its own keys only; the error names the key and the family
    with pytest.raises(ConfigError, match=rf"^unknown {cfg['family']} model key\(s\) {key}; "):
        model_from_config(cfg)


@pytest.mark.parametrize("gamma", [-1.0, float("nan"), float("inf"), 1e200])
def test_model_from_config_constant_bath_rate_names_its_family(gamma):
    # the constant family has no t, delta or Delta: the error names its gamma
    with pytest.raises(ConfigError, match=r"^constant family bath rate gamma must be "):
        model_from_config({"family": "constant", "gamma": gamma,
                           "matrix": [[1.0, 0.0], [0.0, -1.0]]})


def test_model_from_config_constant_and_errors():
    m = model_from_config({"family": "constant",
                           "matrix": [[[1.0, 0.0], [0.0, 0.5]],
                                      [[0.0, -0.5], [2.0, 0.0]]]})
    npt.assert_allclose(m.hamiltonian(0.0, 0.0), [[1.0, 0.5j], [-0.5j, 2.0]])
    with pytest.raises(ConfigError):
        model_from_config({"family": "unknown"})
    with pytest.raises(ConfigError):
        model_from_config({"family": "constant"})
