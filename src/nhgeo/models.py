"""Non-Hermitian Bloch Hamiltonians and their momentum derivatives.

All evaluators are vectorized: ``kx``/``ky`` may carry arbitrary leading
batch dimensions, matrices live in the trailing two axes and pseudospin
vectors in the trailing axis.  Every function is pure, so grids can be
evaluated concurrently without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneratePointError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

#: relative tolerance on |d.d| below which a pseudospin point counts as gapless
DEGENERACY_RTOL = 1e-10

#: default central-difference step in momentum
DEFAULT_FD_STEP = 1e-5

VARIANTS = ("appendix", "supplemental")


def wrap_k(k):
    """Reduce momenta to the fundamental zone [-pi, pi)."""
    return np.mod(np.asarray(k, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


def bz_mesh(nx, ny):
    """Uniform mesh over [-pi, pi)^2; returns (KX, KY) with shape (nx, ny)."""
    kx = -np.pi + 2.0 * np.pi * np.arange(nx) / nx
    ky = -np.pi + 2.0 * np.pi * np.arange(ny) / ny
    return np.meshgrid(kx, ky, indexing="ij")


@dataclass(frozen=True)
class RMParams:
    """Parameters of the dissipative Rice-Mele family.

    ``gamma`` enters the pseudospin y-component as +i*gamma/2, ``Gamma``
    scales the whole pseudospin term by (1 + i*Gamma/(2*sqrt(d.d))).
    ``dz_offset`` adds a uniform z-shift, used to reach the trivial phase.
    """

    t: float = 1.0
    delta: float = 1.0
    Delta: float = 1.0
    gamma: float = 0.0
    Gamma: float = 0.0
    variant: str = "supplemental"
    dz_offset: float = 0.0

    def __post_init__(self):
        for name in ("t", "delta", "Delta", "gamma", "Gamma", "dz_offset"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.gamma < 0.0:
            raise ConfigError("gamma must be >= 0 (decay, not gain)")
        if self.Gamma < 0.0:
            raise ConfigError("Gamma must be >= 0 (decay, not gain)")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")


def rm_d_vector(kx, ky, p: RMParams):
    """Complex pseudospin vector d(k), shape (..., 3)."""
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    ck, sk = np.cos(kx), np.sin(kx)
    cq, sq = np.cos(ky), np.sin(ky)
    if p.variant == "appendix":
        dx = p.t + p.delta * ck + (p.t + p.delta * ck) * cq
        dz = -sk + p.dz_offset
    else:
        dx = p.t + p.delta * ck + (p.t - p.delta * ck) * cq
        dz = -p.Delta * sk + p.dz_offset
    dy = (p.t - p.delta * ck) * sq + 0.5j * p.gamma
    d = np.empty(np.broadcast(dx, dy).shape + (3,), dtype=complex)
    d[..., 0] = dx
    d[..., 1] = dy
    d[..., 2] = dz
    return d


def rm_d_derivative(kx, ky, p: RMParams, axis):
    """Analytic derivative of the pseudospin vector along kx (axis=0) or ky (axis=1)."""
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    ck, sk = np.cos(kx), np.sin(kx)
    cq, sq = np.cos(ky), np.sin(ky)
    d = np.zeros(np.broadcast(ck, cq).shape + (3,), dtype=complex)
    if axis == 0:
        if p.variant == "appendix":
            d[..., 0] = -p.delta * sk * (1.0 + cq)
            d[..., 2] = -ck
        else:
            d[..., 0] = -p.delta * sk * (1.0 - cq)
            d[..., 2] = -p.Delta * ck
        d[..., 1] = p.delta * sk * sq
    elif axis == 1:
        if p.variant == "appendix":
            d[..., 0] = -(p.t + p.delta * ck) * sq
        else:
            d[..., 0] = -(p.t - p.delta * ck) * sq
        d[..., 1] = (p.t - p.delta * ck) * cq
    else:
        raise ValueError("axis must be 0 (kx) or 1 (ky)")
    return d


def pauli_matrix(d):
    """d . sigma for d of shape (..., 3); returns (..., 2, 2)."""
    d = np.asarray(d, dtype=complex)
    h = np.empty(d.shape[:-1] + (2, 2), dtype=complex)
    h[..., 0, 0] = d[..., 2]
    h[..., 0, 1] = d[..., 0] - 1j * d[..., 1]
    h[..., 1, 0] = d[..., 0] + 1j * d[..., 1]
    h[..., 1, 1] = -d[..., 2]
    return h


def pauli_decompose(h):
    """Inverse of :func:`pauli_matrix`: returns (d, c) with h = d.sigma + c*1."""
    h = np.asarray(h, dtype=complex)
    d = np.empty(h.shape[:-2] + (3,), dtype=complex)
    d[..., 0] = 0.5 * (h[..., 0, 1] + h[..., 1, 0])
    d[..., 1] = 0.5j * (h[..., 0, 1] - h[..., 1, 0])
    d[..., 2] = 0.5 * (h[..., 0, 0] - h[..., 1, 1])
    c = 0.5 * (h[..., 0, 0] + h[..., 1, 1])
    return d, c


def _rm_scale(d, where):
    """Principal sqrt(d.d) with the gapless-point guard.

    The prefactor 1 + i*Gamma/(2*sqrt(d.d)) makes the Gamma term an exact
    +-i*Gamma/2 shift of the two band energies.
    """
    dd = np.sum(d * d, axis=-1)
    scale2 = np.sum(np.abs(d) ** 2, axis=-1)
    bad = np.abs(dd) < DEGENERACY_RTOL * scale2
    if np.any(bad):
        raise DegeneratePointError(
            f"{where}: |d.d| below {DEGENERACY_RTOL}*|d|^2 at "
            f"{int(np.count_nonzero(bad))} point(s) (gapless/exceptional)"
        )
    return np.sqrt(dd)


def rm_hamiltonian(kx, ky, p: RMParams):
    """NH Rice-Mele Hamiltonian (1 + i*Gamma/(2|d|)) d.sigma, shape (..., 2, 2).

    Raises DegeneratePointError on gapless/exceptional points (d.d ~ 0),
    where the scaling prefactor and all downstream geometry are invalid.
    """
    d = rm_d_vector(kx, ky, p)
    s = _rm_scale(d, "rm_hamiltonian")
    if p.Gamma == 0.0:
        return pauli_matrix(d)
    g = 1.0 + 0.5j * p.Gamma / s
    return g[..., None, None] * pauli_matrix(d)


def rm_hamiltonian_derivative(kx, ky, p: RMParams, axis):
    """Analytic d/dk_axis of :func:`rm_hamiltonian`."""
    d = rm_d_vector(kx, ky, p)
    dd = rm_d_derivative(kx, ky, p, axis)
    s = _rm_scale(d, "rm_hamiltonian_derivative")
    if p.Gamma == 0.0:
        return pauli_matrix(dd)
    g = 1.0 + 0.5j * p.Gamma / s
    ds = np.sum(d * dd, axis=-1) / s
    dg = -0.5j * p.Gamma * ds / s**2
    return g[..., None, None] * pauli_matrix(dd) + dg[..., None, None] * pauli_matrix(d)


class BlochModel:
    """Map from 2D quasimomentum to a complex N x N matrix plus derivatives.

    ``hamiltonian(kx, ky)`` must be periodic with period 2*pi in both
    arguments.  ``derivative`` is analytic when the family provides one and
    a central difference of step ``fd_step`` otherwise.
    """

    def __init__(self, dimension, hamiltonian, derivative=None,
                 fd_step=DEFAULT_FD_STEP, label="custom", params=None):
        self.dimension = int(dimension)
        if self.dimension < 2:
            raise ConfigError("model dimension must be >= 2")
        self._h = hamiltonian
        self._dh = derivative
        self.fd_step = float(fd_step)
        self.label = label
        self.params = params
        self.derivative_kind = "analytic" if derivative is not None else "central"

    def hamiltonian(self, kx, ky):
        return self._h(kx, ky)

    def derivative(self, kx, ky, axis):
        if self._dh is not None:
            return self._dh(kx, ky, axis)
        h = self.fd_step
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        if axis == 0:
            return (self._h(kx + h, ky) - self._h(kx - h, ky)) / (2.0 * h)
        if axis == 1:
            return (self._h(kx, ky + h) - self._h(kx, ky - h)) / (2.0 * h)
        raise ValueError("axis must be 0 or 1")

    # -- constructors -------------------------------------------------------

    @classmethod
    def rice_mele(cls, params: RMParams, analytic=True, fd_step=DEFAULT_FD_STEP):
        dh = (lambda kx, ky, axis, p=params: rm_hamiltonian_derivative(kx, ky, p, axis)) \
            if analytic else None
        return cls(2, lambda kx, ky, p=params: rm_hamiltonian(kx, ky, p),
                   derivative=dh, fd_step=fd_step, label="rice_mele", params=params)

    @classmethod
    def pseudospin(cls, d_func, d_deriv=None, fd_step=DEFAULT_FD_STEP):
        """Generic two-band model from a complex d-vector function."""
        dh = None
        if d_deriv is not None:
            dh = lambda kx, ky, axis: pauli_matrix(d_deriv(kx, ky, axis))
        return cls(2, lambda kx, ky: pauli_matrix(d_func(kx, ky)),
                   derivative=dh, fd_step=fd_step, label="pseudospin")

    @classmethod
    def constant(cls, matrix):
        """k-independent matrix model (derivatives vanish identically)."""
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("constant model needs a square matrix")

        def ham(kx, ky, m=m):
            shape = np.broadcast(np.asarray(kx, dtype=float),
                                 np.asarray(ky, dtype=float)).shape
            return np.broadcast_to(m, shape + m.shape).copy()

        def dham(kx, ky, axis, m=m):
            shape = np.broadcast(np.asarray(kx, dtype=float),
                                 np.asarray(ky, dtype=float)).shape
            return np.zeros(shape + m.shape, dtype=complex)

        return cls(m.shape[0], ham, derivative=dham, label="constant")


def model_from_config(cfg: dict) -> BlochModel:
    """Build a model from the ``model:`` section of a run config."""
    if not isinstance(cfg, dict):
        raise ConfigError("model section must be a mapping")
    family = cfg.get("family")
    deriv = cfg.get("derivative", {}) or {}
    kind = deriv.get("kind", "analytic")
    step = float(deriv.get("step", DEFAULT_FD_STEP))
    if kind not in ("analytic", "central"):
        raise ConfigError(f"unknown derivative kind {kind!r}")

    if family == "rice_mele":
        try:
            params = RMParams(
                t=float(cfg.get("t", 1.0)),
                delta=float(cfg.get("delta", 1.0)),
                Delta=float(cfg.get("Delta", 1.0)),
                gamma=float(cfg.get("gamma", 0.0)),
                Gamma=float(cfg.get("Gamma", 0.0)),
                variant=cfg.get("variant", "supplemental"),
                dz_offset=float(cfg.get("dz_offset", 0.0)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad rice_mele parameters: {exc}") from exc
        return BlochModel.rice_mele(params, analytic=(kind == "analytic"), fd_step=step)

    if family == "constant":
        raw = cfg.get("matrix")
        if raw is None:
            raise ConfigError("constant model needs a 'matrix' entry")
        try:
            arr = np.asarray(raw, dtype=float)
            if arr.ndim == 3 and arr.shape[-1] == 2:  # [[ [re, im], ... ], ...]
                m = arr[..., 0] + 1j * arr[..., 1]
            else:
                m = arr.astype(complex)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad constant matrix: {exc}") from exc
        return BlochModel.constant(m)

    raise ConfigError(f"unknown model family {family!r}")
