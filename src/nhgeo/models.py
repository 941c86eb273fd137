"""Non-Hermitian Bloch Hamiltonians and their momentum derivatives.

All evaluators are vectorized: ``kx``/``ky`` may carry arbitrary leading
batch dimensions, matrices live in the trailing two axes and pseudospin
vectors in the trailing axis.  Every function is pure, so grids can be
evaluated concurrently without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DegeneratePointError
from .tolerances import DEGENERACY_RTOL, SCALE_LIMIT

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

#: default central-difference step in momentum
DEFAULT_FD_STEP = 1e-5

VARIANTS = ("appendix", "supplemental")


def bz_mesh(nx, ny):
    """Uniform mesh over [-pi, pi)^2; returns (KX, KY) with shape (nx, ny).

    Raises ConfigError for a mesh size below 1.
    """
    if nx < 1 or ny < 1:
        raise ConfigError(f"mesh size must be >= 1, got {nx}x{ny}")
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
        scale = (abs(self.t) + abs(self.delta) + abs(self.Delta) + 0.5 * self.gamma
                 + 0.5 * self.Gamma + abs(self.dz_offset))
        if not scale <= SCALE_LIMIT:
            raise ConfigError(
                f"the parameter scale |t| + |delta| + |Delta| + gamma/2 + Gamma/2 + |dz_offset| "
                f"= {scale:.3g} exceeds {SCALE_LIMIT:.3g} (2^500): a square that the two-band "
                "solve forms overflows")


def rm_d_vector(kx, ky, p: RMParams, derivatives=False):
    """Complex pseudospin vector d(k), shape (..., 3).

    With ``derivatives=True`` returns (d, d_x d, d_y d), the analytic
    derivatives along kx and ky taken from the same cos/sin evaluation.
    """
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    ck, sk = np.cos(kx), np.sin(kx)
    cq, sq = np.cos(ky), np.sin(ky)
    tp, tm = p.t + p.delta * ck, p.t - p.delta * ck
    if p.variant == "appendix":
        dx = tp + tp * cq
        dz = -sk + p.dz_offset
    else:
        dx = tp + tm * cq
        dz = -p.Delta * sk + p.dz_offset
    d = np.empty(np.broadcast(dx, sq).shape + (3,), dtype=complex)
    d[..., 0] = dx
    d[..., 1] = tm * sq + 0.5j * p.gamma
    d[..., 2] = dz
    if not derivatives:
        return d
    ddx, ddy = np.zeros((2,) + d.shape, dtype=complex)
    if p.variant == "appendix":
        ddx[..., 0] = -p.delta * sk * (1.0 + cq)
        ddx[..., 2] = -ck
        ddy[..., 0] = -tp * sq
    else:
        ddx[..., 0] = -p.delta * sk * (1.0 - cq)
        ddx[..., 2] = -p.Delta * ck
        ddy[..., 0] = -tm * sq
    ddx[..., 1] = p.delta * sk * sq
    ddy[..., 1] = tm * cq
    return d, ddx, ddy


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
    """Inverse of :func:`pauli_matrix`: returns (d, c) with h = d.sigma + c*1, d a
    (..., 3) view of contiguous component planes d[..., i]."""
    h = np.asarray(h, dtype=complex)
    d = np.moveaxis(np.empty((3,) + h.shape[:-2], dtype=complex), 0, -1)
    d[..., 0] = 0.5 * (h[..., 0, 1] + h[..., 1, 0])
    d[..., 1] = 0.5j * (h[..., 0, 1] - h[..., 1, 0])
    d[..., 2] = 0.5 * (h[..., 0, 0] - h[..., 1, 1])
    c = 0.5 * (h[..., 0, 0] + h[..., 1, 1])
    return d, c


def _sum3(q):
    """np.sum(q, axis=-1) over three components, written out left to right: the
    order numpy adds a short axis in (same bits), without its per-row overhead."""
    return q[..., 0] + q[..., 1] + q[..., 2]


def _rm_pass(kx, ky, p: RMParams, derivatives, form):
    """[v, d_x v, d_y v] of v = g form(d), g = 1 + i*Gamma/(2s) (an exact +-i*Gamma/2
    shift of the band energies), s = sqrt(d.d), shaped as (kx, ky) plus form's axes;
    ``form`` is pauli_matrix, or the identity (d is then updated in place).  On the k
    points as one flat batch, cos/sin, d, d_mu d, the gapless guard and s are each
    evaluated once, and d_mu v = g form(d_mu d) + (d_mu g) form(d).

    A point is gapless when |d.d| <= DEGENERACY_RTOL * max(|d|^2, P^2), P = |t| +
    |delta| + |Delta| + gamma/2 + |dz_offset| (RMParams bounds it); the floor P^2
    does not shrink with d, so a d that is pure roundoff is caught.
    """
    shape = np.broadcast(kx, ky).shape
    kx, ky = (np.broadcast_to(np.asarray(k, dtype=float), shape).reshape(-1) for k in (kx, ky))
    d, *dd = rm_d_vector(kx, ky, p, derivatives=True) if derivatives \
        else (rm_d_vector(kx, ky, p),)
    dot = _sum3(d * d)
    floor = (abs(p.t) + abs(p.delta) + abs(p.Delta) + 0.5 * p.gamma + abs(p.dz_offset)) ** 2
    bad = np.abs(dot) <= DEGENERACY_RTOL * np.maximum(_sum3(np.abs(d) ** 2), floor)
    if np.any(bad):
        raise DegeneratePointError(
            f"rm_hamiltonian: |d.d| <= {DEGENERACY_RTOL}*max(|d|^2, {floor:.3g}) at "
            f"{int(np.count_nonzero(bad))} point(s) (gapless/exceptional)")
    s = np.sqrt(dot)
    v, *dv = (form(x) for x in (d, *dd))
    if p.Gamma != 0.0:
        # g stays the first factor: numpy's complex product is not bitwise commutative
        axes = (-1,) + (1,) * (v.ndim - 1)
        g = (1.0 + 0.5j * p.Gamma / s).reshape(axes)
        for x, m in zip(dd, dv):
            dg = (-0.5j * p.Gamma * (_sum3(d * x) / s) / s**2).reshape(axes)
            np.multiply(g, m, out=m)
            m += dg * v
        np.multiply(g, v, out=v)
    return [x.reshape(shape + x.shape[1:]) for x in (v, *dv)]


def rm_hamiltonian(kx, ky, p: RMParams, derivatives=False):
    """NH Rice-Mele Hamiltonian (1 + i*Gamma/(2|d|)) d.sigma, shape (..., 2, 2).

    With ``derivatives=True`` returns (H, d_x H, d_y H) from one pass
    (:func:`_rm_pass`).  The k points are evaluated as one flat batch, so a
    scalar k gives the same bits as that point of a mesh.

    Raises DegeneratePointError on gapless/exceptional points (d.d ~ 0),
    where the scaling prefactor and all downstream geometry are invalid.
    """
    out = _rm_pass(kx, ky, p, derivatives, pauli_matrix)
    return tuple(out) if derivatives else out[0]


def rm_pseudospin(kx, ky, p: RMParams):
    """(c, d, d_x d, d_y d) of :func:`rm_hamiltonian` = c + d.sigma from the same
    pass and guard, without matrices: c = 0, d' = g d, d_mu d' = g d_mu d + (d_mu g) d."""
    return (0.0, *_rm_pass(kx, ky, p, True, lambda x: x))


class BlochModel:
    """Map from 2D quasimomentum to a complex N x N matrix plus derivatives.

    ``hamiltonian(kx, ky)`` must be periodic with period 2*pi in both
    arguments; ``hamiltonian(kx, ky, derivatives=True)`` returns
    (H, d_x H, d_y H).  An analytic family supplies that triple as one pass
    ``fused(kx, ky)`` (for Rice-Mele cos/sin, d(k), the gapless guard and
    sqrt(d.d) are evaluated once), and ``derivative(kx, ky, axis)`` is the
    matching entry of it.  Without ``fused`` the derivatives are central
    differences of step ``fd_step``.  ``d_pass`` is a two-band family's
    :meth:`pseudospin_pass`.
    """

    def __init__(self, dimension, hamiltonian, fused=None,
                 fd_step=DEFAULT_FD_STEP, params=None, d_pass=None):
        self.dimension = int(dimension)
        if self.dimension < 2:
            raise ConfigError("model dimension must be >= 2")
        self._h = hamiltonian
        self._fused = fused
        self._d_pass = d_pass
        self.fd_step = float(fd_step)
        self.params = params

    def hamiltonian(self, kx, ky, derivatives=False):
        if not derivatives:
            return self._h(kx, ky)
        if self._fused is not None:
            return self._fused(kx, ky)
        return self._h(kx, ky), self.derivative(kx, ky, 0), self.derivative(kx, ky, 1)

    def derivative(self, kx, ky, axis):
        if axis not in (0, 1):
            raise ValueError("axis must be 0 or 1")
        if self._fused is not None:
            return self._fused(kx, ky)[1 + axis]
        h = self.fd_step
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        if axis == 0:
            return (self._h(kx + h, ky) - self._h(kx - h, ky)) / (2.0 * h)
        return (self._h(kx, ky + h) - self._h(kx, ky - h)) / (2.0 * h)

    def pseudospin_pass(self, kx, ky):
        """(c, d, d_x d, d_y d), d (..., 3), of a two-band H = c + d.sigma from one pass:
        ``d_pass``, or the :func:`pauli_decompose` of ``hamiltonian(derivatives=True)``."""
        if self._d_pass is not None:
            return self._d_pass(kx, ky)
        h, *dh = self.hamiltonian(kx, ky, derivatives=True)
        d, c = pauli_decompose(h)
        return (c, d, *(pauli_decompose(x)[0] for x in dh))

    # -- constructors -------------------------------------------------------

    @classmethod
    def rice_mele(cls, params: RMParams):
        return cls(2, lambda kx, ky, p=params: rm_hamiltonian(kx, ky, p),
                   fused=lambda kx, ky, p=params: rm_hamiltonian(kx, ky, p, derivatives=True),
                   params=params, d_pass=lambda kx, ky, p=params: rm_pseudospin(kx, ky, p))

    @classmethod
    def pseudospin(cls, d_func, d_deriv=None):
        """Generic two-band model from a complex d-vector function; with
        ``d_deriv`` its d pass is (0, d, d_x d, d_y d) as given."""
        fused = d_pass = None
        if d_deriv is not None:
            d_pass = lambda kx, ky: (0.0, d_func(kx, ky), d_deriv(kx, ky, 0), d_deriv(kx, ky, 1))
            fused = lambda kx, ky: tuple(pauli_matrix(d) for d in d_pass(kx, ky)[1:])
        return cls(2, lambda kx, ky: pauli_matrix(d_func(kx, ky)), fused=fused, d_pass=d_pass)

    @classmethod
    def constant(cls, matrix):
        """k-independent matrix model (derivatives vanish identically)."""
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("constant model needs a square matrix")
        if not np.all((np.abs(m.real) <= SCALE_LIMIT) & (np.abs(m.imag) <= SCALE_LIMIT)):
            raise ConfigError(f"constant matrix entries need finite real and imaginary parts "
                              f"of at most {SCALE_LIMIT:.3g} (2^500): a square that the "
                              "two-band solve forms overflows beyond it")

        def ham(kx, ky, m=m):
            shape = np.broadcast(np.asarray(kx, dtype=float),
                                 np.asarray(ky, dtype=float)).shape
            return np.broadcast_to(m, shape + m.shape).copy()

        def fused(kx, ky):
            h = ham(kx, ky)
            return h, np.zeros_like(h), np.zeros_like(h)

        return cls(m.shape[0], ham, fused=fused)


#: the ``model:`` keys each family reads; any other key is a ConfigError that
#: names it and the family.  A constant matrix has no decay parameter: its
#: ``gamma`` is only the bath rate that the CLI's Lindblad and absorptive
#: checks read (a finite number >= 0), a stand-in for the model's own decay
FAMILY_KEYS = {
    "rice_mele": ("family", *(f.name for f in fields(RMParams))),
    "constant": ("family", "matrix", "gamma"),
}


def model_from_config(cfg: dict) -> BlochModel:
    """Build a model from the ``model:`` section of a run config."""
    if not isinstance(cfg, dict):
        raise ConfigError("model section must be a mapping")
    family = cfg.get("family")
    keys = FAMILY_KEYS.get(family) if isinstance(family, str) else None
    if keys is None:
        raise ConfigError(f"unknown model family {family!r}; known: {', '.join(FAMILY_KEYS)}")
    unknown = sorted(str(key) for key in cfg if key not in keys)
    if unknown:
        raise ConfigError(f"unknown {family} model key(s) {', '.join(unknown)}; "
                          f"known: {', '.join(keys)}")
    params = {"variant": cfg["variant"]} if "variant" in cfg else {}
    for name in (key for key in cfg if key not in ("family", "variant", "matrix")):
        if isinstance(cfg[name], bool):  # float(true) is 1.0, but a bool is not a number here
            raise ConfigError(f"{family} parameter {name} must be a number, got {cfg[name]!r}")
        try:
            params[name] = float(cfg[name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad {family} parameters: {exc}") from exc
    if family == "rice_mele":  # a key the section leaves out takes the RMParams default
        return BlochModel.rice_mele(RMParams(**params))

    if not 0.0 <= 0.5 * params.get("gamma", 0.0) <= SCALE_LIMIT:  # the bath rate; nan fails
        raise ConfigError(f"constant family bath rate gamma must be a finite number >= 0 with "
                          f"gamma/2 at most {SCALE_LIMIT:.3g} (2^500), got {cfg['gamma']!r}")
    if "matrix" not in cfg:
        raise ConfigError("constant model needs a 'matrix' entry")
    try:
        arr = np.asarray(cfg["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad constant matrix: {exc}") from exc
    pairs = arr.ndim == 3 and arr.shape[-1] == 2  # [[ [re, im], ... ], ...]
    return BlochModel.constant(arr[..., 0] + 1j * arr[..., 1] if pairs else arr)
