"""Biorthogonal quantum geometry and response bounds for NH Bloch models."""

from .models import BlochModel, RMParams, bz_mesh, rm_d_vector, wrap_k
from .spectra import (Eigensystem, eigensystem, eigensystem_general,
                      eigensystem_two_band, gauge_rescale, overlap_matrices)
from .geometry import (GeometryGrid, berry_curvature_lr, compute_geometry,
                       finite_difference_qgt, scan_geometry)
from .topology import ChernResult, chern_from_curvature, chern_plaquette, compute_chern
from .response import (OpticalWeightResult, TransitionTable, absorptive_part,
                       lehmann_correlator, lorentzian_kernel, optical_weight_bz)
from .lindblad import JumpSpec, KeldyshSet, decompose_antihermitian, m_matrix

__version__ = "0.1.0"

__all__ = [
    "BlochModel", "RMParams", "bz_mesh", "rm_d_vector", "wrap_k",
    "Eigensystem", "eigensystem", "eigensystem_general",
    "eigensystem_two_band", "gauge_rescale", "overlap_matrices",
    "GeometryGrid", "berry_curvature_lr", "compute_geometry",
    "finite_difference_qgt", "scan_geometry",
    "ChernResult", "chern_from_curvature", "chern_plaquette", "compute_chern",
    "OpticalWeightResult", "TransitionTable", "absorptive_part",
    "lehmann_correlator", "lorentzian_kernel", "optical_weight_bz",
    "JumpSpec", "KeldyshSet", "decompose_antihermitian", "m_matrix",
    "__version__",
]
