"""Every threshold that decides a raise, a pass/fail verdict or a branch;
where two modules make the same decision they read one name.  Finite-
difference steps and the 1e-300 division floors stay with their code."""

# eigensystems: exceptional gap, relative to max|e|; identity residuals
GAP_RTOL = 1e-8
BIORTHO_TOL = 1e-10       # biorthonormality and completeness
RECON_TOL = 1e-9          # overlap inverse and reconstruction, relative
PHASE_COMPONENT_TOL = 1e-12   # |component| the phase convention skips
PAIRING_RTOL = 1e-6       # adjoint eigenvalue pairing distance, relative
DEFECTIVE_OVERLAP_TOL = 1e-12  # |<L_n|R_n>| of a defective dense pair

#: |d.d| relative to max(|d|^2, parameter scale^2) at or below which a
#: Rice-Mele point counts as gapless
DEGENERACY_RTOL = 1e-10
#: largest Rice-Mele parameter scale and |Re|, |Im| of a constant matrix entry
#: a model accepts (2^500 ~ 3.3e150).  With M the largest |H_ij|, the two-band
#: solve squares |d.d| <= 3 M^2 and |H_01|^2 + |s -+ d_z|^2 <= 8.5 M^2, and the
#: pseudospin kernel N^2 |s|^2 <= 3e3 M^2 (N <= NORM_PRODUCT_LIMIT); at
#: M ~ 3 * 2^500 these stay below 1e306, where a float overflows near 1.8e308
SCALE_LIMIT = 2.0 ** 500

LOCK_MIN_OVERLAP = 0.5    # min |<psi(k)|psi(k')>| of a finite-difference gauge lock
#: largest norm product ||R||^2 ||L||^2 the pseudospin kernel serves: the
#: eigenvector route's Gram inverse loses ~1.1e-16 N^2, so its validation
#: (RECON_TOL) rejects from N ~ 3e3 and cannot cross-check beyond this limit;
#: eigensystem_general's failures above it are ill-conditioned (split Jordan
#: pairs failed up to N = 4.5e3; generic draws, all valid, stayed below 430)
NORM_PRODUCT_LIMIT = 1e3
CROSS_CHECK_RTOL = 1e-10  # kernel vs eigenvector route on a chunk's check row

LINK_TOL = 1e-6           # plaquette link magnitude that aborts the sum
CURVATURE_SUM_IMAG_TOL = 1e-3  # Im of the curvature sum, rel. to max(1, |C|)

#: normalized margin forgiven by the local curvature bound, the Chern chain,
#: the local chain the bound integrals assert and the optical-weight bound;
#: the config's ``tolerances:`` keys default to BOUND_TOL, PSD_TOL and QGT_TOL
BOUND_TOL = 1e-9
QGT_TOL = 1e-10           # normalized margin of the QGT inequality
PSD_TOL = 1e-12           # RR/LL min eigenvalue forgiven per unit trace
ABSORPTIVE_PSD_TOL = 1e-10  # the absorptive PSD check's, not configurable
HERM_TOL = 1e-10          # anti-Hermitian residue of a Hermitian input, rel.
BRANCH_TOL = 1e-9         # excursion past the arg branch [-pi, 0], relative

RHO_TRACE_TOL = 1e-12     # |sum rho - 1| of occupation weights
RESONANCE_TOL = 1e-12     # |omega + E_nm| of an undamped transition on resonance
QUADRATURE_DAMPING_RTOL = 1e-12  # |Im z| / |z| the quadrature needs
UNDAMPED_RTOL = 1e-14     # |Im e| / max(1, |e|) of an undamped level
HERMITIAN_MODEL_TOL = 1e-14   # anti-Hermitian part of a Hermitian model
ROUNDTRIP_TOL = 1e-12     # Lindblad roundtrip residual of a passing check
BUBBLE_POSITIVITY_TOL = 1e-10  # negative bubble value forgiven as roundoff

#: the CSV formatter's own route serves 1/FORMAT_RANGE < |x| < FORMAT_RANGE and
#: leaves to "%.17g" digits within FORMAT_HALF_BAND of a half (error <= 4e-15)
FORMAT_RANGE = 1e280
FORMAT_HALF_BAND = 1e-13
