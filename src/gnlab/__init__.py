"""gnlab: a numerical laboratory for fractional Gagliardo-Nirenberg
interpolation inequalities.

Submodules: checker (exact rational decision procedures), spectral
(periodic-grid transforms, dyadic projectors, Fourier multipliers), norms
(Lebesgue / Besov / Triebel-Lizorkin / Sobolev), testfuncs (lacunary
counterexample families and generic fields), harness (ratio experiments and
slope fits), regression (built-in instance table), variational (constrained
boson-star energy minimization and regime classification), fieldio (GNF1
files), cli.
"""

from .checker import (
    GNProblem,
    Scale,
    SpaceTriple,
    Status,
    Verdict,
    auto_check,
    check_besov,
    check_besov_sup,
    check_inhomogeneous,
    check_riesz,
    check_triebel,
    scaling_balance,
)
from .norms import NormFamily, NormSpec, besov_norm, compute_norm, lp_norm, sobolev_norm, triebel_norm
from .spectral import (
    Bessel,
    Domain,
    Field,
    FracLaplacian,
    Grid,
    RieszPotential,
    apply_symbol,
    dilate,
    dyadic_project,
    make_grid,
    partition_check,
    riesz_constant,
    to_fourier,
    to_physical,
    transform,
)
from .testfuncs import FamilyKind, LacunaryFamily, build_family, gaussian, random_band_limited
from .variational import (
    EnergyParams,
    MinimizeOptions,
    MultiField,
    ProductPowers,
    Regime,
    RegimeReport,
    SumPowers,
    energy,
    energy_gradient,
    estimate_cstar,
    g_conditions_check,
    minimize,
    project_spheres,
    regime_classify,
    scaling_profile,
    schwarz_rearrange,
    sum_squares,
    upsilon_beta,
)

__version__ = "0.1.0"
