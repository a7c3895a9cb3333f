"""Exact-in-time spectral schemes for the Benjamin-Ono and continuum
Calogero-Moser equations on the torus, with structure-preserving truncation
schedules and operator-analysis diagnostics."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    HardyVector,
    RealSpectrum,
    NormSpec,
    InitialProfile,
    project_hardy,
    truncate,
    shift_left,
    inner_with_one,
    l2_norm,
    hs_kappa_norm,
    synthesize,
    sample_grid,
    analyze_profile,
    hermitian_symmetrize,
)
from .lax import (  # noqa: F401
    LaxMatrix,
    FreeResolvent,
    build_bo_lax,
    build_ccm_lax,
    apply_free_resolvent,
    hermitian_defect,
)
from .propagator import (  # noqa: F401
    HermitianEig,
    PropagatorCache,
    KappaZero,
    eig_hermitian,
    apply_group,
    find_kappa_zero,
)
from .scheme import (  # noqa: F401
    Schedule,
    SchemeConfig,
    SchemeOutput,
    make_schedule,
    iterate_size,
    run_scheme,
    mass,
    hardy_l2,
    full_l2,
)
