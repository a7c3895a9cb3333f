"""Exact-in-time spectral schemes for the Benjamin-Ono and continuum
Calogero-Moser equations on the torus, with structure-preserving truncation
schedules and operator-analysis diagnostics."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    HardyVector,
    RealSpectrum,
    InitialProfile,
    project_hardy,
    truncate,
    l2_norm,
    sample_grid,
    analyze_profile,
)
from .lax import (  # noqa: F401
    EQUATIONS,
    Equation,
    LaxMatrix,
    build_bo_lax,
    build_ccm_lax,
    hermitian_defect,
)
from .propagator import (  # noqa: F401
    HermitianEig,
    PropagatorCache,
    eig_hermitian,
)
from .scheme import (  # noqa: F401
    Schedule,
    SchemeConfig,
    SchemeOutput,
    make_schedule,
    run_scheme,
    mass,
    hardy_l2,
    full_l2,
)
