"""Spectral data of self-adjoint Toeplitz operators with bounded real
piecewise trig-polynomial symbols: sublevel sets and multiplicity, outer
functions and boundary values, resolvent forms, the spectral density kernel,
generalized eigenfunctions, the diagonalizing map, and a finite-section
validation oracle.
"""

from .diagonal import FrameFamily, HardyVector, intertwining_check, phi_adjoint, phi_map, phi_r
from .errors import (
    CountingError,
    ExceptionalLevelError,
    FormMismatchError,
    InadmissibleIntervalError,
    QuadratureError,
    ToepspecError,
)
from .hardy import (
    boundary_sigma,
    boundary_xi,
    coefficients_c,
    mu_measure,
    outer_F,
    phase_A_closed,
    phase_A_integral,
    q_function,
    xi,
    xi_circle,
    xi_grid,
)
from .kernels import arc_identities, poisson_P, reproducing_K, schwarz_H
from .levelset import (
    admissible_intervals,
    counting_report,
    exceptional_set,
    solve_level,
    sublevel_set,
)
from .oracle import FiniteSection, build_section, k_vector, oracle_weak_measure, smooth_bump, validate
from .spectral import (
    SpectralFrame,
    resolvent_form,
    rh_residual,
    spectral_frame,
    stone_density,
    weak_measure,
)
from .symbol import (
    PiecewiseSymbol,
    SymbolPiece,
    TrigPoly,
    load_symbol,
    named_symbol,
    preset_regular,
    preset_singular,
)

__version__ = "0.1.0"
