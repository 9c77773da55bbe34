"""Exact-arithmetic toolkit for type R_I orthogonal polynomials.

Everything is computed over exact rationals: the three-term recurrence
P_{n+1} = (x - b_n) P_n - (a_n x + lam_n) P_{n-1}, the linear functional on
the rational-function space it is orthogonal under, weighted
Motzkin-Schroeder path sums, bounded-height generating functions, moment
determinants with their factorizations, the explicit Askey-scheme families,
and the Laguerre/Meixner history bijections.
"""

from .exactmath import (
    Poly,
    Scalar,
    Series,
    SymDegreeError,
    SymPoly,
    binomial,
    format_scalar,
    parse_scalar,
    pochhammer,
    poly_divrem,
    qpochhammer,
    series_from_rational,
    stirling1,
    stirling2,
)
from .core import (
    CoeffError,
    CoeffSystem,
    DegeneracyError,
    FavardTiling,
    L_eval,
    P,
    P_via_tilings,
    Pstar,
    VElem,
    cf_series,
    coeffs_from_spec,
    d_poly,
    expand_in_P,
    F_eval,
    invert,
    moment_series,
    mu,
    mu_nm,
    mu_nml,
    mu_symbolic,
    nu,
    rho,
    shift,
    Vm_series,
)
from .paths import (
    Path,
    PathOverflowError,
    WeightSystem,
    bounded_gf,
    enumerate_paths,
    finite_cf_rational,
    rho_sum,
    symbolic_weights,
    weight_sum,
)
from .determinants import (
    DetReport,
    HypothesisViolation,
    classical_equiv_check,
    delta_prime,
    delta_dprime,
    delta_shifted,
    delta_tprime,
    det_exact,
    hankel,
    hankel_constant,
    lemma_xin_check,
    P_via_det,
    Q_via_det,
)
from .families import (
    FamilyParamError,
    FamilySpec,
    NoClosedForm,
    askey_wilson,
    big_q_jacobi,
    chebyshev_weight,
    constant,
    genthm_check,
    glue_shift_check,
    hermite_linearization_check,
    jacobi01,
    jacobi11,
    laguerre,
    little_q_jacobi,
    meixner,
    q_racah,
    r1_hermite,
    theta,
)
from .histories import (
    LaguerreHistory,
    MeixnerHistory,
    PartitionCycles,
    enumerate_LH,
    enumerate_MH,
    lh_moment_check,
    mh_moment_check,
    non_excedance_check,
    phi,
    phi_inv,
    psi,
    psi_inv,
)

__version__ = "0.1.0"
