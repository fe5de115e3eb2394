"""tropkern: max-plus (tropical) kernel methods on finite grids.

Extended-real arithmetic, tropically positive semidefinite kernels and their
feature-map factorizations, Fenchel-Moreau conjugation and range membership,
max-plus linear algebra (residuation, idempotency, von Neumann regularity),
interpolation/regression representer machinery, least-action kernels on
spacetime lattices with value functions, and inverse optimal control.
"""

from .core import (
    INF_EMPTY,
    NEG_INF,
    POS_INF,
    SUP_EMPTY,
    GridFunction,
    Point,
    PointSet,
    PreconditionError,
    SizeError,
    decode_extreal,
    decode_values,
    dirac,
    encode_extreal,
    encode_values,
    ext,
    ext_close,
    grid_function,
    lower_add,
    lower_add_arrays,
    lower_sub,
    max_plus,
    max_reduce,
    min_plus,
    min_reduce,
    upper_add,
    upper_add_arrays,
    upper_sub,
)
from .kernels import (
    ClosedFormKernel,
    FeatureMap,
    GramKernel,
    PermutationVerdict,
    TpsdVerdict,
    check_permutation_positivity,
    decompose_phi_b0,
    factorize,
    gram_on,
    is_tpsd_pairwise,
    kernel_from_spec,
    kernel_to_spec,
)
from .conjugation import (
    ConjugationOp,
    CyclicCheck,
    MonotoneCheck,
    RangeVerdict,
    apply_linear,
    check_cyclic_monotone,
    check_monotone,
    conj_sesqui,
    diagonal_witness_pair,
    discrepancy_dB,
    duality_product,
    funk_kernel,
    is_in_range,
)
from .linear_theory import (
    FunctionFamily,
    RegularityVerdict,
    closure_CG,
    is_idempotent,
    is_lipschitz_member,
    is_von_neumann_regular,
    left_residual,
    max_kernel_cG,
    mp_apply,
    mp_matmul,
    regularity,
    right_residual,
)
from .representer import (
    CanonicalInterpolant,
    InfeasibleConstraintsError,
    RegressionResult,
    SampleSet,
    StoppingCostResult,
    WitnessResult,
    build_f0,
    feasible_witnesses,
    reconstruct_stopping_cost,
    regress,
)
from .control import (
    LagrangianSpec,
    MaupertuisProblem,
    TerminalCostResult,
    asymmetrize,
    invert_terminal_cost,
    largest_subsolution_check,
    lax_hopf,
    lift_terminal,
    maupertuis_dp,
    space_slice_kernel,
    value_function,
)

__version__ = "0.1.0"
