"""tenrank: exact tensor-rank toolkit.

Tripartite states as exact order-3 tensors, rank decompositions with
bit-exact verification, the decomposition <-> bilinear-program duality
(including runnable fast matrix multiplication), and stochastic local
protocols converting GHZ-type states into arbitrary targets.
"""

from .als import AlsConfig, AlsResult
from .bilinear import (
    BilinearProgram,
    MulCount,
    from_bilinear,
    matmul_power_relabeling,
    matmul_tensor,
    matrix_from_json,
    matrix_to_json,
    naive_matmul_decomposition,
    naive_multiply,
    phi3_matmul_witness,
    run_bilinear_matmul,
    strassen_multiply,
    strassen_multiply_float,
    to_bilinear,
    verify_for_matmul,
)
from .decomp import (
    KroneckerPowerTerms,
    ProductDecomposition,
    Rank222,
    RankFacts,
    Term,
    VerifyResult,
    als_search,
    builtin_decomposition,
    builtin_state,
    builtin_witness,
    decomposition_contract,
    decomposition_from_json,
    decomposition_power,
    decomposition_to_json,
    hyperdeterminant_2x2x2,
    make_decomposition,
    rank_bounds,
    rank_leq2_test_2x2x2,
    rationalize_result,
    reconstruct,
    require_witness,
    transport,
    verify_decomposition,
    verify_power_randomized,
    w_rank3_decomposition,
)
from .errors import InputError, ResourceError, StateError, TenrankError, WitnessMismatch
from .scalars import Scalar, as_scalar
from .slocc import (
    ConvertVerdict,
    SloccProtocol,
    ThreeQubitClass,
    bipartite_convertible,
    build_protocol,
    classify_three_qubit,
    decide_ghz_conversion,
    direction_deviation,
    protocol_to_json,
    schmidt_measure_bounds,
    simulate,
    verdict_to_json,
)
from .tensors import (
    LocalOperatorTriple,
    Tensor3,
    apply_local_operators,
    contract,
    flattening,
    flattening_rank,
    flattening_ranks,
    identity_triple,
    make_tensor,
    max_flattening_rank,
    support_basis,
    tensor_from_json,
    tensor_product,
    tensor_to_json,
    zero_tensor,
)

__version__ = "0.1.0"
