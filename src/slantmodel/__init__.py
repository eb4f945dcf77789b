"""Compressions of k-th order slant Toeplitz operators to model spaces,
realized as explicit finite matrices."""

from .laurent import LaurentPoly
from .model_space import (
    InnerFunction,
    ModelSpaceBasis,
    TruncationError,
)
from .operators import (
    CompressionSetting,
    DefectDecomposition,
    MembershipReport,
    NonMemberError,
    OperatorMatrix,
    assemble_defect,
    build_compression,
    canonical_symbol,
    conjugate_operator,
    conjugate_symbol,
    defect,
    defect_from_symbol,
    membership,
    rank_one,
    recover_symbol,
    zero_test_sufficient,
)
from .verify import SuiteConfig, SuiteReport, run_suite

__version__ = "0.1.0"
