"""1-D convex neural codes: recognition, reconstruction, enumeration.

The library decides whether a set (or multiset) of codewords is the
code of an arrangement of intervals on a line or arcs on a circle, in
the sensor-sparse and sensor-dense regimes; constructs explicit
exact-rational realizations or odd-cycle rejection certificates; and
counts discrete interval sets exactly via closed forms and bivariate
generating functions.
"""

from .core import (
    CO,
    CCO,
    HCO,
    HCCO,
    BitVector,
    Code,
    CodeMultiset,
    Density,
    Geometry,
    Regime,
    SensorMatrix,
    inharmonious,
    is_discrete_interval,
    regime_check,
    row_stats,
)
from .counting import (
    BivariatePoly,
    CountTable,
    brute_force_dense,
    brute_force_table,
    count_full_support_subspaces,
    count_sparse,
    gf_dense_circular,
    gf_dense_linear,
)
from .geometry import (
    Interval1D,
    IntervalArrangement,
    SensorSet,
    evaluate_codeword,
    extract_code_dense,
    extract_code_sparse,
    normalize_arbitrary,
    open_closed_swap,
    realize_matrix,
)
from .ordering import OrderingResult, cco_order, co_order
from .reconstruct import (
    Bipartition,
    Infeasible,
    Multiordering,
    RejectionCertificate,
    Unsupported,
    reconstruct_dense_circular,
    reconstruct_dense_linear,
    reconstruct_multiset_dense_linear,
    reconstruct_multiset_sparse,
    reconstruct_sparse,
    rejection_certificate,
)

__version__ = "0.1.0"
