"""Leaf-count sequences of delayed binary forests, with every identity
between their characterizations (recurrence, tree model, words, generating
functions, compositions, compact codes) exposed as a checkable computation.
"""

from .sequences import (
    SequenceTable,
    a,
    a0_fast,
    a1_fast,
    as_descent,
    as_via_a0,
    d,
    is_power_of_two,
    p,
    ruler,
    table,
)
from .trees import NodeLocus, is_leaf_oracle, leaves_in_prefix, locate, render
from .words import (
    dword_prefix,
    morphism_fixed_point,
    ruler_factorization,
    word_D,
    word_E,
)
from .series import (
    TruncatedSeries,
    gf_A_from_D,
    gf_As,
    gf_D0,
    gf_Dn,
    gf_Ds_nested,
    gf_Ds_sum,
    gf_Ps,
    gf_ruler,
)
from .compositions import count_compositions, enumerate_compositions, part_choices
from .codes import (
    M,
    M_oracle,
    a_max,
    b_seq,
    counts_to_code,
    enumerate_codes,
    greedy_step_counts,
    greedy_tree,
    greedy_tree_unbounded,
    level_counts,
    max_ones_partition_brute,
    shrink,
    validate_code,
)

__version__ = "0.1.0"
