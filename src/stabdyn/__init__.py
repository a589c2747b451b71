"""stabdyn: exact computation for subshifts of finite type and the wreath
algebra of their stabilized symmetry groups.

Everything is pure Python over exact integers (floats appear only in the
entropy layer: the Perron value's float power iteration with Collatz-Wielandt
bounds, the bisection for the characteristic polynomial's largest root, and
the entropy-ratio test); all values are immutable after construction, lazy
caches aside, and every operation is a pure function, so the library is safe
to use from concurrent threads of control.
"""

__version__ = "0.1.0"

from .budgets import Budget, default_budget
from .codes import (AutomorphismSet, SlidingBlockCode, compose,
                    commutes_with_power, enumerate_automorphisms, find_inverse,
                    identity_code, partition_action, shift_code)
from .groups import FiniteGroup, cyclic_group, is_isomorphic, symmetric_group
from .seqs import (check_example1_residues, check_example2_markers,
                   example1_word, example2_word, sturmian_prefix)
from .sft import (EdgeShift, EntropyResult, entropy, full_shift, is_irreducible,
                  is_mixing, make_edge_shift, parse_edge_shift, period,
                  power_shift)
from .spectral import (CyclicPartition, SmaleDecomposition, cyclic_partition,
                       is_power_transitive, rational_eigs, smale)
from .verify import (check_wreath_rigidity, compare_rational_eigs,
                     entropy_ratio, verify_quotient_isos, verify_split_sequence)
from .wreath import (WreathContext, WreathElement, cycle_product,
                     normal_subgroups_sym, wr_comm, wr_conj, wr_inv, wr_mul,
                     wreath_group)
