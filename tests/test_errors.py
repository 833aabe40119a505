import re
from math import comb

import pytest

from rgstates import (Graph, SizeLimitError, bell_operator_matrix, generate,
                      graph_state_vector, lhv_bound, randomize, subgraph_mixture,
                      subgraph_space_dimension)
from rgstates.errors import MAX_TABLE_BYTES
from rgstates.sampler import MAX_SAMPLE_PATTERNS
from rgstates.state import excitation_patterns
from rgstates.witness import MAX_CONTRACTION_ENTRIES

MESSAGE = re.compile(r"(.+) needs (\d+) x (\d+) = (\d+) bytes;"
                     rf" the limit is {MAX_TABLE_BYTES} bytes per table")
K8 = generate("complete:8").edges

# (what is built, the refused call, bytes of the same table one step smaller)
REFUSED_ONE_STEP_PAST = [
    ("density matrix of n=13", lambda: randomize(generate("empty:13"), 0.5), 4 ** 12 * 8),
    ("density matrix of n=13", lambda: subgraph_mixture(generate("empty:13"), {0: 1.0}),
     4 ** 12 * 8),
    ("mixture weights of |E|=25", lambda: subgraph_mixture(Graph(8, K8[:25]), {0: 1.0}),
     2 ** 24 * 8),
    ("excitation patterns of n=25", lambda: excitation_patterns(generate("empty:25")),
     2 ** 24 * 8),
    ("excitation patterns of n=25", lambda: subgraph_space_dimension(generate("path:25")),
     2 ** 24 * 8),
    ("subset walk of n=25", lambda: graph_state_vector(generate("empty:25")), 2 ** 24 * 8),
    ("Bell operator of n=13", lambda: bell_operator_matrix(generate("empty:13")), 4 ** 12 * 8),
    ("LHV value tensor of n=13", lambda: lhv_bound(generate("empty:13")), 4 ** 12 * 4),
    ("edge list of n=4097", lambda: generate("complete:4097"), comb(4096, 2) * 16),
    # the edge count is read before any edge is: a range stands in for 2^23 + 1 pairs
    ("edge list of n=5000", lambda: Graph(5000, range(2 ** 23 + 1)), 2 ** 23 * 16),
]


@pytest.mark.parametrize("what, call, below", REFUSED_ONE_STEP_PAST,
                         ids=[w for w, _, _ in REFUSED_ONE_STEP_PAST])
def test_each_table_is_refused_one_step_past_the_budget(what, call, below):
    with pytest.raises(SizeLimitError) as info:
        call()
    m = MESSAGE.fullmatch(str(info.value))
    assert m is not None, str(info.value)
    entries, itemsize, needed = (int(v) for v in m.group(2, 3, 4))
    assert m.group(1) == what
    assert entries * itemsize == needed
    assert below <= MAX_TABLE_BYTES < needed


def test_derived_limits_read_the_budget():
    assert MAX_TABLE_BYTES == 2 ** 27
    assert MAX_CONTRACTION_ENTRIES == MAX_SAMPLE_PATTERNS == MAX_TABLE_BYTES // 8 == 2 ** 24
