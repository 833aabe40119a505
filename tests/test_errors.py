import re
from argparse import Namespace
from math import comb

import pytest

from rgstates import (Graph, SizeLimitError, approx_overlap, bell_operator_matrix, cli,
                      density, generate, graph_state_vector, lhv_bound, randomization_overlap,
                      randomize, subgraph_mixture, subgraph_space_dimension, witness)
from rgstates.errors import MAX_SECONDS, MAX_TABLE_BYTES
from rgstates.sampler import MAX_SAMPLE_PATTERNS
from rgstates.state import excitation_patterns

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
    # planning stops at the first frontier width whose tensor is over the budget
    ("overlap contraction at frontier width 11",
     lambda: approx_overlap(generate("complete:14"), 0.5, 5), 4 ** 10 * 5 * 8),
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
    assert MAX_SAMPLE_PATTERNS == MAX_TABLE_BYTES // 8 == 2 ** 24
    assert MAX_SECONDS == 20


TIME_MESSAGE = re.compile(rf"(.+) is estimated at (\S+) s; the limit is {MAX_SECONDS:g} s")
HALVES = Namespace(bipartition="0,1,2,3,4,5|6,7,8,9,10,11")

# (what is refused, the refused call, the estimate of the same path one step
# smaller, computed without running it)
REFUSED_PAST_THE_TIME_BUDGET = [
    ("overlap contraction at frontier width 8",
     lambda: randomization_overlap(generate("grid:8x10"), 0.9),
     lambda: witness._sweep_seconds(generate("grid:8x9"), 127, 8)),
    ("level-4 cluster count of n=20000",
     lambda: approx_overlap(generate("star:20000"), 0.9, 4),
     lambda: witness._count_seconds(generate("star:11000"), 4)),
    ("negativity sweep of 2 points at n=12",
     lambda: cli._value_of("negativity", HALVES, generate("grid:3x4"), 2),
     lambda: 8 ** 12 * density._NEGATIVITY_SECONDS),
]


@pytest.mark.parametrize("what, call, inside", REFUSED_PAST_THE_TIME_BUDGET,
                         ids=[w for w, _, _ in REFUSED_PAST_THE_TIME_BUDGET])
def test_each_path_is_refused_past_the_time_budget(what, call, inside):
    with pytest.raises(SizeLimitError) as info:
        call()
    m = TIME_MESSAGE.fullmatch(str(info.value))
    assert m is not None, str(info.value)
    assert m.group(1) == what
    assert float(m.group(2)) > MAX_SECONDS
    assert MAX_SECONDS / 2 < inside() <= MAX_SECONDS
