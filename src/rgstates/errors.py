"""Exception types, the memory and time budgets, and the p and tolerance checks.

Memory: every dense numpy table is checked by ``check_table`` against
``MAX_TABLE_BYTES`` before it is allocated.  Time: every computation whose
cost grows past a few seconds with its input states an estimate in seconds,
its work count times a per-unit cost fitted beside the kernel it models, and
``check_time`` refuses it over ``MAX_SECONDS``.  Three paths have such an
estimate: the overlap contraction (``witness._admitted_plan``), the
level-3/4 cluster counts (``witness._cluster_coefficients``) and a
negativity (``density._negativity_seconds``: the 4^n gather of rho plus K^3
for the solve on K row classes), which ``cli._value_of`` charges once per
point of a sweep.  That estimate checks the density-matrix table first, so
it is refused at n >= 13 and stays in the float range.

The other limits are not costs:

- ``cli.MAX_SWEEP_POINTS`` bounds the p-grid input and the list of its points;
- |E| <= 63 wherever u(x) or a sample mask is one int64 word; ``dim``,
  ``sample``, ``negativity`` and ``rank`` at 0 < p < 1 check it on a family
  spec's edge count before the edges are listed (``parse_graph``'s ``check_size``);
- ``witness._check_range`` keeps the contraction's coefficients in the
  float64 range;
- ``graph.MAX_COVER_VERTICES`` bounds the exact vertex cover, whose
  recursion has no up-front estimate;
- ``graph.MAX_VERTICES`` bounds the memory of the adjacency ints, which are
  not a numpy table.  The level-3/4 cluster counts, ``state.empty_overlap``
  and the n <= 24 consumers (the subset walk, ``lhv``, the vertex cover)
  read them; the overlap contraction plans on neighbour sets and does not.
"""

from math import isfinite

# Bytes of one dense numpy table: a 4^12 float64 matrix, a 2^24 int64 vector.
MAX_TABLE_BYTES = 2 ** 27
# Estimated seconds of one computation on a 2-vCPU Xeon with one BLAS thread.
MAX_SECONDS = 20


class GraphSpecError(ValueError):
    """Malformed graph specification string or JSON document."""


class SizeLimitError(ValueError):
    """Requested computation exceeds a hard size budget."""


def _decimal(v: int) -> str:
    """``v`` in decimal, or as a power of two past the int-to-str digit limit.

    Python refuses ``str`` of an int over 4300 digits by default.  The tables
    that large (4^n entries at n of some thousands) hold a power of two of
    entries, so their sizes print exactly."""
    try:
        return str(v)
    except ValueError:
        k = v.bit_length() - 1
        return f"2^{k}" if v == 1 << k else f"over 2^{k}"


def check_table(what: str, entries: int, itemsize: int):
    """Refuse a table of ``entries`` items of ``itemsize`` bytes over ``MAX_TABLE_BYTES``."""
    needed = entries * itemsize
    if needed > MAX_TABLE_BYTES:
        raise SizeLimitError(f"{what} needs {_decimal(entries)} x {itemsize} = {_decimal(needed)}"
                             f" bytes; the limit is {MAX_TABLE_BYTES} bytes per table")


def check_time(what: str, seconds: float):
    """Refuse a computation estimated at more than ``MAX_SECONDS``."""
    if seconds > MAX_SECONDS:
        raise SizeLimitError(f"{what} is estimated at {seconds:.3g} s;"
                             f" the limit is {MAX_SECONDS:g} s")


def _check_p(p: float):
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"randomness parameter must be in [0, 1], got {p}")


def _check_tol(tol: float):
    if not (isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
