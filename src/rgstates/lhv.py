"""Stabilizer formalism, the graph-state Bell operator, and classical bounds.

Pauli strings are kept in binary symplectic form (x-bits, z-bits, sign) with
X-before-Z site ordering, so that XZ = -iY.  The stabilizer element of a
vertex subset J, the product of the generators X_i Z_N(i) over i in J, is

    S_J = (-1)^e(J) X^J Z^(Gamma J),

where e(J) is the number of edges inside J and Gamma J is the XOR of the
neighbour masks N(i), i in J.  (-1)^e(J) is the graph state's amplitude sign
at basis string J.  ``state._subset_walk`` gives it with the cell of S_J, a
base-4 number whose digit k, x_k + 2 z_k with x = J and z = Gamma J, is the
Pauli code (I, X, Z, Y) at qubit k.  As a Hermitian Pauli string, each of
the popcount(J & Gamma J) Y sites of S_J takes a factor -i, an even number
of them, so its sign is (-1)^(e(J) - popcount(J & Gamma J)/2); this gives
the stabilizer table.  The Bell operator, the mean of all 2^n elements, is
the graph-state projector, so its entry (r, c) is s_r s_c / 2^n with s the
same sign vector.

The classical bound maximizes the Bell operator over all noncontextual +-1
assignments to the local X, Y, Z observables.  Both the classical bound and
single assignment values read one stabilizer table: a sign and a cell for
each of the 2^n elements.  An assignment's value is a product of per-qubit
local values, so the sum over elements contracts one qubit at a time.

The search is gauge-fixed to a_z = +1 on every qubit, 4^n of the 8^n
assignments.  Flip the local values that anticommute with a stabilizer
element S_M at each site: a_z, a_y where S_M has X; a_x, a_y where Z; a_x,
a_z where Y.  Every element commutes with S_M, so it anticommutes with it at
an even number of sites, and its term, hence the value, is unchanged.  a_z
at qubit k flips exactly when k is in M, so each orbit of 2^n equal-valued
assignments has exactly one member with a_z = +1 on every qubit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _check_tol, check_table
from .graph import Graph
from .state import _subset_walk, graph_state_vector
from .witness import (DEFAULT_THRESHOLD_TOL, WitnessEvaluation, _overlap_function,
                      _witness_evaluation, find_threshold)

# row b: values of (I, X, Z, Y) under the b-th local sign choice with a_z = +1;
# the a_z = -1 choices repeat these values (module docstring), so they are left out
_LOCAL_VALUES = np.array([(1, a_x, 1, a_y) for a_x in (1, -1) for a_y in (1, -1)],
                         dtype=np.float32)
_BLOCK = 1 << 16  # stabilizer elements per step of the Y-pair flip and the Bell sum


@dataclass(frozen=True)
class StabilizerElement:
    """Hermitian Pauli string in binary symplectic form with a +-1 sign."""

    n: int
    x_bits: int
    z_bits: int
    sign: int


@dataclass(frozen=True)
class LhvAssignment:
    """Deterministic +-1 values for the local X, Y, Z observables of each qubit."""

    a_x: tuple[int, ...]
    a_y: tuple[int, ...]
    a_z: tuple[int, ...]

    def __post_init__(self):
        for vals in (self.a_x, self.a_y, self.a_z):
            if len(vals) != len(self.a_x) or any(v not in (-1, 1) for v in vals):
                raise ValueError("assignments must be +-1 per qubit, equal lengths")


def stabilizer_element(g: Graph, j_mask: int) -> StabilizerElement:
    """Product of the generators X_i Z_N(i) over the vertices in ``j_mask``.

    The sign rule of the module docstring, in Python ints, so any n works.
    """
    if not 0 <= j_mask < (1 << g.n):
        raise ValueError(f"vertex subset {j_mask:#x} out of range for n={g.n}")
    z = inside = 0  # Gamma J, and twice the number of edges inside J
    for i in range(g.n):
        if (j_mask >> i) & 1:
            z ^= g.adjacency[i]
            inside += (g.adjacency[i] & j_mask).bit_count()
    exponent = inside // 2 - (j_mask & z).bit_count() // 2
    return StabilizerElement(g.n, j_mask, z, 1 - 2 * (exponent & 1))


def _pauli_action(elem: StabilizerElement) -> tuple[np.ndarray, np.ndarray]:
    """Column x of the Pauli string holds one nonzero: ``values[x]`` at ``rows[x]``."""
    idx = np.arange(1 << elem.n, dtype=np.int64)
    phase = elem.sign * (1j) ** ((elem.x_bits & elem.z_bits).bit_count() % 4)
    parity = np.bitwise_count(idx & elem.z_bits).astype(np.int8) & 1
    return idx ^ elem.x_bits, phase * (1 - 2 * parity)


def apply_stabilizer(elem: StabilizerElement, vec: np.ndarray) -> np.ndarray:
    """Apply a stabilizer element to a state vector without building its matrix."""
    rows, values = _pauli_action(elem)
    out = np.zeros(len(vec), dtype=complex)
    out[rows] = values * vec
    return out


def bell_operator_matrix(g: Graph) -> np.ndarray:
    """Average of all 2^n stabilizer elements: the graph-state projector.

    Entry (r, c) is s_r s_c / 2^n, with s the state's sign vector.
    """
    check_table(f"Bell operator of n={g.n}", 1 << 2 * g.n, 8)
    signs = graph_state_vector(g).signs
    return np.outer(signs, signs * (1.0 / (1 << g.n)))


def _stabilizer_table(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """int8 signs and int64 Pauli cells of all 2^n stabilizer elements.

    The sign is the graph state's sign at J times (-1)^(Y sites / 2); a Y
    site is a cell digit with both bits set.
    """
    signs, cells = _subset_walk(g)  # its table check covers the 2^n tables here
    for a in range(0, len(cells), _BLOCK):  # block temporaries, not 2^n int64 ones
        c, s = cells[a:a + _BLOCK], signs[a:a + _BLOCK]
        s[np.bitwise_count(c & c >> 1 & 0x5555_5555_5555_5555) & 2 != 0] *= -1
    return signs, cells


def bell_expectation_lhv(g: Graph, assignment: LhvAssignment) -> float:
    """Value of the Bell operator under one noncontextual assignment.

    Each element's term is its sign times the local value of its Pauli code
    at every qubit.  Qubits k and k+1 are multiplied in together, read as
    one base-16 digit of the cells from the 16-entry product of their local
    values.  The digits are read ``_BLOCK`` elements at a time, so beside the
    table only block temporaries are held.  For odd n the last qubit is
    paired with a column of ones, whose digit is always 0.
    """
    if len(assignment.a_x) != g.n:
        raise ValueError(f"assignment is for {len(assignment.a_x)} qubits, graph has {g.n}")
    terms, cells = _stabilizer_table(g)
    local = np.array([(1,) * (g.n + 1), (*assignment.a_x, 1), (*assignment.a_z, 1),
                      (*assignment.a_y, 1)], dtype=np.int8)
    pairs = [np.outer(local[:, k + 1], local[:, k]).ravel() for k in range(0, g.n, 2)]
    for a in range(0, len(cells), _BLOCK):
        c, t = cells[a:a + _BLOCK], terms[a:a + _BLOCK]
        for k, pair in enumerate(pairs):
            t *= pair[c >> 4 * k & 15]
    return float(terms.sum()) / (1 << g.n)


def _check_value_tensor(n: int) -> None:
    check_table(f"LHV value tensor of n={n}", 1 << 2 * n, 4)


def lhv_bound(g: Graph) -> float:
    """Classical bound D(g): max |<B>| over all noncontextual assignments.

    The element signs are put at their cells of a (4,)*n tensor, one axis
    per qubit (qubit n-1 first); the X part of element J is J itself, so no
    two share a cell.  Contracting each qubit's axis with the 4x4 local-value
    table of a_z = +1 gives the value of each of the 4^n gauge-fixed
    assignments, which take every value the 8^n assignments take.  One
    (4^(n-1), 4) x (4, 4) matmul contracts the leading axis and makes its
    output axis the trailing one, with no transposed copy.  Every
    partial sum is an integer of modulus <= 2^n <= 2^12 < 2^24 (the table
    budget), so float32 holds it exactly at half the memory of float64.
    """
    _check_value_tensor(g.n)
    signs, cells = _stabilizer_table(g)
    values = np.zeros(1 << 2 * g.n, dtype=np.float32)
    values[cells] = signs
    for _ in range(g.n):  # the leading axis is always the next qubit's
        values = values.reshape(4, -1).T @ _LOCAL_VALUES.T
    # no np.abs: that would be another 4^n temporary
    return float(max(values.max(), -values.min())) / (1 << g.n)


def _check_bound(d: float):
    if not 0.0 < d <= 1.0:
        raise ValueError(f"classical bound must be in (0, 1], got {d}")


def lhv_witness_value(g: Graph, p: float, level, d: float,
                      graph_spec: str | None = None) -> WitnessEvaluation:
    """Expectation of the LHV witness D(g)*1 - |g><g| on the randomized state.

    A negative value excludes any local-hidden-variable description.
    """
    _check_bound(d)
    return _witness_evaluation(g, p, level, d, graph_spec)


def lhv_threshold(g: Graph, level=2, d: float | None = None,
                  tol: float = DEFAULT_THRESHOLD_TOL):
    """Randomness threshold above which the LHV witness turns negative.

    ``d`` defaults to the exact classical bound; None when the witness
    has no zero crossing on [1/2, 1].
    """
    _check_tol(tol)  # before the 4^n bound search
    bound = lhv_bound(g) if d is None else d
    _check_bound(bound)
    overlap = _overlap_function(g, level)
    return find_threshold(lambda p: bound - overlap(p), tol=tol)
