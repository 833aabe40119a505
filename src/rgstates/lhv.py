"""Stabilizer formalism, the graph-state Bell operator, and classical bounds.

Pauli strings are kept in binary symplectic form (x-bits, z-bits, sign) with
X-before-Z site ordering, so that XZ = -iY.  The classical bound maximizes
the Bell operator over all noncontextual +-1 assignments to the local X, Y,
Z observables.  Both the classical bound and single assignment values read
one stabilizer table: a sign and a per-qubit Pauli code (I, X, Z, Y) for
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

from .errors import SizeLimitError
from .graph import Graph
from .witness import (DEFAULT_THRESHOLD_TOL, WitnessEvaluation, _check_tol,
                      _overlap_at_level, _witness_evaluation, find_threshold)

MAX_BELL_QUBITS = 10
MAX_LHV_QUBITS = 12

# row b: values of (I, X, Z, Y) under the b-th local sign choice with a_z = +1;
# the a_z = -1 choices repeat these values (module docstring), so they are left out
_LOCAL_VALUES = np.array([(1, a_x, 1, a_y) for a_x in (1, -1) for a_y in (1, -1)],
                         dtype=np.float32)


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
    """Product of the generators X_i Z_N(i) over the vertices in ``j_mask``."""
    if not 0 <= j_mask < (1 << g.n):
        raise ValueError(f"vertex subset {j_mask:#x} out of range for n={g.n}")
    x = z = 0
    phase = 0  # exponent of i in the X-before-Z normal form
    for i in range(g.n):
        if (j_mask >> i) & 1:
            phase = (phase + 2 * ((z >> i) & 1)) % 4
            x ^= 1 << i
            z ^= g.adjacency[i]
    y_sites = (x & z).bit_count()
    k = (phase - y_sites) % 4
    assert k % 2 == 0, "stabilizer product must resolve to a real sign"
    return StabilizerElement(g.n, x, z, 1 if k == 0 else -1)


def _pauli_action(elem: StabilizerElement) -> tuple[np.ndarray, np.ndarray]:
    """Column x of the Pauli string holds one nonzero: ``values[x]`` at ``rows[x]``."""
    idx = np.arange(1 << elem.n, dtype=np.int64)
    phase = elem.sign * (1j) ** ((elem.x_bits & elem.z_bits).bit_count() % 4)
    parity = np.bitwise_count(idx & elem.z_bits).astype(np.int8) & 1
    return idx ^ elem.x_bits, phase * (1 - 2 * parity)


def stabilizer_matrix(elem: StabilizerElement) -> np.ndarray:
    """Dense complex matrix of a stabilizer element."""
    dim = 1 << elem.n
    rows, values = _pauli_action(elem)
    m = np.zeros((dim, dim), dtype=complex)
    m[rows, np.arange(dim)] = values
    return m


def apply_stabilizer(elem: StabilizerElement, vec: np.ndarray) -> np.ndarray:
    """Apply a stabilizer element to a state vector without building its matrix."""
    rows, values = _pauli_action(elem)
    out = np.zeros(len(vec), dtype=complex)
    out[rows] = values * vec
    return out


def bell_operator_matrix(g: Graph) -> np.ndarray:
    """Average of all 2^n stabilizer elements; equals the graph-state projector."""
    if g.n > MAX_BELL_QUBITS:
        raise SizeLimitError(f"Bell operator capped at n={MAX_BELL_QUBITS}, got {g.n}")
    dim = 1 << g.n
    cols = np.arange(dim)
    acc = np.zeros((dim, dim), dtype=complex)
    for j_mask in range(dim):
        rows, values = _pauli_action(stabilizer_element(g, j_mask))
        acc[rows, cols] += values
    acc /= dim
    assert np.abs(acc.imag).max() < 1e-12
    return np.ascontiguousarray(acc.real)


def _stabilizer_table(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Signs and Pauli codes of all 2^n stabilizer elements.

    ``paulis[J, k] = x_k + 2 z_k`` of element J is 0, 1, 2, 3 for I, X, Z, Y.
    """
    elems = [stabilizer_element(g, j_mask) for j_mask in range(1 << g.n)]
    signs = np.array([e.sign for e in elems], dtype=np.int64)
    bits = np.array([(e.x_bits, e.z_bits) for e in elems], dtype=np.int64)
    sites = np.arange(g.n)
    paulis = (bits[:, :1] >> sites & 1) + 2 * (bits[:, 1:] >> sites & 1)
    return signs, paulis


def bell_expectation_lhv(g: Graph, assignment: LhvAssignment) -> float:
    """Value of the Bell operator under one noncontextual assignment."""
    if len(assignment.a_x) != g.n:
        raise ValueError(f"assignment is for {len(assignment.a_x)} qubits, graph has {g.n}")
    signs, paulis = _stabilizer_table(g)
    local = np.array([(1,) * g.n, assignment.a_x, assignment.a_z, assignment.a_y])
    values = local[paulis, np.arange(g.n)].prod(axis=1)
    return float(signs @ values) / (1 << g.n)


def lhv_bound(g: Graph) -> float:
    """Classical bound D(g): max |<B>| over all noncontextual assignments.

    The element signs are summed into a (4,)*n tensor indexed by Pauli code;
    contracting each qubit's axis with the 4x4 local-value table of a_z = +1
    gives the value of each of the 4^n gauge-fixed assignments, which take
    every value that the 8^n assignments take.  Every partial sum is an
    integer of modulus <= 2^n <= 2^12 < 2^24, so float32 holds it exactly at
    half the memory of float64.
    """
    if g.n > MAX_LHV_QUBITS:
        raise SizeLimitError(f"LHV search capped at n={MAX_LHV_QUBITS}, got {g.n}")
    signs, paulis = _stabilizer_table(g)
    values = np.zeros((4,) * g.n, dtype=np.float32)
    np.add.at(values, tuple(paulis.T), signs)
    for _ in range(g.n):  # the leading axis is always the next qubit's
        values = np.tensordot(values, _LOCAL_VALUES, axes=(0, 1))
    # no np.abs: that would be another 4^n temporary
    return float(max(values.max(), -values.min())) / (1 << g.n)


def lhv_witness_value(g: Graph, p: float, level, d: float,
                      graph_spec: str | None = None) -> WitnessEvaluation:
    """Expectation of the LHV witness D(g)*1 - |g><g| on the randomized state.

    A negative value excludes any local-hidden-variable description.
    """
    if not 0.0 < d <= 1.0:
        raise ValueError(f"classical bound must be in (0, 1], got {d}")
    return _witness_evaluation(g, p, level, d, graph_spec)


def lhv_threshold(g: Graph, level=2, d: float | None = None,
                  tol: float = DEFAULT_THRESHOLD_TOL):
    """Randomness threshold above which the LHV witness turns negative.

    ``d`` defaults to the exact classical bound; None when the witness
    has no zero crossing on [1/2, 1].
    """
    _check_tol(tol)  # before the 4^n bound search
    bound = lhv_bound(g) if d is None else d
    if not 0.0 < bound <= 1.0:
        raise ValueError(f"classical bound must be in (0, 1], got {bound}")
    return find_threshold(lambda p: bound - _overlap_at_level(g, p, level), tol=tol)
