"""Stabilizer formalism, the graph-state Bell operator, and classical bounds.

Pauli strings are kept in binary symplectic form (x-bits, z-bits, sign) with
X-before-Z site ordering, so that XZ = -iY.  The classical bound maximizes
the Bell operator over all noncontextual +-1 assignments to the local X, Y,
Z observables; each stabilizer element's assignment value is a parity
function of the assignment bits, so all 8^n values come out of one
Walsh-Hadamard transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
from .graph import Graph, serialize_graph
from .state import walsh_hadamard
from .witness import (DEFAULT_BRACKET, DEFAULT_THRESHOLD_TOL, WitnessEvaluation,
                      _overlap_at_level, find_threshold)

MAX_BELL_QUBITS = 10
MAX_LHV_QUBITS = 8


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


def _assignment_bit_mask(elem: StabilizerElement) -> int:
    """Bit positions (3k, 3k+1, 3k+2) = (X, Y, Z) of qubit k in assignment space."""
    mask = 0
    for k in range(elem.n):
        x_k = (elem.x_bits >> k) & 1
        z_k = (elem.z_bits >> k) & 1
        if x_k and not z_k:
            mask |= 1 << (3 * k)
        elif x_k and z_k:
            mask |= 1 << (3 * k + 1)
        elif z_k:
            mask |= 1 << (3 * k + 2)
    return mask


def bell_expectation_lhv(g: Graph, assignment: LhvAssignment) -> float:
    """Value of the Bell operator under one noncontextual assignment."""
    if len(assignment.a_x) != g.n:
        raise ValueError(f"assignment is for {len(assignment.a_x)} qubits, graph has {g.n}")
    # bits where the assignment is -1, laid out as in _assignment_bit_mask
    tables = (assignment.a_x, assignment.a_y, assignment.a_z)
    minus = sum(1 << (3 * k + axis) for axis, vals in enumerate(tables)
                for k, v in enumerate(vals) if v == -1)
    total = 0
    for j_mask in range(1 << g.n):
        elem = stabilizer_element(g, j_mask)
        flips = (_assignment_bit_mask(elem) & minus).bit_count()
        total += elem.sign * (1 - 2 * (flips & 1))
    return total / (1 << g.n)


def lhv_bound(g: Graph) -> float:
    """Classical bound D(g): max |<B>| over all 8^n noncontextual assignments.

    Every assignment value is sign_J * (-1)^(mask_J . b) summed over J, so a
    single Walsh-Hadamard transform over the 3n assignment bits evaluates
    the whole search space exactly.
    """
    if g.n > MAX_LHV_QUBITS:
        raise SizeLimitError(f"LHV search capped at n={MAX_LHV_QUBITS}, got {g.n}")
    weights = np.zeros(1 << (3 * g.n), dtype=np.int64)
    for j_mask in range(1 << g.n):
        elem = stabilizer_element(g, j_mask)
        weights[_assignment_bit_mask(elem)] += elem.sign
    transformed = walsh_hadamard(weights)
    return float(np.abs(transformed).max()) / (1 << g.n)


def lhv_witness_value(g: Graph, p: float, level, d: float,
                      graph_spec: str | None = None) -> WitnessEvaluation:
    """Expectation of the LHV witness D(g)*1 - |g><g| on the randomized state.

    A negative value excludes any local-hidden-variable description.
    """
    if not 0.0 < d <= 1.0:
        raise ValueError(f"classical bound must be in (0, 1], got {d}")
    ov = _overlap_at_level(g, p, level)
    return WitnessEvaluation(
        graph_spec=graph_spec if graph_spec is not None else serialize_graph(g),
        p=p,
        level=str(level),
        overlap_value=ov,
        witness_value=d - ov,
        constant_term=d,
    )


def lhv_threshold(g: Graph, level=2, d: float | None = None,
                  tol: float = DEFAULT_THRESHOLD_TOL, bracket=DEFAULT_BRACKET):
    """Randomness threshold above which the LHV witness turns negative.

    ``d`` defaults to the brute-force classical bound; None when the witness
    has no zero crossing on the bracket.
    """
    bound = lhv_bound(g) if d is None else d
    if not 0.0 < bound <= 1.0:
        raise ValueError(f"classical bound must be in (0, 1], got {bound}")
    return find_threshold(lambda p: bound - _overlap_at_level(g, p, level),
                          bracket=bracket, tol=tol)
