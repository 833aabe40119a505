"""Monte Carlo simulation of the probabilistic edge-creation channel.

The per-edge gates all commute and each keeps its edge independently with
probability p, so the mask histogram of ``shots`` preparation runs is one
multinomial draw over edge masks.  It is drawn by splitting the shot count
edge by edge on one ``np.random.default_rng(seed)`` stream: each seed gives
one fixed sample.  The split holds two int64 prefix arrays, allocated once
at the most prefixes the sample can reach, one byte per live prefix and one
block of ``_DRAW_BLOCK`` temporaries.  A sample is the mask width |E| plus
two read-only int64 arrays, the distinct masks in ascending order and their
tallies; the ``counts`` dict view is built only when it is read.  The JSON
export is built in row blocks of ``_JSON_ROWS`` masks: ``sample_to_json``
joins them, at about two copies of its text, and the ``sample`` command
writes them to stdout one at a time, at about one block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MAX_TABLE_BYTES, SizeLimitError, check_table
from .graph import Graph
from .density import DensityMatrix, subgraph_mixture
from .state import _WORD_EDGES
from .witness import _check_p

MAX_SAMPLE_PATTERNS = MAX_TABLE_BYTES // 8  # live prefixes: masks and tallies are a table each
_DRAW_BLOCK = 1 << 16  # prefixes per slice of the per-edge draws and pass
_JSON_ROWS = 1 << 12  # masks per piece of the JSON export

_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


@dataclass(frozen=True, eq=False)
class PreparationSample:
    """Edge-mask histogram from repeated preparation runs."""

    shots: int
    seed: int
    width: int  # |E|, the number of bits in every mask
    masks: np.ndarray  # int64, the distinct mask bits, ascending, read-only
    tallies: np.ndarray  # int64, occurrences of each mask, read-only

    @cached_property
    def counts(self) -> dict[int, int]:
        """Mask bits -> occurrence count, ascending bits."""
        return dict(zip(self.masks.tolist(), self.tallies.tolist()))

    def mask_counts(self) -> dict[int, int]:
        return dict(self.counts)


def sample_preparation(g: Graph, p: float, shots: int, seed: int,
                       threads: int = 1) -> PreparationSample:
    """Draw ``shots`` independent edge masks, each edge kept with probability ``p``.

    ``threads`` must be at least 1 and has no effect: each seed gives one
    fixed sample, drawn on one stream.
    """
    _check_p(p)
    if not 1 <= shots < (1 << 63):
        raise ValueError(f"shots must be in [1, 2^63), got {shots}")
    if not 0 <= seed < (1 << 64):
        raise ValueError("seed must be a 64-bit unsigned integer")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    e = g.edge_count
    if e > _WORD_EDGES:  # a mask is one nonnegative int64 word
        raise SizeLimitError(f"sampling capped at |E|={_WORD_EDGES}, got {e}")

    # Live prefixes: masks over edges 0..k-1 and how many shots share each,
    # in the first ``live`` slots; a page is touched only when a prefix
    # reaches it.  A prefix whose shots all go one way is updated in place;
    # one that splits keeps its dropped shots and appends its kept ones as a
    # child.  Per edge, the uniforms decide the single-shot prefixes, then
    # one pass over slices of prefixes draws the binomials of the multi-shot
    # ones in ascending order, appends the children and sets the edge bit.
    # Past the table budget, the children are only counted, so a refusal
    # names the size the edge needed.
    rng = np.random.default_rng(seed)
    size = min(shots, 1 << e, MAX_SAMPLE_PATTERNS)
    masks = np.empty(size, dtype=np.int64)
    tallies = np.empty(size, dtype=np.int64)
    masks[0], tallies[0] = 0, shots
    live = 1
    for k in range(e):
        keep = np.empty(live, dtype=bool)  # decides the single-shot prefixes
        for a in range(0, live, _DRAW_BLOCK):
            np.less(rng.random(min(_DRAW_BLOCK, live - a)), p, out=keep[a:a + _DRAW_BLOCK])
        grown = live
        for a in range(0, live, _DRAW_BLOCK):
            b = min(a + _DRAW_BLOCK, live)
            block = a + np.flatnonzero(tallies[a:b] > 1)
            held = tallies[block]
            kept = rng.binomial(held, p)
            whole = kept == held
            keep[block] = whole
            split = (kept > 0) & ~whole
            parents, children = block[split], kept[split]
            end = grown + len(parents)
            if end <= MAX_SAMPLE_PATTERNS:
                tallies[parents] -= children
                masks[grown:end] = masks[parents] | (1 << k)
                tallies[grown:end] = children
            grown = end
            masks[a:b] |= keep[a:b] * (1 << k)
        check_table(f"sample prefixes at edge {k + 1} of {e}", grown, 8)
        live = grown
    order = np.argsort(masks[:live])
    masks = masks[order]  # one sorted copy at a time beside the prefix arrays
    tallies = tallies[order]
    masks.flags.writeable = tallies.flags.writeable = False
    return PreparationSample(shots=shots, seed=seed, width=e,
                             masks=masks, tallies=tallies)


def empirical_state(sample: PreparationSample, g: Graph) -> DensityMatrix:
    """Frequency-weighted mixture of the sampled subgraph projectors."""
    if sample.width != g.edge_count:
        raise ValueError(
            f"sample mask width {sample.width} does not match |E|={g.edge_count}")
    weights = sample.tallies / sample.shots
    return subgraph_mixture(g, dict(zip(sample.masks.tolist(), weights.tolist())))


def _write_digits(values: np.ndarray, cells: np.ndarray, keep: np.ndarray,
                  base: int) -> None:
    """Right-aligned ASCII digits of non-negative ``values`` in base 10 or 16.

    ``cells`` and ``keep`` are (len(values), width) views; ``keep`` is cleared
    on leading zeros, but one digit stays for the value 0.
    """
    v = values.copy()
    for j in range(cells.shape[1] - 1, -1, -1):
        if j < cells.shape[1] - 1:
            keep[:, j] = v != 0
        if base == 16:
            digit = v & 15
            v >>= 4
        else:
            v, digit = np.divmod(v, base)
        cells[:, j] = _DIGITS[digit]


def sample_to_json(sample: PreparationSample, *, graph_spec: str, p: float) -> str:
    """Serialize a sample with hex-keyed mask counts.

    The text equals ``json.dumps`` of the header fields and the dict
    ``{hex(bits): count}`` with separators ``(",", ":")``.  It is joined from
    the pieces of ``_json_pieces``, so it costs about two copies of itself.
    """
    return "".join(_json_pieces(sample, graph_spec=graph_spec, p=p))


def _json_pieces(sample: PreparationSample, *, graph_spec: str, p: float):
    """The text of ``sample_to_json`` in pieces of ``_JSON_ROWS`` masks each.

    Each piece is one byte matrix, a row ``"0x<mask>":<tally>,`` per mask,
    with the leading zeros masked out: no per-entry objects.  The digit
    widths are taken over the whole sample, and the last row drops its comma.
    """
    head = json.dumps({"graph_spec": graph_spec, "p": p, "shots": sample.shots,
                       "seed": sample.seed}, separators=(",", ":"))
    yield f'{head[:-1]},"counts":{{'
    masks, tallies = sample.masks, sample.tallies
    hex_width = max(1, (int(masks.max()).bit_length() + 3) // 4)
    dec_width = len(str(int(tallies.max())))
    a, b = 3 + hex_width, 5 + hex_width  # the mask digits are cells[:, 3:a]
    cells = np.empty((min(len(masks), _JSON_ROWS), b + dec_width + 1), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)  # the digit columns are rewritten per block
    cells[:, :3] = np.frombuffer(b'"0x', dtype=np.uint8)
    cells[:, a:b] = np.frombuffer(b'":', dtype=np.uint8)
    cells[:, -1] = ord(",")
    for start in range(0, len(masks), _JSON_ROWS):
        end = min(start + _JSON_ROWS, len(masks))
        c, k = cells[:end - start], keep[:end - start]
        _write_digits(masks[start:end], c[:, 3:a], k[:, 3:a], 16)
        _write_digits(tallies[start:end], c[:, b:-1], k[:, b:-1], 10)
        if end == len(masks):
            k[-1, -1] = False
        yield c[k].tobytes().decode("ascii")
    yield "}}"
