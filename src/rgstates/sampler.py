"""Monte Carlo simulation of the probabilistic edge-creation channel.

The per-edge gates all commute and each keeps its edge independently with
probability p, so the mask histogram of ``shots`` preparation runs is one
multinomial draw over edge masks.  It is drawn by splitting the shot count
edge by edge over prefixes, the distinct masks so far and their tallies.  A
prefix of one shot decides an edge on one random byte: with t = floor(256p),
it keeps the edge when the byte is below t, or equals t and a double is
below 256p - t.  That is Bernoulli(ceil(p 2^61) / 2^61), exact bits with a
tie broken by more bits (Knuth & Yao 1976).  A prefix of 2..8 shots keeps
as many shots as the first c bytes of one 64-bit word decide, and a larger
one draws a binomial.  The bytes and words, the tie doubles and the
binomials come from three generators spawned from ``SeedSequence(seed)``,
each read in ascending prefix order within an edge, so each seed gives one
fixed sample, whatever the slice size ``_DRAW_BLOCK``.

The split holds two int64 prefix arrays, allocated once at the most
prefixes the sample can reach, one byte of draws per live prefix and one
block of ``_DRAW_BLOCK`` temporaries.  The masks are then sorted in place,
each carrying its tally in its low bits (the masks are distinct), unless
|E| plus the bit length of the largest tally passes 63, when an argsort
index and two gathered copies are made.  A sample is the mask width |E|
plus two read-only int64 arrays, the distinct masks in ascending order and
their tallies; the ``counts`` dict view is built only when it is read.  The
JSON export is built in row blocks of ``_JSON_ROWS`` masks:
``sample_to_json`` joins them, at about two copies of its text, and the
``sample`` command writes them to stdout one at a time, at about one block.
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

_WORD_SHOTS = 8  # a prefix of 2.._WORD_SHOTS shots is split by the bytes of one word
# the low c bytes of a word of byte flags: bit 0 of each of the first c bytes
_FIRST_BYTES = np.array([0x0101_0101_0101_0101 & (1 << 8 * c) - 1
                         for c in range(_WORD_SHOTS + 1)], dtype="<u8")


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

    More exactly with probability ceil(p 2^61) / 2^61 (module docstring).
    ``threads`` must be at least 1 and has no effect: each seed gives one
    fixed sample.
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
    # child.  Per edge, one byte per prefix is drawn for the single-shot
    # prefixes, then one pass over slices of prefixes decides every prefix
    # in ascending order, appends the children and sets the edge bit.  Past
    # the table budget, the children are only counted, so a refusal names
    # the size the edge needed.
    words, doubles, counts = np.random.SeedSequence(seed).spawn(3)
    raw = np.random.PCG64(words).random_raw  # the bytes, and the words of 2..8 shots
    ties, binomials = np.random.default_rng(doubles), np.random.default_rng(counts)
    t = int(256 * p)  # a byte keeps the edge below t, and on t if a double is below
    frac = 256 * p - t  # exact (Sterbenz): 256p < t + 1 <= 2t for t >= 1
    size = min(shots, 1 << e, MAX_SAMPLE_PATTERNS)
    masks = np.empty(size, dtype=np.int64)
    tallies = np.empty(size, dtype=np.int64)
    masks[0], tallies[0] = 0, shots
    live = 1
    for k in range(e):
        draws = _bytes(raw(-(-live // 8)))  # one byte per prefix, read by the single-shot ones
        grown = live
        for a in range(0, live, _DRAW_BLOCK):
            b = min(a + _DRAW_BLOCK, live)
            keep = draws[a:b] < t
            block = a + np.flatnonzero(tallies[a:b] > 1)
            held = tallies[block]
            few = held <= _WORD_SHOTS
            rows = _bytes(raw(np.count_nonzero(few))).reshape(-1, 8)
            first = _FIRST_BYTES[held[few]]
            decided = rows < t
            if frac:  # a byte equal to t keeps the edge if its double is below frac
                lone = np.flatnonzero(draws[a:b] == t)
                lone = lone[tallies[a + lone] == 1]
                tied = rows == t
                tied.view("<u8")[:, 0] &= first
                cells = np.flatnonzero(tied)
                at = np.concatenate([a + lone << 3, block[few][cells >> 3] << 3 | cells & 7])
                won = np.empty(len(at), dtype=bool)  # the doubles go in (prefix, byte) order
                won[np.argsort(at)] = ties.random(len(at)) < frac
                keep[lone[won[:len(lone)]]] = True
                decided.ravel()[cells[won[len(lone):]]] = True
            if len(block):
                kept = np.empty_like(held)
                kept[few] = np.bitwise_count(decided.view("<u8")[:, 0] & first)
                kept[~few] = binomials.binomial(held[~few], p)
                whole = kept == held
                keep[block - a] = whole
                split = (kept > 0) & ~whole
                parents, children = block[split], kept[split]
                end = grown + len(parents)
                if end <= MAX_SAMPLE_PATTERNS:
                    tallies[parents] -= children
                    masks[grown:end] = masks[parents] | (1 << k)
                    tallies[grown:end] = children
                grown = end
            masks[a:b] |= keep * (1 << k)
        check_table(f"sample prefixes at edge {k + 1} of {e}", grown, 8)
        live = grown
    masks, tallies = masks[:live], tallies[:live]
    shift = int(tallies.max()).bit_length()
    if e + shift < 64:  # sort the masks in place, each carrying its tally in its low bits
        masks <<= shift
        masks |= tallies
        masks.sort()
        np.bitwise_and(masks, (1 << shift) - 1, out=tallies)
        masks >>= shift
    else:
        order = np.argsort(masks)
        masks = masks[order]  # one sorted copy at a time beside the prefix arrays
        tallies = tallies[order]
    masks.flags.writeable = tallies.flags.writeable = False
    return PreparationSample(shots=shots, seed=seed, width=e,
                             masks=masks, tallies=tallies)


def _bytes(words: np.ndarray) -> np.ndarray:
    """The bytes of 64-bit words, each word little-endian, without a copy on
    little-endian machines."""
    return words.astype("<u8", copy=False).view(np.uint8)


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
