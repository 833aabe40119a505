"""Monte Carlo simulation of the probabilistic edge-creation channel.

The per-edge gates all commute and each keeps its edge independently with
probability p, so the mask histogram of ``shots`` preparation runs is one
multinomial draw over edge masks.  It is drawn by splitting the shot count
edge by edge over prefixes, the distinct masks so far and their tallies.  A
prefix of more than ``_SPLIT_SHOTS`` shots, or of more than 2^r with r
edges left, is split at each edge by a binomial.  A smaller one leaves the
split as that many single shots, each deciding its r edges at once on the
first r bytes of its own ceil(r / 8) random words: with t = floor(256p), a
byte keeps its edge when it is below t, or equals t and a double is below
256p - t.  That is Bernoulli(ceil(p 2^61) / 2^61), exact bits with a tie
broken by more bits (Knuth & Yao 1976).  Shots of one prefix that drew the
same edges are joined before they are stored, so every stored mask is
distinct.  The words, the tie doubles and the binomials come from three
generators spawned from ``SeedSequence(seed)``, each read in ascending
prefix (and shot, and edge) order within an edge, so each seed gives one
fixed sample, whatever the slice sizes ``_DRAW_BLOCK`` and ``_EXPAND_BLOCK``.

The live prefixes and the finished masks are two pairs of int64 arrays,
each allocated once at the most entries the sample can reach (a prefix of c
shots adds at most min(c, 2^r) masks), beside one slice of temporaries.
The masks are then sorted in place, each carrying its tally in its low
bits (the masks are distinct), unless |E| plus the bit length of the
largest tally passes 63, when an argsort index and two gathered copies are
made.  A sample is the mask width |E| plus two read-only int64 arrays, the
distinct masks in ascending order and their tallies; the ``counts`` dict
view is built only when it is read.  The JSON export is built in row
blocks of ``_JSON_ROWS`` masks: ``sample_to_json`` joins them, at about two
copies of its text, and the ``sample`` command writes them to stdout one at
a time, at about one block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MAX_TABLE_BYTES, SizeLimitError, _check_p, check_table
from .graph import Graph
from .density import DensityMatrix, subgraph_mixture
from .state import _WORD_EDGES

MAX_SAMPLE_PATTERNS = MAX_TABLE_BYTES // 8  # sample entries: masks and tallies are a table each
_SPLIT_SHOTS = 64  # a prefix of more shots, or of more than 2^(edges left), draws binomials
_DRAW_BLOCK = 1 << 16  # prefixes per slice of the per-edge split, masks per merge slice
_EXPAND_BLOCK = 1 << 10  # prefixes per block of the expansion into single shots
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


def _check_width(edges: int) -> None:
    if edges > _WORD_EDGES:  # a mask is one nonnegative int64 word
        raise SizeLimitError(f"sampling capped at |E|={_WORD_EDGES}, got {edges}")


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
    _check_width(e)

    # Live prefixes: masks over edges 0..k-1 and how many shots share each,
    # in the first ``live`` slots of their own two arrays; finished masks fill
    # the first ``done`` slots of the sample's arrays.  Per edge, one pass over
    # slices of live prefixes expands each prefix of at most ``cap`` shots
    # into single shots, then splits the others by binomials: a prefix whose
    # shots all go one way is updated, one that splits keeps its dropped shots
    # and appends its kept ones as a child, and the kept prefixes move down
    # over the expanded ones.  Past the table budget, the entries are only
    # counted, so a refusal names the size the edge needed; a pass never
    # holds more entries than the edge ends with, as each expanded prefix
    # leaves at least one distinct mask.
    words, doubles, counts = np.random.SeedSequence(seed).spawn(3)
    raw = np.random.PCG64(words).random_raw
    ties, binomials = np.random.default_rng(doubles), np.random.default_rng(counts)
    t = int(256 * p)  # a byte keeps the edge below t, and on t if a double is below
    frac = 256 * p - t  # exact (Sterbenz): 256p < t + 1 <= 2t for t >= 1
    size = min(shots, 1 << e, MAX_SAMPLE_PATTERNS)
    masks = np.empty(size, dtype=np.int64)
    tallies = np.empty(size, dtype=np.int64)
    live_masks = np.empty(size, dtype=np.int64)
    live_tallies = np.empty(size, dtype=np.int64)
    live_masks[0], live_tallies[0] = 0, shots
    live, done = 1, 0
    for k in range(e):
        cap = min(_SPLIT_SHOTS, 1 << e - k)  # at most one shot per completion
        staying, grown = 0, live  # ends of the prefixes staying live and of the children
        for a in range(0, live, _DRAW_BLOCK):
            b = min(a + _DRAW_BLOCK, live)
            m, c = live_masks[a:b], live_tallies[a:b]
            leave = c <= cap
            if leave.any():
                for drawn, held in _expand(m[leave], c[leave], k, e - k,
                                           raw, ties, t, frac):
                    end = done + len(drawn)
                    if end <= size:
                        masks[done:end], tallies[done:end] = drawn, held
                    done = end
                m, c = m[~leave], c[~leave]
            kept = binomials.binomial(c, p)
            split = (kept > 0) & (kept < c)
            end = grown + int(np.count_nonzero(split))
            if end <= size:
                live_masks[grown:end] = m[split] | 1 << k
                live_tallies[grown:end] = kept[split]
            grown = end
            end = staying + len(c)
            live_masks[staying:end] = np.where(kept == c, m | 1 << k, m)
            live_tallies[staying:end] = np.where(split, c - kept, c)
            staying = end
        end = staying + grown - live
        check_table(f"sample prefixes at edge {k + 1} of {e}", done + end, 8)
        live_masks[staying:end] = live_masks[live:grown]  # the children follow
        live_tallies[staying:end] = live_tallies[live:grown]
        live = end
    end = done + live
    masks[done:end], tallies[done:end] = live_masks[:live], live_tallies[:live]
    del live_masks, live_tallies
    masks, tallies = masks[:end], tallies[:end]
    shift = int(tallies.max()).bit_length()
    if e + shift < 64:  # sort the masks in place, each carrying its tally in its low bits
        masks <<= shift
        masks |= tallies
        masks.sort()
        np.bitwise_and(masks, (1 << shift) - 1, out=tallies)
        masks >>= shift
    else:
        order = np.argsort(masks)
        masks = masks[order]  # one sorted copy at a time beside the unsorted ones
        tallies = tallies[order]
    masks.flags.writeable = tallies.flags.writeable = False
    return PreparationSample(shots=shots, seed=seed, width=e,
                             masks=masks, tallies=tallies)


def _expand(prefixes, held, k, rest, raw, ties, t, frac):
    """The single shots of each prefix of ``prefixes``, ``held`` of them,
    per block of ``_EXPAND_BLOCK`` prefixes: its distinct masks, ascending,
    and their tallies.  Each shot decides its ``rest`` remaining edges k,
    k + 1, ... on the first ``rest`` bytes of its own ceil(rest / 8) words,
    with the tie doubles drawn in (shot, edge) order."""
    row = -(-rest // 8)  # words per shot, and bytes of its packed decisions
    for i in range(0, len(prefixes), _EXPAND_BLOCK):
        c = held[i:i + _EXPAND_BLOCK]
        n = int(c.sum())
        draws = _bytes(raw(n * row))
        keep = np.zeros(len(draws) + 64, dtype=bool)  # 8 bytes of padding once packed
        np.less(draws, t, out=keep[:len(draws)])
        if frac:
            tied = np.flatnonzero(draws == t)
            tied = tied[tied % (8 * row) < rest]
            keep[tied[ties.random(len(tied)) < frac]] = True
        # each shot's word is read from its first packed byte: its own
        # decisions in the low ``rest`` bits, then bits masked off (its unread
        # bytes, the next shot's, the padding)
        packed = np.packbits(keep, bitorder="little")
        drawn = np.ndarray(n, dtype="<i8", buffer=packed, strides=(row,))
        drawn = (drawn & (1 << rest) - 1) << k
        drawn |= np.repeat(prefixes[i:i + _EXPAND_BLOCK], c)
        yield np.unique(drawn, return_counts=True)  # siblings that drew the same edges


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
