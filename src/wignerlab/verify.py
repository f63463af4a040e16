"""Seeded witness search for metric properties of state maps.

Each check samples inputs, maps them, measures the relevant gap, and
reports a witness when the worst gap exceeds 1e-9.  Local refinement is
a pattern search that accepts only gains above REFINE_TOL (1e-12) and
stops once its step falls below REFINE_FLOOR (1e-10), after at most
refine_steps steps, or once its last REFINE_STALL_STEPS (10) gains
together raised the gap by less than REFINE_STALL_GAIN (3e-3) of it.  A
metric check climbs only from a proven witness, and refinement only
raises its gap, so that stop changes no verdict; a refined witness of
the bench's verify inputs, seeds 0-29, loses at most 3.9e-2 of its gap
(_refine_pair has the table, the README the command that regenerates
it).  A metric check that holds reports its scan winner unrefined: over
1 415 metric checks no climb from such a winner found a witness
(README).  Each refinement step maps one batch, its 8 * dim candidates.
Every check runs through one serial engine: sampling is split into
chunks of CHUNK_SIZE samples with RNG substreams derived from (seed,
chunk index), and the chunks run one after another, each mapped by one
map call (a wide map's in several batches of at most MAP_ENTRIES
entries).  A search ends after the first chunk whose winner proves a
witness: its gap exceeds WITNESS_TOL, and for a pair check its report
gap, measured again as the report measures it, exceeds WITNESS_TOL +
REFINE_TOL.  A report's samples counts the samples it compared, and the
report is the one of a search given exactly that budget.  A report that
holds compared its whole budget.  A metric or collision check's chunk of
count pairs takes L + 4 sample_pure_state draws, L = ceil(count / 4),
and pairs draw i with draws i + 1 to i + 4 for i < L, all pairs at
offset 1 first, cut to count, and a scan maps about a quarter of a state
per pair.  The metric checks move each odd draw 2m + 1 to within about
LOCAL_STEPS[m % 4] of draw 2m, its own Gaussian row serving as the move,
so a violation confined to a small cap needs one state in it, not two;
every other pair is still Haar x Haar (the per-pair cap law holds).  A
scan ranks pairs by sqrt(1 - transition probability), within 1e-12 of
the residual kernel (_row_distances) for pairs at least 1e-3 apart;
refinement and every report measure with the residual kernel.
Injectivity is a collision search on the same engine, with plain draws:
a scan winner that does not collide climbs and is polished by
Gauss-Newton on its images' difference (_least_squares), and while no
polished pair collides the other offset groups' scan winners are
polished in turn, best first; every stage keeps to pairs at least
COLLISION_D_IN apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import state_to_json
from .maps import StateMap
from .states import (
    GAUGE_TOL,
    OrthoSystem,
    PureState,
    _basis_system,
    _canonical_rows,
    _orthogonal_pair_rows,
    _overlapping,
    _pairwise_transition_probabilities,
    _row_distances,
    _row_overlaps,
    _row_transition_probabilities,
    _sample_state_rows,
    _trusted_state,
)

__all__ = [
    "WITNESS_TOL",
    "ViolationWitness",
    "CheckReport",
    "check_nonexpansive",
    "check_noncontractive",
    "check_isometry",
    "check_orthogonality_preserving",
    "check_inclusion_lemma",
    "check_injective",
    "find_cosp_in_image",
    "basis_image_completes_span",
]

WITNESS_TOL = 1e-9
CHUNK_SIZE = 2048
# a metric or collision scan pairs each of a chunk's first ceil(count /
# PAIR_OFFSETS) draws with each of its next PAIR_OFFSETS draws, all
# pairs at offset 1 first
PAIR_OFFSETS = 4
_PAIR_LAYOUT = tuple((0, k) for k in range(1, PAIR_OFFSETS + 1))
# a metric scan's draw 2m + 1 is draw 2m moved by about LOCAL_STEPS[m % 4]
LOCAL_STEPS = np.array([0.3, 0.1, 0.03, 0.01])
# entries (rows times row width) per map batch: bounds the temporaries of
# wide maps (separable_embed) without splitting narrow ones
MAP_ENTRIES = 16384
REFINE_START_STEP = 0.1
REFINE_SHRINK = 0.5
# a candidate must beat the current gap by more than rounding noise
REFINE_TOL = 1e-12
# refinement ends once the step is far below any witness gap
REFINE_FLOOR = WITNESS_TOL / 10
# a witness climb ends once its last REFINE_STALL_STEPS gains together
# raised its gap by less than REFINE_STALL_GAIN of itself.  It starts from
# the winner of the chunk that proved it, which sits lower than a whole
# budget's winner: at 1e-3 the 32-anchor separable_embed isometry climb
# took 33 to 166 steps, seed by seed
REFINE_STALL_STEPS = 10
REFINE_STALL_GAIN = 3e-3
# the Gauss-Newton polish of a collision: central-difference step, the
# relative singular-value cut of its lstsq, the line search's step lengths
# 1, 1/2, ..., 2**-15 and the iteration cap
LSQ_DIFF = 1e-7
LSQ_RCOND = 1e-6
LSQ_LENGTHS = 0.5 ** np.arange(16)
LSQ_ITERATIONS = 40
# the least d_in of a collision, in every stage of check_injective
COLLISION_D_IN = 0.5


@dataclass(frozen=True)
class ViolationWitness:
    """Input pair violating a metric property, with both distances."""

    P: PureState
    Q: PureState
    d_in: float
    d_out: float
    gap: float

    def to_json(self) -> dict:
        return {
            "P": state_to_json(self.P),
            "Q": state_to_json(self.Q),
            "d_in": self.d_in,
            "d_out": self.d_out,
            "gap": self.gap,
        }


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a seeded property check."""

    prop: str
    samples: int
    worst_gap: float
    witness: ViolationWitness | None
    seed: int

    @property
    def holds(self) -> bool:
        return self.witness is None

    def to_json(self) -> dict:
        return {
            "property": self.prop,
            "samples": self.samples,
            "worst_gap": self.worst_gap,
            "witness": None if self.witness is None else self.witness.to_json(),
            "seed": self.seed,
        }


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def _block_rows(width: int) -> int:
    """Rows of width entries that fit in MAP_ENTRIES entries, at least one."""
    return max(1, MAP_ENTRIES // width)


def _map_rows(map_: StateMap, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Images of canonical state rows, as an (n, dim_out) array.

    The one place the searches evaluate the map, in batches of at most
    MAP_ENTRIES entries: _block_rows(max(dim_in, dim_out)) rows, so a
    narrow map takes a whole chunk in one call.  StateMap.batch rejects
    an invalid image, so every returned row is a valid state.  The
    images are float64 while every batch is real: a complex batch
    promotes the rows before it to complex, so no imaginary part is
    dropped.  Given out, an array of at least n rows, the images are
    written into its first n rows, and that prefix view is returned,
    unless a complex batch meets a real out: then a new array is.
    """
    block = _block_rows(max(map_.dim_in, map_.dim_out))
    if out is None and 0 < len(rows) <= block:
        return map_.batch(rows)
    images = np.empty((len(rows), map_.dim_out)) if out is None else out[: len(rows)]
    for start in range(0, len(rows), block):
        batch = map_.batch(rows[start : start + block])
        if batch.dtype == complex and images.dtype != complex:
            promoted = np.empty(images.shape, dtype=complex)
            promoted[:start] = images[:start]
            images = promoted
        images[start : start + block] = batch
    return images


def _basis_prefix(map_: StateMap) -> tuple[np.ndarray, int]:
    """The images of the standard basis, mapped in one call, and k: the length
    of the longest basis prefix in which no two images overlap (_overlapping).

    An invalid image is an error (ValueError), never a short prefix.
    """
    images = _map_rows(map_, np.eye(map_.dim_in, dtype=complex))
    overlapping = _overlapping(images)
    return images, next((j for j in range(len(images)) if overlapping[j, :j].any()), len(images))


def _search(map_: StateMap, n_samples: int, seed: int, sample, gap, proven):
    """The serial search engine: worst gap over seeded samples, ending at the
    first chunk whose winner is a proven witness.

    sample(rng, count) -> (rows, layout), layout a tuple of offset
    groups: with L = ceil(count / len(layout)), sample s of the chunk is
    in group s // L and is rows (s mod L) + o for o in that group.  One
    group serves single states, ((0,),), and two blocks of count rows,
    ((0, count),); _PAIR_LAYOUT, ((0, 1), ..., (0, PAIR_OFFSETS)), pairs
    each of the first L of L + PAIR_OFFSETS rows with its next
    PAIR_OFFSETS rows, all pairs at offset 1 first.  gap(rows, images)
    -> the gaps of m samples given as k (m, dim) row views, the j-th
    holding row j of each sample.  Chunk i draws from the RNG substream
    (seed, i), and its rows are mapped by one _map_rows call.  Each
    offset group's gaps are measured by one gap call on contiguous row
    views, rows a + t against rows b + t.  Every gap kernel is an einsum
    row kernel, whose temporaries are length-m vectors (m x k overlaps
    with the k image members, for inclusion) and conjugate copies no
    larger than the chunk's rows and image block.  Each group's largest
    gap, the earliest of equal ones, replaces the winner only when it is
    strictly larger, so the earliest strictly largest gap in chunk order
    wins.  proven(winner) says whether a winner, a (gap, rows, images)
    triple, proves a witness of the caller's report; after each chunk
    that changes the overall winner, a proven one ends the search.
    Returns the worst gap with the (k, dim) input rows and image rows of
    its sample, the winner of each offset group under the same rule, a
    dict from group index to such a triple (the overall winner is one of
    them), and the number of samples compared.  A search that ends early is the search of that many
    samples: its chunks are the first chunks of every larger budget.

    Every chunk maps into one image block, allocated for the first and
    largest chunk: a multi-MB block freed after each chunk would go back
    to the OS and be faulted in again by the next.  The block takes the
    dtype of the first chunk's images, float64 for a real map, and is
    replaced once by a complex one if a later chunk's images are
    complex.  The winner's rows are copied out, so no result aliases
    the block.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if n_samples < 1:
        raise ValueError("sample budget must be at least 1")
    image_block, worst, groups, compared = None, (-np.inf, None, None), {}, 0
    for index in range(-(-n_samples // CHUNK_SIZE)):
        count = min(CHUNK_SIZE, n_samples - index * CHUNK_SIZE)
        before = worst
        rows, layout = sample(_chunk_rng(seed, index), count)
        images = _map_rows(map_, rows, image_block)
        if image_block is None or images.dtype != image_block.dtype:
            # the first chunk's images, or a block promoted to complex: no
            # later chunk is larger
            image_block = images
        span = -(-count // len(layout))
        for first in range(0, count, span):
            group = first // span
            offsets = layout[group]
            n = min(span, count - first)  # the last group may be cut short
            gaps = gap(*([a[o : o + n] for o in offsets] for a in (rows, images)))
            j = int(np.argmax(gaps))
            # a gap above the overall winner's is above its group winner's too
            if gaps[j] > groups.get(group, (-np.inf,))[0]:
                groups[group] = float(gaps[j]), *(np.array([a[j + o] for o in offsets]) for a in (rows, images))
                if gaps[j] > worst[0]:
                    worst = groups[group]
        del rows  # freed before the next chunk is drawn
        compared += count
        if worst is not before and proven(worst):
            break
    return worst, groups, compared


def _is_witness(winner) -> bool:
    """The proof test of a search whose report's gap is its scan winner's own gap."""
    return winner[0] > WITNESS_TOL


def _report(prop, n_samples, seed, worst, p, q, d_in, d_out) -> CheckReport:
    """The verdict of a search: the one place a gap becomes a witness."""
    worst = float(worst)
    witness = ViolationWitness(p, q, d_in, d_out, worst) if worst > WITNESS_TOL else None
    return CheckReport(prop, n_samples, worst, witness, seed)


def _pair_report(prop, n_samples, seed, gap_of, pair, images) -> CheckReport:
    """_report for a (2, dim) witness pair and its images, with gap gap_of(d_in, d_out)."""
    p, q = (_trusted_state(r) for r in pair)
    d_in, d_out = (float(_row_distances(r[:1], r[1:])[0]) for r in (pair, images))
    return _report(prop, n_samples, seed, gap_of(d_in, d_out), p, q, d_in, d_out)


# a step's four moves of a coordinate, +1, -1, +i and -i, as (re, im) parts
_MOVES = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def _move_table(dim: int) -> np.ndarray:
    """The (8 * dim, 2 * dim) float view of the unit moves of a step's candidates.

    Row (which, coord, move) holds the move's parts at coord and -0.0
    everywhere else: x + step * -0.0 is x itself, -0.0 included, so a
    candidate differs from its row only at coord, by the same parts as
    step * move in complex arithmetic.
    """
    table = np.full((2, dim, 4, dim, 2), -0.0)
    coords = np.arange(dim)
    table[:, coords, :, coords] = _MOVES
    return table.reshape(8 * dim, 2 * dim)


def _refine_pair(map_: StateMap, oriented, pair, images, steps: int):
    """Pattern search maximizing the oriented gap from a starting pair.

    Tries single-coordinate complex perturbations of both representative
    rows; the step starts at 0.1 and halves whenever no candidate
    improves.  Every candidate is renormalized and re-gauged, and each
    step maps one batch, its 8 * dim candidates.  When the step's
    best beats the current gap by more than REFINE_TOL, the first
    candidate within REFINE_TOL of that best in (which row, coordinate,
    +step, -step, +i step, -i step) order replaces its row, so a tie at
    the rounding level does not decide the pick.  The search stops once
    the step falls below REFINE_FLOOR, after steps steps, or once its last
    REFINE_STALL_STEPS gains together raised the gap by less than
    REFINE_STALL_GAIN of it: as every gain exceeds REFINE_TOL, never while
    the gap is at most 0, so a collision climb stalls only while d_in -
    10 d_out > 0, and an isometry's score, which stays negative, never
    does.  pair and images are (2, dim) row arrays, images real or
    complex; returns the final gap, pair, images and the number of steps
    used.

    A metric check climbs only from a proven witness, above WITNESS_TOL +
    REFINE_TOL, so the stop cannot change its verdict: the gap only rises,
    and REFINE_TOL is far wider than the rounding between this search's
    d(Q', P) and the report's d(P, Q') (about 1e-16).  What a metric
    witness gives up, as the share of the unstopped search's gap lost over
    the bench's verify inputs of seeds 0-29 (median, largest; the README
    gives the command that regenerates it):

        isometry, separable_embed dim 4, 32 anchors   9.0e-3  3.9e-2
        isometry, phi dim 2                           6.3e-8  1.3e-2
        noncontractive, phi dim 2                     5.3e-8  1.5e-3
        isometry, block_embed dim 3                   7.1e-5  3.7e-4
        nonexpansive, tau power2                      9.6e-9  1.8e-7
    """
    pair, images = pair.astype(complex), images.copy()
    parts = pair.view(float)  # the rows' (re, im) parts, updated with them
    dim = pair.shape[1]
    gap = oriented(
        _row_distances(pair[:1], pair[1:]), _row_distances(images[:1], images[1:])
    )[0]
    # candidate (which, coord, move) perturbs row which at coord; its
    # partner is the other row of the pair
    moves = _move_table(dim)
    which_row = np.repeat([0, 1], 4 * dim)
    partner = 1 - which_row
    step = REFINE_START_STEP
    used = 0
    # the gap before the first gain and after each gain
    climbed = [gap]
    while used < steps and step >= REFINE_FLOOR:
        if (
            len(climbed) > REFINE_STALL_STEPS
            and gap - climbed[-1 - REFINE_STALL_STEPS] < REFINE_STALL_GAIN * gap
        ):
            break
        used += 1
        cands = _canonical_rows((parts[which_row] + step * moves).view(complex))
        f_cands = _map_rows(map_, cands)
        gaps = oriented(
            _row_distances(cands, pair[partner]),
            _row_distances(f_cands, images[partner]),
        )
        top = gaps.max()
        if top <= gap + REFINE_TOL:
            step *= REFINE_SHRINK
            continue
        best = int((gaps >= top - REFINE_TOL).argmax())
        gap = gaps[best]
        climbed.append(gap)
        # a complex candidate image promotes real images
        images = images.astype(np.result_type(images, f_cands), copy=False)
        pair[which_row[best]], images[which_row[best]] = cands[best], f_cands[best]
    return gap, pair, images, used


def _least_squares(map_: StateMap, rows, residual, keep):
    """Gauss-Newton from k state rows, driving a residual of their images to zero.

    rows is a (k, dim) array.  residual(images) maps (n, k, dim_out) image
    rows to (n, m) real residuals, and keep(rows) says which of n
    candidate row sets, given as (n, k, dim), may be taken.  The variables
    are the 2 k dim real parts of the rows, and every candidate row is
    renormalized and re-gauged.  Each iteration maps one batch for the
    Jacobian, by central differences of LSQ_DIFF with each candidate
    perturbing one row, and solves for the step by lstsq with the cut
    LSQ_RCOND, which drops the directions normalization and gauge make
    flat, with their finite-difference noise.  One more batch tries the
    step at each length of LSQ_LENGTHS, and the first that lowers the
    squared residual and is kept is taken.  Stops when none is, when the
    residual is zero, or after LSQ_ITERATIONS iterations.  Every kernel
    works row by row, so no MAP_ENTRIES split can change a result.
    Returns the final rows and their images.
    """
    rows = rows.astype(complex)
    images = _map_rows(map_, rows)
    k, dim = rows.shape
    width = 2 * k * dim
    which = np.tile(np.repeat(np.arange(k), 2 * dim), 2)
    shifts = LSQ_DIFF * np.tile(np.eye(2 * dim), (k, 1))
    shifts = np.concatenate([shifts, -shifts])
    lengths = LSQ_LENGTHS[:, None, None]

    def costs(images):
        r = residual(images)
        return r, np.einsum("ij,ij->i", r, r)

    r, cost = (a[0] for a in costs(images[None]))
    for _ in range(LSQ_ITERATIONS):
        if cost == 0:
            break
        parts = rows.view(float)
        f_moved = _map_rows(map_, _canonical_rows((parts[which] + shifts).view(complex)))
        # a complex image of a moved row promotes real images
        moved = np.repeat(images[None], 2 * width, axis=0).astype(
            np.result_type(images, f_moved), copy=False
        )
        moved[np.arange(2 * width), which] = f_moved
        plus, minus = residual(moved).reshape(2, width, -1)
        jacobian = ((plus - minus) / (2 * LSQ_DIFF)).T
        step = -np.linalg.lstsq(jacobian, r, rcond=LSQ_RCOND)[0].reshape(k, 2 * dim)
        raw = (parts + lengths * step).view(complex)
        cands = _canonical_rows(raw.reshape(-1, dim)).reshape(len(LSQ_LENGTHS), k, dim)
        f_cands = _map_rows(map_, cands.reshape(-1, dim)).reshape(len(LSQ_LENGTHS), k, -1)
        r_cands, cost_cands = costs(f_cands)
        taken = (cost_cands < cost) & keep(cands)
        if not taken.any():
            break
        i = int(taken.argmax())
        rows, images, r, cost = cands[i], f_cands[i], r_cands[i], cost_cands[i]
    return rows, images


def _pair_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """The L + PAIR_OFFSETS state rows of a chunk of count pairs, L = ceil(count / PAIR_OFFSETS)."""
    return _sample_state_rows(rng, -(-count // PAIR_OFFSETS) + PAIR_OFFSETS, dim)


def _local_pair_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """_pair_rows with each odd row 2m + 1 moved to row 2m + LOCAL_STEPS[m % 4] z_m / sqrt(2 dim).

    One Gaussian block, the standard_normal((L + PAIR_OFFSETS, 2, dim))
    draw of _pair_rows, gives every row: raw row i is its (re, im) parts
    i.  Even rows are raw rows canonicalized, as in _pair_rows; odd row
    2m + 1 spends its own raw row as z_m, so no normal is drawn and
    dropped.  z_m is independent of every other row and its law is
    unitarily invariant, so every row is still Haar, and every pair but
    the local ones, at offset 1 from even rows, is Haar x Haar.
    """
    z = rng.standard_normal((-(-count // PAIR_OFFSETS) + PAIR_OFFSETS, 2, dim))
    rows = np.empty((len(z), dim), dtype=complex)
    rows.real, rows.imag = z[:, 0], z[:, 1]
    m = len(rows) // 2
    steps = LOCAL_STEPS[np.arange(m) % len(LOCAL_STEPS), None] / np.sqrt(2 * dim)
    rows[::2] = _canonical_rows(rows[::2])
    # the odd rows are still raw: each is its own move z_m
    rows[1::2] = _canonical_rows(rows[: 2 * m : 2] + steps * rows[1::2])
    return rows


def _pair_scan(
    map_: StateMap, dim: int, n_samples: int, refine_steps: int, seed: int, score, gap_of, draw
):
    """Scan pairs of draw's rows under score, ending at the first winner that proves a witness.

    draw is _pair_rows or _local_pair_rows; refine_steps, the caller's
    climb cap, is only checked.  The scan ranks a pair by score of
    sqrt(1 - transition probability) of its rows and of its images, an
    einsum row kernel under half the residual kernel's cost, within
    about 1e-15 / d of it at distance d.  A winner is proven once its
    score exceeds WITNESS_TOL and its report gap, gap_of(d_in, d_out) of
    its distances measured again with _row_distances as a climb and the
    report measure them, exceeds WITNESS_TOL + REFINE_TOL: a climb only
    raises that gap, and the margin covers the rounding between its
    d(Q', P) and the report's d(P, Q').  Returns the winner (score, pair
    rows, their images), the other offset groups' winners, best first,
    the pairs compared and whether the winner is proven.
    """
    if dim != map_.dim_in:
        raise ValueError(f"map domain dimension {map_.dim_in} does not match {dim}")
    if refine_steps < 0:
        raise ValueError("refinement cap must be nonnegative")

    def gap(rows, images):
        return score(*(np.sqrt(1.0 - _row_transition_probabilities(*r)) for r in (rows, images)))

    def proven(winner):
        # the scan's own score first, so no winner of a search that holds is measured again
        if not _is_witness(winner):
            return False
        _, rows, images = winner
        return gap_of(*(_row_distances(r[:1], r[1:])[0] for r in (rows, images))) > WITNESS_TOL + REFINE_TOL

    worst, groups, compared = _search(
        map_, n_samples, seed, lambda rng, count: (draw(rng, count, dim), _PAIR_LAYOUT), gap, proven
    )
    others = sorted((w for w in groups.values() if w is not worst), key=lambda w: -w[0])
    return worst, others, compared, proven(worst)


def _metric_check(
    prop: str, map_: StateMap, dim: int, n_samples: int, refine_steps: int, seed: int, oriented
) -> CheckReport:
    """Scan pairs, local ones included, under the oriented gap, climb from a proven winner, and report."""
    (_, pair, images), _, compared, proven = _pair_scan(
        map_, dim, n_samples, refine_steps, seed, oriented, oriented, _local_pair_rows)
    if proven and refine_steps > 0:
        _, pair, images, _ = _refine_pair(map_, oriented, pair, images, refine_steps)
    # the gap of the reported distances: refinement's d(Q', P) may differ from d(P, Q')
    return _pair_report(prop, compared, seed, oriented, pair, images)


def check_nonexpansive(
    map_: StateMap,
    dim: int,
    n_samples: int = 10000,
    *,
    refine_steps: int = 200,
    seed: int = 42,
) -> CheckReport:
    """Witness search for d(f(P), f(Q)) > d(P, Q)."""
    return _metric_check(
        "nonexpansive", map_, dim, n_samples, refine_steps, seed,
        lambda d_in, d_out: d_out - d_in,
    )


def check_noncontractive(
    map_: StateMap,
    dim: int,
    n_samples: int = 10000,
    *,
    refine_steps: int = 200,
    seed: int = 42,
) -> CheckReport:
    """Witness search for d(f(P), f(Q)) < d(P, Q)."""
    return _metric_check(
        "noncontractive", map_, dim, n_samples, refine_steps, seed,
        lambda d_in, d_out: d_in - d_out,
    )


def check_isometry(
    map_: StateMap,
    dim: int,
    n_samples: int = 10000,
    *,
    refine_steps: int = 200,
    seed: int = 42,
) -> CheckReport:
    """Witness search for |d(f(P), f(Q)) - d(P, Q)| > 0."""
    return _metric_check(
        "isometry", map_, dim, n_samples, refine_steps, seed,
        lambda d_in, d_out: abs(d_out - d_in),
    )


def check_orthogonality_preserving(
    map_: StateMap, dim: int, n_samples: int = 10000, *, seed: int = 42
) -> CheckReport:
    """Witness search for an orthogonal pair with non-orthogonal images.

    Pairs are drawn by Gram-Schmidt from two independent samples; the
    gap of a pair is the transition probability of the images.
    """
    if dim != map_.dim_in:
        raise ValueError(f"map domain dimension {map_.dim_in} does not match {dim}")

    def gap(rows, images):
        return _row_transition_probabilities(images[1], images[0])

    (worst, pair, images), _, compared = _search(map_, n_samples, seed, lambda rng, count: (
        _orthogonal_pair_rows(rng, count, dim), ((0, count),)), gap, _is_witness)
    return _pair_report("orthogonality-preserving", compared, seed, lambda *_: worst, pair, images)


def check_inclusion_lemma(
    map_: StateMap,
    preimages: OrthoSystem,
    n_samples: int = 1000,
    *,
    seed: int = 42,
) -> CheckReport:
    """Check that states dominated by the preimage sum stay dominated.

    Requires the image family to be an orthogonal system (validated
    first).  Samples states in the span of the preimages and measures
    gap = 1 - sum of transition probabilities to the image members,
    which must stay below 1e-9 for a nonexpansive map.  A witness is the
    state and its image, with d_in 1 and d_out the covered weight.
    """
    if preimages.dim != map_.dim_in:
        raise ValueError("preimage system dimension does not match the map domain")
    span_basis = preimages.rows
    image_rows = _map_rows(map_, span_basis)
    if _overlapping(image_rows).any():
        raise ValueError("the image of the preimage system is not orthogonal")

    def covered(images):
        return np.sum(_pairwise_transition_probabilities(images, image_rows), axis=1)

    def sample(rng, count):
        z = rng.standard_normal((2, count, len(preimages)))
        return _canonical_rows(np.einsum("ij,jk->ik", z[0] + 1j * z[1], span_basis)), ((0,),)

    (worst, state, image), _, compared = _search(
        map_, n_samples, seed, sample, lambda rows, images: 1.0 - covered(images[0]), _is_witness
    )
    return _report(
        "inclusion", compared, seed, worst,
        _trusted_state(state[0]), _trusted_state(image[0]), 1.0, float(covered(image)[0]),
    )


def _collision_score(d_in, d_out):
    """check_injective's ranking: a pair at least COLLISION_D_IN apart scores above every closer pair."""
    return np.where(d_in >= COLLISION_D_IN, d_in - 10 * d_out, d_in - 11)


def _collision_gap(d_in, d_out):
    """check_injective's report gap: d_in for a collision, else -d_out, or -1.0 below COLLISION_D_IN."""
    return -1.0 if d_in < COLLISION_D_IN else d_in if d_out <= WITNESS_TOL else -d_out


def check_injective(
    map_: StateMap, dim: int, n_samples: int = 10000, *, refine_steps: int = 200, seed: int = 42
) -> CheckReport:
    """Collision search for d(P, Q) >= COLLISION_D_IN with d(f(P), f(Q)) <= WITNESS_TOL.

    Scans pairs under one ranking: a pair at least COLLISION_D_IN apart
    scores d_in - 10 d_out, above every closer pair.  A scan winner that
    collides ends the scan and is reported as it is.  Otherwise the winner
    climbs under the ranking, and _least_squares polishes the pair on the
    images' phase-free difference, keeping d_in at or above
    COLLISION_D_IN.  If that pair is no witness, the scan winners of the
    other offset groups are polished the same way, best first, and the
    first witness among them is reported; if none is, the first polished
    pair is.  A witness proves the map is not injective, and its gap is
    its d_in; a pass is evidence only, and its gap is minus the closest
    image distance found for two states at least COLLISION_D_IN apart, or
    -1.0 (no two images are farther apart) when the final pair is closer
    than that.
    """
    (_, pair, images), others, compared, proven = _pair_scan(
        map_, dim, n_samples, refine_steps, seed, _collision_score, _collision_gap, _pair_rows)
    if refine_steps > 0 and not proven:
        _, pair, images, _ = _refine_pair(map_, _collision_score, pair, images, refine_steps)

        def difference(images):
            # F(y) c - F(x), c the phase of <F(y), F(x)>, so the images' gauge drops out
            x, y = images[:, 0], images[:, 1]
            overlaps = _row_overlaps(x, y)
            moduli = np.abs(overlaps)
            phases = np.divide(overlaps, moduli, out=np.ones_like(overlaps), where=moduli > 0)
            return np.asarray(y * phases[:, None] - x, dtype=complex).view(float)

        def polish(rows):
            rows, images = _least_squares(
                map_, rows, difference,
                lambda rows: _row_distances(rows[:, 0], rows[:, 1]) >= COLLISION_D_IN,
            )
            d_in, d_out = (_row_distances(r[:1], r[1:])[0] for r in (rows, images))
            return rows, images, d_in >= COLLISION_D_IN and d_out <= WITNESS_TOL

        pair, images, collides = polish(pair)
        for _, rows, _ in () if collides else others:
            *polished, collides = polish(rows)
            if collides:
                pair, images = polished
                break
    return _pair_report("injectivity", compared, seed, _collision_gap, pair, images)


def basis_image_completes_span(map_: StateMap) -> bool:
    """Subspace-completeness probe, read from the black box alone.

    With k the longest basis prefix whose images do not overlap, True when
    those k images lie in the span of the first k basis vectors, so that
    they are a complete orthogonal system of that span.
    """
    images, k = _basis_prefix(map_)
    return bool(np.all(np.abs(images[:k, k:]) <= GAUGE_TOL))


# the checks that give a CheckReport, as `verify --property` and acceptance.CLAIMS name them
_REPORT_CHECKS = {
    "nonexpansive": check_nonexpansive,
    "noncontractive": check_noncontractive,
    "isometry": check_isometry,
    "orthogonality": lambda map_, dim, n_samples, *, refine_steps, seed: (
        check_orthogonality_preserving(map_, dim, n_samples, seed=seed)
    ),
    "injectivity": check_injective,
}


def _run_check(name, map_, dim, samples, seed, refine_steps):
    """One check of a map by name, as a claim declares it or `verify --property` asks:
    a name of _REPORT_CHECKS or "cosp_image".

    Returns whether it holds, its report, its demo-bundle JSON (None: the
    check shows in the summary only) and its summary label on failure.
    """
    if name == "cosp_image":
        complete = basis_image_completes_span(map_)
        return complete, complete, None, "fail"
    report = _REPORT_CHECKS[name](map_, dim, samples, refine_steps=refine_steps, seed=seed)
    return report.holds, report, report.to_json(), "witness"


def find_cosp_in_image(map_: StateMap, dim: int) -> OrthoSystem | None:
    """The standard basis if its image is a complete orthogonal system, else None.

    The basis is mapped once; an invalid image is an error (ValueError).
    """
    if map_.dim_in != dim or map_.dim_out != dim:
        raise ValueError("COSP search requires an endomap of the given dimension")
    return _basis_system(dim) if _basis_prefix(map_)[1] == dim else None
