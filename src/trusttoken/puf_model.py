"""Behavioral ring-oscillator PUF model.

A virtual chip is a vector of oscillator base frequencies drawn from a
seeded process-variation distribution.  A 2-byte challenge selects 256
disjoint oscillator pairs; each response bit is the frequency comparison
of one pair.  Standard quality metrics (uniqueness, randomness,
reliability) are computed from populations of such chips.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Salt constants keep the independent RNG streams (pairing, measurement,
# provisioning) from colliding when raw seed values coincide.
_PAIRING_SALT = 0x5041
_MEASUREMENT_SALT = 0x4D45

# Fraction of the measurement-noise variance that is common-mode across all
# oscillators of one measurement (shared supply/temperature jitter).  The
# differential pair comparison cancels the common part, which is what makes
# RO-PUF readout stable in practice.
_COMMON_MODE_VARIANCE_FRACTION = 0.9

_U64_MAX = 2**64 - 1

# Hash constants of numpy's SeedSequence (numpy/random/bit_generator.pyx),
# which _seed_states reproduces in array form.
_MASK32 = 0xFFFFFFFF
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SS_XSHIFT = np.uint32(16)
_SS_POOL_SIZE = 4

# numpy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG with this
# multiplier, whose output is XSL-RR of the stepped state.  _first_draws
# runs it on uint64 hi/lo arrays, where a product's high word comes from
# 32-bit limbs.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _U64_MAX)
_LIMB_LO, _LIMB_HI = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)
_U32_MASK, _U64_32, _U64_1 = np.uint64(_MASK32), np.uint64(32), np.uint64(1)
_U64_63, _U64_64, _XSL_RR_ROT = np.uint64(63), np.uint64(64), np.uint64(122 - 64)
# Fields of one draw of numpy's ziggurat (random_standard_normal in
# distributions.c): layer index, sign bit, 52-bit magnitude.
_ZIG_LAYER, _ZIG_SIGN = np.uint64(0xFF), np.uint64(0x100)
_ZIG_SHIFT, _ZIG_MAG = np.uint64(9), np.uint64(2**52 - 1)
_ZIG_TOP_LAYER = 1  # under the apex: no rectangle part, never accepted at once
_KI_MARGIN = 16  # units of 2**-52 kept below each layer's acceptance bound

# _manufacture's pass size: 8 default chips.  One pass over a 100-chip
# campaign's 51,200 oscillators was slower and held 7 MB more at its peak.
_PASS_OSCILLATORS = 4096
# The most pairwise distances one campaign may hold (a puf-eval of 100 chips
# x 16 challenges holds 79,200).
_MAX_CAMPAIGN_DISTANCES = 2**24


def _check_u64(value: int, name: str) -> int:
    if not isinstance(value, int) or not 0 <= value <= _U64_MAX:
        raise ParameterError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return value


@dataclass(frozen=True)
class PufParams:
    """Static parameters of the simulated oscillator array."""

    oscillator_count: int = 512
    response_bits: int = 256
    nominal_frequency: float = 100e6
    process_variation_sigma: float = 2e6
    noise_sigma: float = 0.0

    def __post_init__(self):
        for name in ("oscillator_count", "response_bits"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        # Bounds each chip's arrays, and keeps response_bits <= 2**15, so that
        # evaluate_population's uint16 counts and distances stay exact.
        if self.oscillator_count > 2**16:
            raise ParameterError(
                f"oscillator_count must be at most 2**16, got {self.oscillator_count}"
            )
        for name in ("nominal_frequency", "process_variation_sigma", "noise_sigma"):
            value = getattr(self, name)
            if isinstance(value, bool) or not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if self.oscillator_count < 2 or self.response_bits < 1:
            raise ParameterError("oscillator_count and response_bits must be positive")
        if self.oscillator_count < 2 * self.response_bits:
            raise ParameterError(
                "oscillator_count must be at least 2 x response_bits "
                f"({self.oscillator_count} < {2 * self.response_bits})"
            )
        if self.process_variation_sigma <= 0:
            raise ParameterError("process_variation_sigma must be > 0")
        if not math.isfinite(self.nominal_frequency + 40 * self.process_variation_sigma):
            raise ParameterError("process_variation_sigma must keep nominal_frequency + 40 sigma "
                                 f"finite, got {self.process_variation_sigma!r}")
        if self.noise_sigma < 0:
            raise ParameterError("noise_sigma must be >= 0")
        if self.noise_sigma >= self.process_variation_sigma:
            raise ParameterError("noise_sigma must be smaller than process_variation_sigma")


@dataclass(frozen=True, eq=False)
class ChipFingerprint:
    """One virtual die: per-oscillator base frequencies, fixed at 'manufacture'
    (a read-only float64 array)."""

    chip_seed: int
    base_frequencies: np.ndarray


@dataclass(frozen=True)
class Response:
    """Fixed-width response, packed into an int whose most significant bit
    is bit 0 of the readout."""

    bits: int
    width: int

    def __post_init__(self):
        if not isinstance(self.width, int) or self.width < 1:
            raise ParameterError(f"response width must be a positive integer, got {self.width!r}")
        if not isinstance(self.bits, int) or not 0 <= self.bits < 1 << self.width:
            raise ParameterError(f"response bits must be an int of {self.width} bits")


def _hash_constants(const: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of SeedSequence's first count hash
    steps from const, as uint32 column vectors (one row per step)."""
    xors = []
    for _ in range(count):
        xors.append(const)
        const = const * mult & _MASK32
    muls = xors[1:] + [const]
    return np.array(xors, dtype=np.uint32)[:, None], np.array(muls, dtype=np.uint32)[:, None]


# Pool hashing takes the first _SS_POOL_SIZE steps of A and mixing the
# next 12 (3 per source word); the 8 output words take those of B.
_SS_HASH_A = _hash_constants(_SS_INIT_A, _SS_MULT_A, _SS_POOL_SIZE * _SS_POOL_SIZE)
_SS_HASH_B = _hash_constants(_SS_INIT_B, _SS_MULT_B, 2 * _SS_POOL_SIZE)


def _hash(value: np.ndarray, constants, steps: slice) -> np.ndarray:
    """value hashed by each of the given steps, one row per step."""
    xor, mul = constants
    value = (value ^ xor[steps]) * mul[steps]
    return value ^ (value >> _SS_XSHIFT)


def _pool_hash(entropy: np.ndarray) -> np.ndarray:
    """Row j is SeedSequence(e).generate_state(4, np.uint64), where e is
    column j of entropy, a (_SS_POOL_SIZE, n) uint32 array of 32-bit entropy
    words, least significant first and zero-padded as SeedSequence pads
    them: one pass of SeedSequence's pool hash over uint32 arrays (wrapping
    arithmetic)."""
    pool = _hash(entropy, _SS_HASH_A, slice(0, _SS_POOL_SIZE))
    for src in range(_SS_POOL_SIZE):
        # src's hash steps feed the other words in order; src is not changed
        dst = [d for d in range(_SS_POOL_SIZE) if d != src]
        first = _SS_POOL_SIZE + len(dst) * src
        hashed = _hash(pool[src], _SS_HASH_A, slice(first, first + len(dst)))
        mixed = _SS_MIX_L * pool[dst] - _SS_MIX_R * hashed
        pool[dst] = mixed ^ (mixed >> _SS_XSHIFT)
    state = _hash(np.tile(pool, (2, 1)), _SS_HASH_B, slice(None))  # row k hashes pool[k % 4]
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def _seed_states(chip_seeds, count: int) -> np.ndarray:
    """Row k * count + i is SeedSequence([chip_seeds[k], i]).generate_state(4,
    np.uint64), for every i in range(count), from one _pool_hash.
    SeedSequence's entropy words are [lo, i, 0, 0] for a seed below 2**32,
    else [lo, hi, i, 0].  Needs count <= 2**32, so that each i is a single
    word."""
    seeds = np.array(chip_seeds, dtype=np.uint64)[:, None]
    hi = (seeds >> _U64_32).astype(np.uint32)
    index = np.arange(count, dtype=np.uint32)
    two_words = hi != 0
    entropy = np.zeros((_SS_POOL_SIZE, len(seeds), count), dtype=np.uint32)
    entropy[0] = seeds & _U32_MASK
    entropy[1] = np.where(two_words, hi, index)
    entropy[2] = np.where(two_words, index, 0)
    return _pool_hash(entropy.reshape(_SS_POOL_SIZE, -1))


@functools.cache
def _seeded_rng():
    """words -> the Generator that default_rng builds from the seed whose
    generate_state(4, np.uint64) is words: new_chip's exact path for a
    draw outside the ziggurat's fast path.  Built on first use, so that
    importing this module does not import numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """Precomputed seed words; PCG64 asks for exactly 4 uint64 words."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: Generator(PCG64(SeedWords(words)))


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """(wi, ki) of numpy's normal ziggurat: wi[idx] is layer idx's width,
    read from the installed numpy, and a draw of layer idx whose magnitude
    is below ki[idx] is one that numpy accepts at once (ki is kept
    _KI_MARGIN below numpy's own bound).  numpy does not export its
    tables, so wi[idx] is probed: with PCG64's state set so that the next
    raw draw is 1 << 9 | idx (magnitude 1, sign +, layer idx),
    standard_normal() returns 1 * wi[idx].  Probed on first use, so that
    importing this module does not import numpy.random."""
    from numpy.random import PCG64, Generator

    bit_generator = PCG64(0)
    normal = Generator(bit_generator).standard_normal
    inverse = pow(_PCG_MULT, -1, 1 << 128)
    wi = np.empty(256)
    for idx in range(256):
        # inc 1: this state steps to 1 << 9 | idx, whose high word 0 makes
        # XSL-RR output it unchanged
        state = ((1 << 9 | idx) - 1) * inverse % (1 << 128)
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": 1},
                               "has_uint32": 0, "uinteger": 0}
        wi[idx] = normal()
    # A draw of layer idx is accepted at once when its magnitude times
    # wi[idx] is inside the next narrower layer (layer 0, the base strip,
    # continues at layer 255).
    ki = np.floor(np.roll(wi, 1) / wi * 2.0**52) - _KI_MARGIN
    ki[_ZIG_TOP_LAYER] = 0
    ki = ki.astype(np.uint64)
    wi.flags.writeable = ki.flags.writeable = False  # shared by every call
    return wi, ki


def _add128(a_hi, a_lo, b_hi, b_lo):
    """a + b (mod 2**128), on hi/lo uint64 arrays."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * _PCG_MULT + inc (mod 2**128), on hi/lo uint64 arrays."""
    lo_lo, lo_hi = lo & _U32_MASK, lo >> _U64_32
    cross_a, cross_b = lo_hi * _LIMB_LO, lo_lo * _LIMB_HI
    mid = (lo_lo * _LIMB_LO >> _U64_32) + (cross_a & _U32_MASK) + (cross_b & _U32_MASK)
    carry = lo_hi * _LIMB_HI + (cross_a >> _U64_32) + (cross_b >> _U64_32) + (mid >> _U64_32)
    return _add128(carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO, lo * _PCG_MULT_LO,
                   inc_hi, inc_lo)


def _first_draws(states: np.ndarray) -> np.ndarray:
    """The first next_uint64 of PCG64 seeded with each row of states (as
    from _seed_states): numpy's seeding, inc = initseq << 1 | 1 and state =
    (inc + initstate) * MULT + inc, then one step and its XSL-RR output."""
    init_hi, init_lo, seq_hi, seq_lo = states.T
    inc_hi = seq_hi << _U64_1 | seq_lo >> _U64_63
    inc_lo = seq_lo << _U64_1 | _U64_1
    hi, lo = _add128(inc_hi, inc_lo, init_hi, init_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    mixed, rot = hi ^ lo, hi >> _XSL_RR_ROT
    return mixed >> rot | mixed << (_U64_64 - rot & _U64_63)


def _manufacture(chip_seeds, params: PufParams) -> np.ndarray:
    """The base frequencies of the chips with the given seeds, one row per
    chip (a read-only float64 array): frequency i of a chip is what the
    generator default_rng([chip_seed, i]) of oscillator i draws,
    normal(nominal, sigma), so regeneration is bit-identical.  Each pass
    over whole chips, of at most _PASS_OSCILLATORS oscillators (or one chip
    when a chip has more), computes every oscillator's seed words
    (_seed_states) and first PCG64 draw (_first_draws) and maps the draw as
    numpy's ziggurat does; the few draws outside its fast path (the tail,
    the top layer, draws near a bound) are redrawn by the oscillator's own
    Generator."""
    for chip_seed in chip_seeds:
        _check_u64(chip_seed, "chip_seed")
    wi, ki = _ziggurat()
    seeded_rng = _seeded_rng()
    nominal, sigma = float(params.nominal_frequency), float(params.process_variation_sigma)
    count = params.oscillator_count
    freqs = np.empty((len(chip_seeds), count))
    per_pass = max(1, _PASS_OSCILLATORS // count)
    for start in range(0, len(chip_seeds), per_pass):
        states = _seed_states(chip_seeds[start : start + per_pass], count)
        draws = _first_draws(states)
        layer = (draws & _ZIG_LAYER).astype(np.intp)
        magnitude = draws >> _ZIG_SHIFT & _ZIG_MAG
        z = magnitude * wi[layer]
        np.negative(z, out=z, where=(draws & _ZIG_SIGN).astype(bool))
        out = freqs[start : start + per_pass].reshape(-1)  # a view: the rows are contiguous
        out[:] = nominal + (0.0 + sigma * z)  # numpy's normal is loc + scale * z
        for i in np.flatnonzero(magnitude >= ki[layer]).tolist():
            out[i] = nominal + seeded_rng(states[i]).normal(0.0, sigma)
    freqs.flags.writeable = False
    return freqs


def new_chip(chip_seed: int, params: PufParams) -> ChipFingerprint:
    """Manufacture one chip: row 0 of _manufacture([chip_seed], params)."""
    return ChipFingerprint(chip_seed, _manufacture([chip_seed], params)[0])


def _check_challenge(challenge: int) -> None:
    if not isinstance(challenge, int) or not 0 <= challenge <= 0xFFFF:
        raise ParameterError(f"challenge must fit in 2 bytes, got {challenge!r}")


def _check_chip(chip: ChipFingerprint, params: PufParams) -> None:
    if len(chip.base_frequencies) != params.oscillator_count:
        raise ParameterError("chip was generated with different params")


def challenge_pairs(challenge: int, params: PufParams) -> np.ndarray:
    """Deterministic mapping from a 2-byte challenge, an int in 0..0xFFFF,
    to response_bits disjoint oscillator index pairs (shape
    (response_bits, 2)).  Every response path maps its challenge here."""
    _check_challenge(challenge)
    rng = np.random.default_rng([challenge, _PAIRING_SALT])
    perm = rng.permutation(params.oscillator_count)
    return perm[: 2 * params.response_bits].reshape(params.response_bits, 2)


def _response_bits(freqs: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The response rule, for one chip's frequencies or a stack of them
    (one chip per row) under one pairing, or for one chip under a stack of
    pairings (one challenge per row): bit j is 1 iff the frequency of pair
    j's first oscillator exceeds that of its second, so exact ties give 0."""
    return freqs[..., pairs[..., 0]] > freqs[..., pairs[..., 1]]


def _stacked_pairs(challenges, params: PufParams) -> np.ndarray:
    """challenge_pairs of each challenge, stacked (shape (len(challenges),
    response_bits, 2)): the seed words of every default_rng([challenge,
    _PAIRING_SALT]) come from one _pool_hash (entropy [challenge, salt, 0,
    0]), and each challenge's generator then draws its permutation."""
    entropy = np.zeros((_SS_POOL_SIZE, len(challenges)), dtype=np.uint32)
    entropy[0] = challenges
    entropy[1] = _PAIRING_SALT
    seeded_rng = _seeded_rng()
    count, width = params.oscillator_count, params.response_bits
    pairs = np.empty((len(challenges), 2 * width), dtype=np.int64)
    for row, words in zip(pairs, _pool_hash(entropy)):
        row[:] = seeded_rng(words).permutation(count)[: 2 * width]
    return pairs.reshape(-1, width, 2)


def noiseless_responses(chip: ChipFingerprint, challenges, params: PufParams) -> list[int]:
    """The noiseless response of the chip to each challenge, packed as
    measure_response packs it: measure_response(chip, c, 0, params with
    noise_sigma 0).bits for each c, in order.  One batched pairing
    (_stacked_pairs) and one comparison pass serve every challenge; for a
    single challenge, measure_response is the faster path."""
    _check_chip(chip, params)
    for challenge in challenges:
        _check_challenge(challenge)
    above = _response_bits(chip.base_frequencies, _stacked_pairs(challenges, params))
    packed = np.packbits(above, axis=-1)
    data, size = packed.tobytes(), packed.shape[-1]
    shift = -params.response_bits % 8  # packbits' zero fill in each row's last byte
    return [int.from_bytes(data[i : i + size], "big") >> shift for i in range(0, len(data), size)]


def measure_response(
    chip: ChipFingerprint,
    challenge: int,
    measurement_seed: int,
    params: PufParams,
) -> Response:
    """One readout of the chip for the given challenge.

    bit_j = 1 iff observed frequency of pair element a exceeds that of b;
    exact ties give 0; bit 0 is the most significant bit of the result.
    Measurement noise is drawn per (seed, challenge) with per-oscillator
    sigma = noise_sigma, split into a common-mode part and an independent
    part.
    """
    _check_u64(measurement_seed, "measurement_seed")
    _check_chip(chip, params)
    pairs = challenge_pairs(challenge, params)
    observed = chip.base_frequencies
    if params.noise_sigma > 0:
        rng = np.random.default_rng([measurement_seed, challenge, _MEASUREMENT_SALT])
        common = rng.normal(0.0, math.sqrt(_COMMON_MODE_VARIANCE_FRACTION) * params.noise_sigma)
        individual = rng.normal(
            0.0,
            math.sqrt(1.0 - _COMMON_MODE_VARIANCE_FRACTION) * params.noise_sigma,
            size=params.oscillator_count,
        )
        observed = observed + common + individual
    above = _response_bits(observed, pairs)
    width = params.response_bits
    # packbits fills the last byte's low bits with zeros: shift them off
    packed = int.from_bytes(np.packbits(above).tobytes(), "big")
    return Response(packed >> -width % 8, width)


def hamming_distance(a: Response, b: Response) -> int:
    """Number of differing bits between two equal-width responses."""
    if a.width != b.width:
        raise ParameterError(f"width mismatch: {a.width} != {b.width}")
    return (a.bits ^ b.bits).bit_count()


def reliability(
    chip: ChipFingerprint,
    challenge: int,
    n_measurements: int,
    params: PufParams,
) -> float:
    """100 minus the mean fractional intra-chip Hamming distance (percent)
    of noisy remeasurements against the noiseless reference response.
    With params.noise_sigma 0 every remeasurement is the reference, so this
    is 100.0 by definition and nothing is measured.

    Otherwise remeasurement m is measure_response(chip, challenge, m,
    params), batched: the pairing and the reference are drawn once, the
    seed words of every remeasurement's generator come from one _pool_hash,
    and the noise is drawn by those generators in passes of at most
    _PASS_OSCILLATORS oscillators (or one remeasurement when a chip has
    more).  The fractional distances are summed in m order, as a loop of
    measure_response calls would sum them."""
    if n_measurements < 2:
        raise ParameterError("reliability needs at least 2 measurements")
    _check_chip(chip, params)
    _check_challenge(challenge)
    if params.noise_sigma == 0:
        return 100.0
    if n_measurements > 2**32:  # each seed m must be one entropy word
        raise ParameterError(f"reliability takes at most 2**32 measurements, got {n_measurements}")
    pairs = challenge_pairs(challenge, params)
    entropy = np.zeros((_SS_POOL_SIZE, n_measurements), dtype=np.uint32)
    entropy[0] = np.arange(n_measurements, dtype=np.uint32)  # default_rng([m, challenge, salt])
    entropy[1] = challenge
    entropy[2] = _MEASUREMENT_SALT
    words = _pool_hash(entropy)
    seeded_rng = _seeded_rng()
    common_sigma = math.sqrt(_COMMON_MODE_VARIANCE_FRACTION) * params.noise_sigma
    individual_sigma = math.sqrt(1.0 - _COMMON_MODE_VARIANCE_FRACTION) * params.noise_sigma
    count = params.oscillator_count
    per_pass = min(n_measurements, max(1, _PASS_OSCILLATORS // count))
    observed = np.empty((per_pass, count))
    above = np.empty((n_measurements, params.response_bits), dtype=bool)
    for start in range(0, n_measurements, per_pass):
        block = words[start : start + per_pass]
        for row, seed_words in zip(observed, block):
            rng = seeded_rng(seed_words)
            # measure_response's draws and sums: (base + common) + individual
            np.add(chip.base_frequencies, rng.normal(0.0, common_sigma), out=row)
            row += rng.normal(0.0, individual_sigma, size=count)
        above[start : start + len(block)] = _response_bits(observed[: len(block)], pairs)
    reference = _response_bits(chip.base_frequencies, pairs)
    width = params.response_bits
    total = 0.0
    for d in np.count_nonzero(above != reference, axis=1).tolist():
        total += d / width
    return 100.0 - 100.0 * total / n_measurements


@dataclass(frozen=True, eq=False)
class PopulationMetrics:
    """Aggregate metrics of a chip-population campaign.  distances is a
    read-only int array: row c holds every chip pair's Hamming distance under
    challenges[c], in itertools.combinations(range(n_chips), 2) order."""

    n_chips: int
    n_challenges: int
    response_bits: int
    uniqueness_pct: float
    randomness_pct: float
    reliability_pct: float
    challenges: tuple[int, ...]  # in draw order
    distances: np.ndarray

    def fraction_in_band(self) -> float:
        """Fraction of pairwise distances inside the 40-60% fractional band."""
        lo, hi = 0.40 * self.response_bits, 0.60 * self.response_bits
        inside = np.count_nonzero((lo <= self.distances) & (self.distances <= hi))
        return int(inside) / self.distances.size


def _campaign_draws(n_chips: int, n_challenges: int, master_seed: int) -> tuple[list, list]:
    """A campaign's seeded draws: n_challenges distinct challenge values,
    then n_chips chip seeds."""
    if not 1 <= n_challenges <= 0x10000:
        raise ParameterError(f"campaign needs 1 to 65536 challenges, got {n_challenges}")
    _check_u64(master_seed, "master_seed")
    rng = np.random.default_rng([master_seed, 0xCA])
    challenge_values = rng.choice(0x10000, size=n_challenges, replace=False).tolist()
    chip_seeds = rng.integers(0, _U64_MAX, size=n_chips, dtype=np.uint64, endpoint=True)
    return challenge_values, chip_seeds.tolist()


def evaluate_population(
    n_chips: int,
    n_challenges: int,
    master_seed: int,
    params: PufParams,
) -> PopulationMetrics:
    """Run a full metric campaign over a seeded chip population.

    The chips are made together by _manufacture, in bounded passes.
    Uniqueness and the pairwise distances use noiseless measurements, one
    row of distances per challenge, filled in place from one uint16 pass
    over all chip pairs; reliability uses 100 batched remeasurements of
    chip 0 with params.noise_sigma (100% by definition, with no
    remeasurement, when it is zero).  A campaign may hold at most
    _MAX_CAMPAIGN_DISTANCES distances, which is checked before any draw.
    """
    if n_chips < 2:
        raise ParameterError("campaign needs at least 2 chips")
    if n_chips * (n_chips - 1) // 2 * n_challenges > _MAX_CAMPAIGN_DISTANCES:
        raise ParameterError(
            f"campaign of {n_chips} chips x {n_challenges} challenges exceeds "
            f"2**24 pairwise distances"
        )
    challenge_values, chip_seeds = _campaign_draws(n_chips, n_challenges, master_seed)
    freqs = _manufacture(chip_seeds, params)
    # chip pairs (a, b) with a < b, in row-major order: itertools.combinations order
    upper = np.arange(n_chips)[:, None] < np.arange(n_chips)
    distances = np.empty((n_challenges, n_chips * (n_chips - 1) // 2), dtype=np.int32)

    ones_total = 0
    for row, cv in zip(distances, challenge_values):
        # One array pass per challenge: every chip's response bits, then the
        # Hamming distance of every chip pair from |a xor b| = |a| + |b| -
        # 2 |a and b|.  einsum keeps the product off BLAS: its worker threads
        # made a 100-chip campaign about 15% slower on a 2-vCPU host.  All of
        # it is uint16, in place: a count or a distance is at most
        # response_bits <= 2**15 (PufParams), so the wrapping arithmetic
        # leaves each distance exact.
        bits = _response_bits(freqs, challenge_pairs(cv, params)).astype(np.uint16)
        ones = bits.sum(axis=1, dtype=np.uint16)
        pair_bits = np.einsum("ik,jk->ij", bits, bits)
        pair_bits *= 2
        np.subtract(ones[:, None], pair_bits, out=pair_bits)
        pair_bits += ones
        row[:] = pair_bits[upper]
        ones_total += int(ones.sum(dtype=np.int64))
    distances.flags.writeable = False

    width = params.response_bits
    rel = reliability(ChipFingerprint(chip_seeds[0], freqs[0]), challenge_values[0], 100, params)
    return PopulationMetrics(
        n_chips=n_chips,
        n_challenges=n_challenges,
        response_bits=width,
        uniqueness_pct=100.0 * (int(distances.sum(dtype=np.int64)) / width) / distances.size,
        randomness_pct=100.0 * ones_total / width / (n_chips * n_challenges),
        reliability_pct=rel,
        challenges=tuple(challenge_values),
        distances=distances,
    )
