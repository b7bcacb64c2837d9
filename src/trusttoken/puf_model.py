"""Behavioral ring-oscillator PUF model.

A virtual chip is a vector of oscillator base frequencies drawn from a
seeded process-variation distribution.  A 2-byte challenge selects 256
disjoint oscillator pairs; each response bit is the frequency comparison
of one pair.  Standard quality metrics (uniqueness, randomness,
reliability) are computed from populations of such chips.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
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
        if self.oscillator_count > 2**32:  # _seed_states takes each index as one word
            raise ParameterError(
                f"oscillator_count must be at most 2**32, got {self.oscillator_count}"
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


def _hash_steps(const: int, mult: int):
    """The (xor, multiply) constants of SeedSequence's successive hash steps."""
    while True:
        step = const * mult & _MASK32
        yield np.uint32(const), np.uint32(step)
        const = step


def _hash(value: np.ndarray, steps) -> np.ndarray:
    xor, mul = next(steps)
    value = (value ^ xor) * mul
    return value ^ (value >> _SS_XSHIFT)


def _seed_states(chip_seed: int, count: int) -> np.ndarray:
    """Row i is SeedSequence([chip_seed, i]).generate_state(4, np.uint64),
    for every i in range(count), from one pass of SeedSequence's pool hash
    over uint32 arrays (wrapping arithmetic).  Needs count <= 2**32, so
    that each i is a single entropy word."""
    words = [chip_seed & _MASK32]  # 32-bit words, least significant first
    while chip_seed >> 32:
        chip_seed >>= 32
        words.append(chip_seed & _MASK32)
    entropy = np.zeros((_SS_POOL_SIZE, count), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(count, dtype=np.uint32)

    steps = _hash_steps(_SS_INIT_A, _SS_MULT_A)
    pool = [_hash(word, steps) for word in entropy]
    for src in range(_SS_POOL_SIZE):
        for dst in range(_SS_POOL_SIZE):
            if src != dst:
                mixed = _SS_MIX_L * pool[dst] - _SS_MIX_R * _hash(pool[src], steps)
                pool[dst] = mixed ^ (mixed >> _SS_XSHIFT)
    steps = _hash_steps(_SS_INIT_B, _SS_MULT_B)
    state = np.stack([_hash(pool[k % _SS_POOL_SIZE], steps) for k in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seeded_rng():
    """words -> the Generator that default_rng builds from the seed whose
    generate_state(4, np.uint64) is words.  Built on first use, so that
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


def new_chip(chip_seed: int, params: PufParams) -> ChipFingerprint:
    """Manufacture a chip: draw each base frequency from the generator
    default_rng([chip_seed, i]) of its oscillator i, so regeneration is
    bit-identical.  The seed words of all oscillators come from one array
    pass (_seed_states)."""
    _check_u64(chip_seed, "chip_seed")
    seeded_rng = _seeded_rng()
    sigma = params.process_variation_sigma
    freqs = np.array([
        params.nominal_frequency + seeded_rng(words).normal(0.0, sigma)
        for words in _seed_states(chip_seed, params.oscillator_count)
    ])
    freqs.flags.writeable = False
    return ChipFingerprint(chip_seed=chip_seed, base_frequencies=freqs)


def challenge_pairs(challenge: int, params: PufParams) -> np.ndarray:
    """Deterministic mapping from a 2-byte challenge, an int in 0..0xFFFF,
    to response_bits disjoint oscillator index pairs (shape
    (response_bits, 2)).  Every response path maps its challenge here."""
    if not isinstance(challenge, int) or not 0 <= challenge <= 0xFFFF:
        raise ParameterError(f"challenge must fit in 2 bytes, got {challenge!r}")
    rng = np.random.default_rng([challenge, _PAIRING_SALT])
    perm = rng.permutation(params.oscillator_count)
    return perm[: 2 * params.response_bits].reshape(params.response_bits, 2)


def _response_bits(freqs: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The response rule, for one chip's frequencies or a stack of them
    (one chip per row): bit j is 1 iff the frequency of pair j's first
    oscillator exceeds that of its second, so exact ties give 0."""
    return freqs[..., pairs[:, 0]] > freqs[..., pairs[:, 1]]


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
    if len(chip.base_frequencies) != params.oscillator_count:
        raise ParameterError("chip was generated with different params")
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
    of noisy remeasurements against the noiseless reference response."""
    if n_measurements < 2:
        raise ParameterError("reliability needs at least 2 measurements")
    quiet = dataclasses.replace(params, noise_sigma=0.0)
    reference = measure_response(chip, challenge, 0, quiet)
    total = 0.0
    for m in range(n_measurements):
        remeasured = measure_response(chip, challenge, m, params)
        total += hamming_distance(reference, remeasured) / reference.width
    return 100.0 - 100.0 * total / n_measurements


@dataclass(frozen=True)
class PopulationMetrics:
    """Aggregate metrics of a chip-population campaign."""

    n_chips: int
    n_challenges: int
    response_bits: int
    uniqueness_pct: float
    randomness_pct: float
    reliability_pct: float
    pairwise_distances: tuple[tuple[int, int, int, int], ...]  # (challenge, chip_a, chip_b, bits)

    def fraction_in_band(self) -> float:
        """Fraction of pairwise distances inside the 40-60% fractional band."""
        if not self.pairwise_distances:
            return 0.0
        lo, hi = 0.40 * self.response_bits, 0.60 * self.response_bits
        inside = sum(1 for _, _, _, d in self.pairwise_distances if lo <= d <= hi)
        return inside / len(self.pairwise_distances)


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

    Uniqueness and the pairwise-distance list use noiseless measurements;
    reliability uses 100 remeasurements of chip 0 with params.noise_sigma
    (100% exactly when it is zero).
    """
    if n_chips < 2:
        raise ParameterError("campaign needs at least 2 chips")
    challenge_values, chip_seeds = _campaign_draws(n_chips, n_challenges, master_seed)
    chips = [new_chip(seed, params) for seed in chip_seeds]
    freqs = np.stack([chip.base_frequencies for chip in chips])
    first, second = np.triu_indices(n_chips, k=1)
    first_ids, second_ids = first.tolist(), second.tolist()

    pairwise = []
    ones_total = 0
    dist_total = 0
    for cv in challenge_values:
        # One array pass per challenge: every chip's response bits, then the
        # Hamming distance of every chip pair in itertools.combinations order,
        # from |a xor b| = |a| + |b| - 2 |a and b|.  einsum keeps the product
        # off BLAS: its worker threads made a 100-chip campaign about 15%
        # slower on a 2-vCPU host.
        bits = _response_bits(freqs, challenge_pairs(cv, params)).astype(np.int32)
        ones = bits.sum(axis=1)
        common = np.einsum("ik,jk->ij", bits, bits)
        dists = ones[first] + ones[second] - 2 * common[first, second]
        ones_total += int(ones.sum())
        dist_total += int(dists.sum())
        pairwise.extend(zip(itertools.repeat(cv), first_ids, second_ids, dists.tolist()))

    width = params.response_bits
    rel = reliability(chips[0], challenge_values[0], 100, params)
    return PopulationMetrics(
        n_chips=n_chips,
        n_challenges=n_challenges,
        response_bits=width,
        uniqueness_pct=100.0 * (dist_total / width) / len(pairwise),
        randomness_pct=100.0 * ones_total / width / (n_chips * n_challenges),
        reliability_pct=rel,
        pairwise_distances=tuple(pairwise),
    )
