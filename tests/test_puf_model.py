import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trusttoken
from trusttoken import puf_model
from trusttoken.errors import ParameterError
from trusttoken.puf_model import (
    _COMMON_MODE_VARIANCE_FRACTION,
    _MEASUREMENT_SALT,
    _PASS_OSCILLATORS,
    ChipFingerprint,
    PufParams,
    Response,
    _campaign_draws,
    _manufacture,
    _seed_states,
    _stacked_pairs,
    _ziggurat,
    challenge_pairs,
    evaluate_population,
    hamming_distance,
    measure_response,
    new_chip,
    noiseless_responses,
    reliability,
)


def response(text):
    """The Response whose readout is the '0'/'1' string text, bit 0 first."""
    return Response(int(text, 2), len(text))


def bits(pattern, width=256):
    return response((pattern * width)[:width])


def reference_frequencies(chip_seed, params):
    """new_chip's oracle: one default_rng per oscillator."""
    return tuple(
        params.nominal_frequency
        + np.random.default_rng([chip_seed, i]).normal(0.0, params.process_variation_sigma)
        for i in range(params.oscillator_count)
    )


def reference_reliability(chip, challenge, n_measurements, params):
    """reliability's oracle: n_measurements noisy remeasurements against the
    noiseless reference response, also when the noise is zero."""
    reference = measure_response(chip, challenge, 0, dataclasses.replace(params, noise_sigma=0.0))
    total = 0.0
    for m in range(n_measurements):
        remeasured = measure_response(chip, challenge, m, params)
        total += hamming_distance(reference, remeasured) / reference.width
    return 100.0 - 100.0 * total / n_measurements


def reference_response(chip, challenge, measurement_seed, params):
    """measure_response's oracle: per-pair comparisons joined as '0'/'1'."""
    observed = np.asarray(chip.base_frequencies, dtype=float)
    if params.noise_sigma > 0:
        rng = np.random.default_rng([measurement_seed, challenge, _MEASUREMENT_SALT])
        common = rng.normal(0.0, math.sqrt(_COMMON_MODE_VARIANCE_FRACTION) * params.noise_sigma)
        individual = rng.normal(
            0.0,
            math.sqrt(1.0 - _COMMON_MODE_VARIANCE_FRACTION) * params.noise_sigma,
            size=params.oscillator_count,
        )
        observed = observed + common + individual
    pairs = challenge_pairs(challenge, params)
    return response("".join("1" if observed[a] > observed[b] else "0" for a, b in pairs))


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
RANDOM_SEEDS = [random.Random(k).getrandbits(64) for k in range(4)]
PARAM_SETS = [PufParams(), PufParams(oscillator_count=1000, response_bits=100)]


class TestParams:
    def test_defaults_valid(self):
        p = PufParams()
        assert p.oscillator_count == 512
        assert p.response_bits == 256

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"oscillator_count": 511},  # < 2 x response_bits
            {"process_variation_sigma": 0.0},
            {"noise_sigma": -1.0},
            {"noise_sigma": 2e6},  # >= process_variation_sigma
            {"oscillator_count": 0},
            {"response_bits": 0},
            {"noise_sigma": float("nan")},
            {"noise_sigma": float("inf")},
            {"process_variation_sigma": float("inf")},
            {"process_variation_sigma": float("nan")},
            {"nominal_frequency": float("nan")},
            {"nominal_frequency": float("-inf")},
            {"oscillator_count": 512.5},
            {"oscillator_count": 512.0},
            {"oscillator_count": "512"},
            {"response_bits": 100.0},
            {"response_bits": True},
            {"oscillator_count": 2**16 + 1},
            {"nominal_frequency": False},
            {"process_variation_sigma": True},
            {"noise_sigma": True},
            # a sigma whose 40-sigma frequency overflows a float64
            {"process_variation_sigma": 1.0e308},
            {"process_variation_sigma": 4.5e306},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            PufParams(**kwargs)

    def test_largest_sigmas_draw_finite_frequencies_without_warning(self):
        params = PufParams(process_variation_sigma=4.4e306)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(new_chip(1, params).base_frequencies).all()

    def test_oscillator_count_bound_is_inclusive(self):
        assert PufParams(oscillator_count=2**16).oscillator_count == 2**16

    def test_challenge_must_fit_two_bytes(self, chip, default_params):
        challenge_pairs(0, default_params)
        challenge_pairs(0xFFFF, default_params)
        for bad in (0x10000, -1, 1.0):
            with pytest.raises(ParameterError, match="challenge must fit in 2 bytes"):
                challenge_pairs(bad, default_params)
            with pytest.raises(ParameterError, match="challenge must fit in 2 bytes"):
                measure_response(chip, bad, 0, dataclasses.replace(default_params, noise_sigma=1.0))
            with pytest.raises(ParameterError, match="challenge must fit in 2 bytes"):
                reliability(chip, bad, 2, default_params)
            with pytest.raises(ParameterError, match="challenge must fit in 2 bytes"):
                noiseless_responses(chip, [0, bad], default_params)


class TestNewChip:
    def test_deterministic(self, default_params):
        a = new_chip(7, default_params)
        b = new_chip(7, default_params)
        assert np.array_equal(a.base_frequencies, b.base_frequencies)

    def test_seed_sensitivity(self, default_params):
        a = new_chip(7, default_params)
        b = new_chip(8, default_params)
        assert not np.array_equal(a.base_frequencies, b.base_frequencies)

    def test_length(self, chip, default_params):
        assert len(chip.base_frequencies) == default_params.oscillator_count

    def test_frequencies_are_read_only(self, default_params):
        chip = new_chip(7, default_params)
        with pytest.raises(ValueError):
            chip.base_frequencies[0] = 0.0

    def test_seed_range_checked(self, default_params):
        with pytest.raises(ParameterError):
            new_chip(-1, default_params)
        with pytest.raises(ParameterError):
            new_chip(2**64, default_params)


class TestBatchedSeeding:
    """new_chip, _manufacture and measure_response against the
    per-oscillator and per-bit reference loops."""

    @pytest.mark.parametrize("k", range(len(EDGE_SEEDS + RANDOM_SEEDS)),
                             ids=[str(seed) for seed in EDGE_SEEDS + RANDOM_SEEDS])
    def test_seed_states_match_seed_sequence(self, k):
        # one call over one- and two-word seeds; this case checks seed k's rows
        seeds = EDGE_SEEDS + RANDOM_SEEDS
        states = _seed_states(seeds, 1000)
        assert states.shape == (1000 * len(seeds), 4) and states.dtype == np.uint64
        for i in (0, 1, 2, 511, 999):
            expected = np.random.SeedSequence([seeds[k], i]).generate_state(4, np.uint64)
            assert states[k * 1000 + i].tolist() == expected.tolist()

    @pytest.mark.parametrize("params", PARAM_SETS)
    @pytest.mark.parametrize("chip_seed", EDGE_SEEDS + RANDOM_SEEDS)
    def test_new_chip_matches_reference(self, chip_seed, params):
        freqs = new_chip(chip_seed, params).base_frequencies
        assert freqs.dtype == np.float64 and not freqs.flags.writeable
        assert freqs.tolist() == list(reference_frequencies(chip_seed, params))

    @settings(deadline=None)  # max_examples from the profile: 100 by default
    @given(
        chip_seed=st.integers(0, 2**64 - 1),
        oscillator_count=st.integers(2, 300),
        nominal_frequency=st.just(0.0) | st.floats(-1e12, 1e12),
        process_variation_sigma=st.floats(0.0, 1e12, exclude_min=True),
    )
    def test_new_chip_matches_reference_on_drawn_params(
        self, chip_seed, oscillator_count, nominal_frequency, process_variation_sigma
    ):
        params = PufParams(
            oscillator_count=oscillator_count,
            response_bits=1,
            nominal_frequency=nominal_frequency,
            process_variation_sigma=process_variation_sigma,
        )
        freqs = new_chip(chip_seed, params).base_frequencies
        expected = np.array(reference_frequencies(chip_seed, params))
        assert freqs.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @settings(deadline=None)  # max_examples from the profile: 100 by default
    @given(
        chip_seeds=st.lists(st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1),
                            min_size=1, max_size=20),
        oscillator_count=st.integers(2, 100),
        # small pass sizes, so that a few chips span several passes: above,
        # below, dividing and not dividing the oscillator count
        pass_oscillators=st.integers(1, 64) | st.just(_PASS_OSCILLATORS),
    )
    def test_manufacture_matches_reference_across_passes(
        self, chip_seeds, oscillator_count, pass_oscillators
    ):
        params = PufParams(oscillator_count=oscillator_count, response_bits=1)
        with mock.patch.object(puf_model, "_PASS_OSCILLATORS", pass_oscillators):
            freqs = _manufacture(chip_seeds, params)
        assert freqs.shape == (len(chip_seeds), oscillator_count) and not freqs.flags.writeable
        for seed, row in zip(chip_seeds, freqs):
            expected = np.array(reference_frequencies(seed, params))
            assert row.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @pytest.mark.parametrize(
        "oscillator_count, chip_seeds",
        [(1000, [0, 2**32, 2**64 - 1, 1, 2**32 - 1]),  # 4 chips a pass; 1000 does not divide it
         (_PASS_OSCILLATORS + 1, [1, 2**64 - 1])],  # one chip, above the pass size, a pass
    )
    def test_manufacture_matches_reference_at_pass_size(self, oscillator_count, chip_seeds):
        params = PufParams(oscillator_count=oscillator_count, response_bits=1)
        freqs = _manufacture(chip_seeds, params)
        assert not freqs.flags.writeable
        assert freqs.tolist() == [list(reference_frequencies(s, params)) for s in chip_seeds]

    @pytest.mark.parametrize("params", PARAM_SETS)
    @pytest.mark.parametrize("noise_sigma", [0.0, 1e5, 1.9e6])
    def test_measure_response_matches_reference(self, params, noise_sigma):
        params = dataclasses.replace(params, noise_sigma=noise_sigma)
        chip = new_chip(7, params)
        for cv, seed in ((0, 0), (9, 42), (65535, 7)):
            expected = reference_response(chip, cv, seed, params)
            assert measure_response(chip, cv, seed, params) == expected

    @settings(deadline=None)  # max_examples from the profile: 100 by default
    @given(
        params=st.sampled_from(PARAM_SETS),
        chip_seed=st.integers(0, 2**64 - 1),
        challenge=st.integers(0, 0xFFFF),
        measurement_seed=st.integers(0, 2**64 - 1),
        noise_sigma=st.just(0.0) | st.floats(1e3, 1.9e6),
    )
    def test_measure_response_matches_reference_on_drawn_inputs(
        self, params, chip_seed, challenge, measurement_seed, noise_sigma
    ):
        params = dataclasses.replace(params, noise_sigma=noise_sigma)
        chip = new_chip(chip_seed, params)
        expected = reference_response(chip, challenge, measurement_seed, params)
        assert measure_response(chip, challenge, measurement_seed, params) == expected

    @settings(deadline=None)  # max_examples from the profile: 100 by default
    @given(
        challenges=st.lists(st.sampled_from([0, 1, 0xFFFF]) | st.integers(0, 0xFFFF),
                            max_size=20),
        oscillator_count=st.integers(2, 600),
        data=st.data(),
    )
    def test_stacked_pairs_match_challenge_pairs(self, challenges, oscillator_count, data):
        response_bits = data.draw(st.integers(1, oscillator_count // 2), label="response_bits")
        params = PufParams(oscillator_count=oscillator_count, response_bits=response_bits)
        pairs = _stacked_pairs(challenges, params)
        assert pairs.shape == (len(challenges), response_bits, 2)
        for challenge, stacked in zip(challenges, pairs):
            assert stacked.tolist() == challenge_pairs(challenge, params).tolist()

    @pytest.mark.parametrize("params", PARAM_SETS)  # 256 bits, and 100: not whole bytes
    @pytest.mark.parametrize("challenges", [[], [0], [0, 9, 0xFFFF, 9]])
    def test_noiseless_responses_match_measure_response(self, params, challenges):
        chip = new_chip(7, params)
        expected = [reference_response(chip, c, 0, params).bits for c in challenges]
        assert noiseless_responses(chip, challenges, params) == expected

    def test_package_import_leaves_numpy_random_unloaded(self):
        code = (
            "import sys, numpy; before = 'numpy.random' in sys.modules; "
            "import trusttoken.scenario_cli; "
            "print(before, 'numpy.random' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(trusttoken.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        before, after = out.stdout.split()
        assert after == before  # numpy < 2 imports numpy.random itself


def set_next_raw(bit_generator, raw):
    """Set a PCG64 so that its next raw draw is raw (below 2**64): the
    state that steps to raw, whose high word 0 makes XSL-RR output raw."""
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": raw, "inc": 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_generator.advance(-1)


class TestZigguratTables:
    """new_chip's fast path against the installed numpy's standard_normal:
    a raw draw r is layer r & 0xFF, sign bit 8, magnitude r >> 9."""

    def test_every_layer_matches_numpy(self):
        wi, ki = _ziggurat()
        bit_generator = np.random.PCG64(0)
        normal = np.random.Generator(bit_generator).standard_normal
        rng = random.Random(18)

        def draw(layer, magnitude, sign=0):
            """standard_normal() of that draw, and whether it used one raw draw."""
            raw = magnitude << 9 | sign << 8 | layer
            set_next_raw(bit_generator, raw)
            value = normal()
            return value, bit_generator.state["state"]["state"] == raw

        for layer in range(256):
            # magnitude 1 returns the table entry itself (on the top layer
            # once the wedge test accepts it), so an entry one ulp off fails here
            value, _ = draw(layer, 1)
            assert value == wi[layer], layer
            if layer == 1:  # the top layer is never accepted at once
                assert ki[layer] == 0
                continue
            bound = int(ki[layer])
            # bound - 1 is accepted in one draw, so ki never exceeds numpy's bound
            for magnitude in [rng.randrange(bound) for _ in range(3)] + [bound - 1]:
                for sign in (0, 1):
                    value, one_draw = draw(layer, magnitude, sign)
                    assert one_draw, (layer, magnitude)
                    expected = float(magnitude) * wi[layer]
                    assert value == (-expected if sign else expected), (layer, magnitude)


class TestResponse:
    def test_bits_must_fit_the_width(self):
        assert Response(0b111, 3).width == 3
        for bits, width in ((0b1000, 3), (-1, 3), (0, 0), ("0101", 4), (1, 2.0)):
            with pytest.raises(ParameterError):
                Response(bits, width)


class TestMeasureResponse:
    def test_width_is_256_across_challenge_space(self, chip, default_params):
        for cv in (0, 1, 255, 4095, 65535):
            r = measure_response(chip, cv, 0, default_params)
            assert r.width == 256

    def test_pairing_is_disjoint(self, default_params):
        for cv in (0, 17, 65535):
            pairs = challenge_pairs(cv, default_params)
            flat = pairs.ravel().tolist()
            assert len(flat) == len(set(flat)) == 512

    def test_noiseless_ignores_measurement_seed(self, chip, default_params):
        r1 = measure_response(chip, 3, 1, default_params)
        r2 = measure_response(chip, 3, 999, default_params)
        assert r1 == r2

    def test_distinct_challenges_differ(self, chip, default_params):
        r1 = measure_response(chip, 1, 0, default_params)
        r2 = measure_response(chip, 2, 0, default_params)
        assert hamming_distance(r1, r2) > 0

    def test_interchip_distance_strictly_between_0_and_1(self, default_params):
        a = new_chip(100, default_params)
        b = new_chip(200, default_params)
        ra = measure_response(a, 5, 0, default_params)
        rb = measure_response(b, 5, 0, default_params)
        assert 0 < hamming_distance(ra, rb) < ra.width

    def test_noisy_measurement_deterministic_per_seed(self, chip):
        params = PufParams(noise_sigma=1e5)
        r1 = measure_response(chip, 9, 42, params)
        r2 = measure_response(chip, 9, 42, params)
        assert r1 == r2

    def test_exact_ties_read_0(self, default_params):
        chip = ChipFingerprint(0, np.full(default_params.oscillator_count, 1e8))
        assert measure_response(chip, 3, 0, default_params) == Response(0, 256)

    def test_rejects_foreign_chip(self, chip):
        small = PufParams(oscillator_count=200, response_bits=100)
        with pytest.raises(ParameterError, match="chip was generated with different params"):
            measure_response(chip, 1, 0, small)
        with pytest.raises(ParameterError, match="chip was generated with different params"):
            reliability(chip, 1, 2, small)
        with pytest.raises(ParameterError, match="chip was generated with different params"):
            noiseless_responses(chip, [1], small)


class TestHammingDistance:
    def test_identity(self):
        assert hamming_distance(bits("0"), bits("0")) == 0

    def test_complement(self):
        assert hamming_distance(bits("0"), bits("1")) == 256

    def test_against_bit_loop_oracle(self, chip, default_params):
        a = measure_response(chip, 11, 0, default_params)
        b = measure_response(chip, 12, 0, default_params)
        a_text, b_text = format(a.bits, "0256b"), format(b.bits, "0256b")
        expected = sum(1 for x, y in zip(a_text, b_text) if x != y)
        assert hamming_distance(a, b) == expected

    def test_padded_pattern_oracle(self):
        a, b = "0011" + "0" * 252, "0101" + "0" * 252
        expected = sum(1 for x, y in zip(a, b) if x != y)
        assert expected == 2
        assert hamming_distance(response(a), response(b)) == expected

    def test_width_mismatch(self):
        with pytest.raises(ParameterError):
            hamming_distance(response("01"), response("011"))

    @given(
        a=st.integers(0, 2**64 - 1),
        b=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=50)
    def test_symmetric_and_zero_on_self(self, a, b):
        ra = Response(a, 64)
        rb = Response(b, 64)
        assert hamming_distance(ra, rb) == hamming_distance(rb, ra)
        assert hamming_distance(ra, ra) == 0


class TestReliability:
    def test_noiseless_exactly_100(self, chip, default_params):
        assert reliability(chip, 2, 10, default_params) == 100.0

    def test_small_noise_above_99(self, chip, default_params):
        params = dataclasses.replace(
            default_params, noise_sigma=default_params.process_variation_sigma / 20
        )
        assert reliability(chip, 2, 100, params) >= 99.0

    def test_too_few_measurements(self, chip, default_params):
        with pytest.raises(ParameterError):
            reliability(chip, 2, 1, default_params)

    def test_noiseless_measures_nothing(self, chip, default_params, monkeypatch):
        calls = []
        monkeypatch.setattr(puf_model, "measure_response", lambda *args: calls.append(args))
        assert reliability(chip, 2, 100, default_params) == 100.0
        assert calls == []

    def test_noisy_batch_calls_no_measure_response(self, chip, monkeypatch):
        params = PufParams(noise_sigma=1e5)
        expected = reference_reliability(chip, 2, 20, params)
        monkeypatch.setattr(puf_model, "measure_response", lambda *args: pytest.fail("measured"))
        assert reliability(chip, 2, 20, params) == expected

    def test_measurement_count_bounded_before_any_draw(self, chip, monkeypatch):
        # each measurement seed must be one entropy word of the batched hash
        monkeypatch.setattr(puf_model, "_pool_hash", lambda *args: pytest.fail("hashed"))
        with pytest.raises(ParameterError, match=r"at most 2\*\*32 measurements"):
            reliability(chip, 2, 2**32 + 1, PufParams(noise_sigma=1e5))

    @settings(deadline=None)  # max_examples from the profile: 100 by default
    @given(
        chip_seed=st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1),
        challenge=st.sampled_from([0, 0xFFFF]) | st.integers(0, 0xFFFF),
        # a pass holds 8 remeasurements of a default chip and 20 of the
        # other: counts below, at and above it, dividing it and not
        n_measurements=st.integers(2, 300),
        # from tiny up to just under process_variation_sigma (2e6)
        noise_sigma=st.sampled_from([5e-324, 1e-300, 1.0, math.nextafter(2e6, 0.0)])
        | st.floats(5e-324, 2e6, exclude_max=True),
        # at width 100 a sum of fractional distances depends on its order
        params=st.sampled_from([PufParams(), PufParams(oscillator_count=200, response_bits=100)]),
    )
    def test_batched_reliability_matches_reference(
        self, chip_seed, challenge, n_measurements, noise_sigma, params
    ):
        params = dataclasses.replace(params, noise_sigma=noise_sigma)
        chip = new_chip(chip_seed, params)
        expected = reference_reliability(chip, challenge, n_measurements, params)
        assert reliability(chip, challenge, n_measurements, params) == expected

    @pytest.mark.parametrize("noise_sigma", [0.0, 1e5])
    def test_matches_remeasurement_loop(self, noise_sigma):
        params = PufParams(noise_sigma=noise_sigma)
        for chip_seed in (0, 7, 2**64 - 1):
            chip = new_chip(chip_seed, params)
            for challenge in (0, 2, 0xFFFF):
                expected = reference_reliability(chip, challenge, 20, params)
                assert reliability(chip, challenge, 20, params) == expected


class TestPopulationBand:
    def test_mean_interchip_distance_in_band(self, default_params):
        chips = [new_chip(s, default_params) for s in range(20)]
        total = 0.0
        count = 0
        for cv in range(16):
            responses = [measure_response(c, cv * 97, 0, default_params) for c in chips]
            for ra, rb in itertools.combinations(responses, 2):
                total += hamming_distance(ra, rb) / ra.width
                count += 1
        assert 0.40 <= total / count <= 0.60

    def test_band_is_measured_at_the_response_width(self):
        metrics = evaluate_population(6, 2, 1, PufParams(oscillator_count=200, response_bits=100))
        assert metrics.response_bits == 100
        assert metrics.fraction_in_band() == 1.0


class TestPopulationKernel:
    """The array pass of evaluate_population against scalar
    measure_response + hamming_distance over the same chips."""

    @settings(deadline=None)  # max_examples from the profile: 100 by default
    @given(
        n_chips=st.integers(2, 7),
        n_challenges=st.integers(1, 4),
        master_seed=st.integers(0, 2**64 - 1),
        # the second width is not a power of two
        params=st.sampled_from([PufParams(), PufParams(oscillator_count=200, response_bits=100)]),
    )
    def test_matches_scalar_path(self, n_chips, n_challenges, master_seed, params):
        metrics = evaluate_population(n_chips, n_challenges, master_seed, params)
        challenge_values, chip_seeds = _campaign_draws(n_chips, n_challenges, master_seed)
        chips = [new_chip(s, params) for s in chip_seeds]
        width = params.response_bits

        rows = []
        uniq_total = 0.0
        ones_total = 0.0
        for cv in challenge_values:
            responses = [measure_response(c, cv, 0, params) for c in chips]
            ones_total += sum(100.0 * r.bits.bit_count() / r.width for r in responses)
            rows.append(
                [hamming_distance(ra, rb) for ra, rb in itertools.combinations(responses, 2)]
            )
            uniq_total += sum(d / width for d in rows[-1])
        dists = [d for row in rows for d in row]

        assert metrics.challenges == tuple(challenge_values)
        assert metrics.distances.dtype.kind == "i"
        assert metrics.distances.tolist() == rows
        in_band = sum(0.40 * width <= d <= 0.60 * width for d in dists)
        assert metrics.fraction_in_band() == in_band / len(dists)
        # Exact for power-of-two widths; otherwise the scalar float sums
        # and the kernel's integer sums may round apart in the last place.
        exact = width & (width - 1) == 0
        expected_uniq = 100.0 * uniq_total / len(dists)
        expected_rand = ones_total / (n_chips * n_challenges)
        if exact:
            assert metrics.uniqueness_pct == expected_uniq
            assert metrics.randomness_pct == expected_rand
        else:
            assert metrics.uniqueness_pct == pytest.approx(expected_uniq, rel=1e-12)
            assert metrics.randomness_pct == pytest.approx(expected_rand, rel=1e-12)

    def test_distances_are_read_only(self):
        metrics = evaluate_population(3, 2, 0, PufParams())
        assert metrics.distances.shape == (2, 3)
        with pytest.raises(ValueError, match="read-only"):
            metrics.distances[0, 0] = 0

    def test_campaign_size_bounded_before_any_draw(self, monkeypatch):
        class Drawn(Exception):
            pass

        def draws(*args):
            raise Drawn

        monkeypatch.setattr(puf_model, "_campaign_draws", draws)
        # 5794 chips have 16,782,321 pairs, 5793 have 16,776,528 (2**24 = 16,777,216)
        with pytest.raises(ParameterError, match=r"exceeds 2\*\*24 pairwise distances"):
            evaluate_population(5794, 1, 0, PufParams())
        with pytest.raises(ParameterError, match=r"exceeds 2\*\*24"):
            evaluate_population(2, 2**24 + 1, 0, PufParams())
        with pytest.raises(Drawn):
            evaluate_population(5793, 1, 0, PufParams())

    def test_single_chip_rejected(self):
        with pytest.raises(ParameterError, match="at least 2 chips"):
            evaluate_population(1, 1, 0, PufParams())

    def test_challenge_count_limited_to_challenge_space(self):
        assert len(_campaign_draws(2, 0x10000, 0)[0]) == 0x10000
        for n_challenges in (0, 0x10001):
            with pytest.raises(ParameterError):
                evaluate_population(2, n_challenges, 0, PufParams())
