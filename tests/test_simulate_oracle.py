"""Fractional-delay kernel against the direct ``np.sinc`` form it replaced.

`ref_fractional_delay_read` below is the windowed-sinc read evaluated tap by
tap with ``np.sinc`` and ``np.cos``. The simulator evaluates the same kernel
as a polynomial in the fractional delay (a Farrow bank), so outputs agree up
to round-off: within KERNEL_ATOL_REL of the largest input magnitude for
single reads, and within SCENE_ATOL_REL of the RMS for whole synthesized
scenes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doatrack import simulate
from doatrack.simulate import SINC_HALF_WIDTH, _delay_reader, synthesize, task_preset

KERNEL_ATOL_REL = 1e-11
SCENE_ATOL_REL = 1e-10
LINEARITY_RTOL = 1e-12


def ref_fractional_delay_read(signal, read_index):
    n = len(signal)
    out = np.zeros(len(read_index))
    offsets = np.arange(-SINC_HALF_WIDTH + 1, SINC_HALF_WIDTH + 1)
    chunk = 131072
    for start in range(0, len(read_index), chunk):
        idx = read_index[start:start + chunk]
        base = np.floor(idx).astype(np.int64)
        taps = base[:, None] + offsets[None, :]
        x = taps - idx[:, None]
        window = 0.5 * (1.0 + np.cos(np.pi * x / SINC_HALF_WIDTH))
        kernel = np.sinc(x) * np.where(np.abs(x) <= SINC_HALF_WIDTH, window, 0.0)
        valid = (taps >= 0) & (taps < n)
        samples = np.where(valid, signal[np.clip(taps, 0, n - 1)], 0.0)
        out[start:start + chunk] = np.sum(samples * kernel, axis=1)
    return out


def _read_positions(n, rng):
    """Random reads plus the cases the kernel treats specially."""
    return np.concatenate([
        rng.uniform(-2 * SINC_HALF_WIDTH, n + 2 * SINC_HALF_WIDTH, 20000),
        rng.integers(-2 * SINC_HALF_WIDTH, n + 2 * SINC_HALF_WIDTH, 2000).astype(float),
        rng.uniform(-SINC_HALF_WIDTH, SINC_HALF_WIDTH, 2000),
        n - 1 + rng.uniform(-SINC_HALF_WIDTH, SINC_HALF_WIDTH, 2000),
        np.arange(-SINC_HALF_WIDTH - 2, SINC_HALF_WIDTH + 2, 0.25),
        n - 1 + np.arange(-SINC_HALF_WIDTH - 2, SINC_HALF_WIDTH + 2, 0.25),
        # just off an integer, where the sinc identity divides by nearly 0 and
        # sin(pi f) loses absolute precision as f -> 1
        rng.integers(0, n, 2000) + rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-17, -1, 2000),
        [-1e-17, -5e-324, -0.0, 1e-310, 5e-324],  # idx - floor(idx) rounds to 1, or is 0
    ])


@pytest.mark.parametrize("kind", ["white", "tone", "scaled"])
def test_kernel_matches_sinc_reference(kind):
    rng = np.random.default_rng(7)
    n = 48000
    if kind == "white":
        signal = rng.standard_normal(n)
    elif kind == "tone":
        signal = np.sin(2 * np.pi * 1234.5 * np.arange(n) / 48000.0)
    else:
        signal = 3e4 * rng.standard_normal(n)
    positions = _read_positions(n, rng)
    got = _delay_reader(signal)(positions)
    ref = ref_fractional_delay_read(signal, positions)
    assert np.max(np.abs(got - ref)) <= KERNEL_ATOL_REL * np.max(np.abs(signal))


def test_kernel_integer_positions_read_the_sample():
    rng = np.random.default_rng(3)
    signal = rng.standard_normal(500)
    positions = np.arange(-40, 540).astype(float)
    got = _delay_reader(signal)(positions)
    inside = (positions >= 0) & (positions < 500)
    assert np.array_equal(got[inside], signal[positions[inside].astype(int)])
    assert np.all(got[~inside] == 0.0)
    # tiny negative positions, where idx - floor(idx) rounds to 1, read sample 0
    assert np.array_equal(_delay_reader(signal)(np.array([-1e-17, -5e-324])),
                          signal[[0, 0]])


def test_kernel_far_outside_reads_exact_zero():
    rng = np.random.default_rng(4)
    n = 1000
    signal = rng.standard_normal(n)
    positions = np.concatenate([
        -SINC_HALF_WIDTH - rng.uniform(0.0, 1e6, 500),
        n - 1 + SINC_HALF_WIDTH + rng.uniform(0.0, 1e6, 500),
        [-1e6, n + 1e6],
    ])
    got = _delay_reader(signal)(positions)
    assert np.all(got == 0.0)
    assert np.all(ref_fractional_delay_read(signal, positions) == 0.0)


SCENES = [(1, "robot_head"), (4, "dicit_32cm"), (5, "eigenmike")]


@pytest.mark.parametrize("task,array", SCENES)
def test_synthesize_matches_sinc_reference(task, array, monkeypatch):
    config = task_preset(task, seed=2, duration=1.0, array=array)
    got = synthesize(config).audio.samples
    reference_reads = []

    def ref_delay_reader(signal):
        def read(read_index):
            reference_reads.append(len(read_index))
            return ref_fractional_delay_read(signal, read_index)
        return read

    monkeypatch.setattr(simulate, "_delay_reader", ref_delay_reader)
    ref = synthesize(config).audio.samples
    # the reference kernel, not the bank, rendered every microphone
    assert len(reference_reads) >= config.array.mic_count and sum(reference_reads) > 0
    rms = np.sqrt(np.mean(ref**2))
    assert np.max(np.abs(got - ref)) <= SCENE_ATOL_REL * rms


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def test_one_bank_serves_every_read():
    rng = np.random.default_rng(11)
    n = 3000
    signal = rng.standard_normal(n)
    signal[1000:2000] = 0.0
    reads = [
        # more reads than one chunk, inside and outside the signal
        rng.uniform(-2 * SINC_HALF_WIDTH, n + 2 * SINC_HALF_WIDTH, 3 * simulate._CHUNK),
        # taps all in the silence
        np.arange(1000 + SINC_HALF_WIDTH, 2000 - SINC_HALF_WIDTH) - 0.37,
        # within machine epsilon of an integer, on both sides
        rng.integers(0, n, 500) + rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-17, -15, 500),
        np.arange(-40, n + 40).astype(float),
        # every tap outside the signal
        np.concatenate([-SINC_HALF_WIDTH - rng.uniform(0.0, 1e4, 200),
                        n - 1 + SINC_HALF_WIDTH + rng.uniform(0.0, 1e4, 200)]),
    ]
    read = simulate._delay_reader(signal)
    shared = [read(positions) for positions in reads]
    for positions, got in zip(reads, shared):
        assert np.array_equal(_bits(got), _bits(_delay_reader(signal)(positions)))
    # a read's bits do not depend on the positions read with it
    assert np.array_equal(_bits(read(np.concatenate(reads))), _bits(np.concatenate(shared)))
    assert np.all(shared[1] == 0.0) and np.all(shared[4] == 0.0)


def _signal(seed, n):
    return np.random.default_rng(seed).standard_normal(n)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), delay=st.integers(-400, 400), seed=st.integers(0, 2**16))
def test_integer_delay_is_exact_shift(n, delay, seed):
    signal = _signal(seed, n)
    got = _delay_reader(signal)(np.arange(n) - float(delay))
    expected = np.zeros(n)
    if delay >= 0:
        expected[delay:] = signal[:max(n - delay, 0)]
    else:
        expected[:max(n + delay, 0)] = signal[-delay:]
    assert np.array_equal(got, expected)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**16),
       a=st.floats(-1e3, 1e3), b=st.floats(-1e3, 1e3), data=st.data())
def test_kernel_is_linear_in_the_signal(n, seed, a, b, data):
    s1, s2 = _signal(seed, n), _signal(seed + 1, n)
    positions = np.array(data.draw(st.lists(st.floats(-40.0, n + 40.0), min_size=1,
                                            max_size=64)))
    left = _delay_reader(a * s1 + b * s2)(positions)
    r1 = a * _delay_reader(s1)(positions)
    r2 = b * _delay_reader(s2)(positions)
    # relative to the input magnitude: the two reads can cancel
    scale = abs(a) * np.max(np.abs(s1)) + abs(b) * np.max(np.abs(s2))
    assert np.max(np.abs(left - (r1 + r2))) <= LINEARITY_RTOL * scale
