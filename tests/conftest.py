"""Shared assertions for the rack-engine equivalence suites."""

import numpy as np


def assert_same_draws(sim, reference, pools=True):
    """``sim`` consumed the rack RNG exactly as ``reference`` did.

    Checks the RNG end state and every drawn application's cursor; with
    ``pools``, also that both drew the same logical pools: equal logical
    lengths and equal samples wherever both still hold them (a streamed
    run compacts consumed prefixes away and, from a generator source,
    keeps growth blocks partly pending, so only that overlap is held on
    both sides; two materialized runs hold everything).
    """
    assert repr(sim._rng.bit_generator.state) == repr(
        reference._rng.bit_generator.state
    )
    assert sim.pools.cursors() == reference.pools.cursors()
    if not pools:
        return
    for name in reference.pools.cursors():
        trim, samples, length = sim.pools.retained(name)
        ref_trim, ref_samples, ref_length = reference.pools.retained(name)
        assert length == ref_length, name
        lo = max(trim, ref_trim)
        hi = min(trim + len(samples), ref_trim + len(ref_samples))
        assert np.array_equal(
            samples[lo - trim : hi - trim],
            ref_samples[lo - ref_trim : hi - ref_trim],
        ), name
