"""Seeded request-arrival processes for serving studies.

The serving simulator (:mod:`repro.core.traffic`) is driven by a sorted
array of request arrival times.  This module generates those traces:

* :func:`poisson_arrivals` — memoryless traffic at a constant offered
  rate, the standard open-loop serving assumption;
* :func:`mmpp_arrivals` — a two-state Markov-modulated Poisson process
  (quiet/burst), the classic model for bursty production traffic;
* :func:`diurnal_arrivals` — an inhomogeneous Poisson process whose
  rate ramps sinusoidally between an off-peak and a peak level, the
  shape of a day of user traffic compressed into the simulated horizon.

Every generator is a pure function of its arguments: the same seed
yields the same trace bit-for-bit, which is what makes the downstream
latency percentiles reproducible (see ``docs/architecture.md``,
"Serving & traffic simulation").
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.simkernel import validate_count

TRAFFIC_PATTERNS: tuple[str, ...] = ("poisson", "mmpp", "diurnal")
"""Names accepted by :func:`make_arrivals`."""


def validate_positive(value: float, what: str) -> None:
    """Reject a rate or a time span that is not a finite number > 0.

    A bool compares as 0 or 1, NaN fails every comparison, and an
    infinite rate makes every gap zero, so each would pass a bare
    ``> 0`` check and then hang a thinning loop or build a degenerate
    trace.

    Raises:
        ValueError: if ``value`` is a bool, NaN, infinite, or <= 0.
    """
    if isinstance(value, bool) or not 0.0 < value < math.inf:
        raise ValueError(f"{what} must be finite and > 0, got {value!r}")


def _validate(rate_rps: float, num_requests: int) -> None:
    validate_positive(rate_rps, "arrival rate")
    validate_count(num_requests, "request count")


def poisson_arrivals(
    rate_rps: float, num_requests: int, seed: int = 0
) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process.

    Args:
        rate_rps: mean offered load (requests per second).
        num_requests: trace length.
        seed: RNG seed; the trace is a pure function of it.

    Returns:
        A sorted ``(num_requests,)`` array of arrival times starting
        after 0.

    Raises:
        ValueError: on a rate that is not finite and > 0 or a count
            that is not an integer >= 1.
    """
    _validate(rate_rps, num_requests)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate_rps, size=num_requests)
    return np.cumsum(gaps)


def mmpp_arrivals(
    quiet_rate_rps: float,
    burst_rate_rps: float,
    num_requests: int,
    mean_dwell_s: float,
    seed: int = 0,
) -> np.ndarray:
    """Arrival times of a two-state Markov-modulated Poisson process.

    The process alternates between a quiet state and a burst state;
    state dwell times are exponential with mean ``mean_dwell_s`` and
    within each state arrivals are Poisson at the state's rate.  This is
    the minimal model of bursty traffic: the long-run mean rate is the
    dwell-weighted average, but arrivals cluster.

    Args:
        quiet_rate_rps: arrival rate in the quiet state.
        burst_rate_rps: arrival rate in the burst state.
        num_requests: trace length.
        mean_dwell_s: mean sojourn time in each state.
        seed: RNG seed.

    Raises:
        ValueError: on rates or a dwell that are not finite and > 0, or
            a count that is not an integer >= 1.
    """
    _validate(quiet_rate_rps, num_requests)
    _validate(burst_rate_rps, num_requests)
    validate_positive(mean_dwell_s, "mean dwell")
    rng = np.random.default_rng(seed)
    rates = (quiet_rate_rps, burst_rate_rps)
    state = 0
    now = 0.0
    state_ends = rng.exponential(mean_dwell_s)
    times = np.empty(num_requests)
    produced = 0
    while produced < num_requests:
        gap = rng.exponential(1.0 / rates[state])
        if now + gap < state_ends:
            now += gap
            times[produced] = now
            produced += 1
        else:
            # The candidate gap straddles a state switch: restart the
            # (memoryless) arrival clock in the new state.
            now = state_ends
            state = 1 - state
            state_ends = now + rng.exponential(mean_dwell_s)
    return times


def diurnal_arrivals(
    offpeak_rate_rps: float,
    peak_rate_rps: float,
    num_requests: int,
    period_s: float,
    seed: int = 0,
) -> np.ndarray:
    """Arrival times of a sinusoidally-ramped inhomogeneous Poisson process.

    The instantaneous rate ramps between off-peak and peak over
    ``period_s`` (one simulated "day"), sampled by thinning: candidate
    arrivals are drawn at the peak rate and accepted with probability
    ``rate(t) / peak_rate``.

    Args:
        offpeak_rate_rps: trough arrival rate.
        peak_rate_rps: crest arrival rate (must be >= off-peak).
        num_requests: trace length.
        period_s: the ramp period.
        seed: RNG seed.

    Raises:
        ValueError: on rates or a period that are not finite and > 0,
            peak < off-peak, or a count that is not an integer >= 1.
    """
    _validate(offpeak_rate_rps, num_requests)
    _validate(peak_rate_rps, num_requests)
    validate_positive(period_s, "period")
    if peak_rate_rps < offpeak_rate_rps:
        raise ValueError(
            f"peak rate {peak_rate_rps!r} below off-peak {offpeak_rate_rps!r}"
        )
    rng = np.random.default_rng(seed)
    mid = 0.5 * (peak_rate_rps + offpeak_rate_rps)
    amplitude = 0.5 * (peak_rate_rps - offpeak_rate_rps)
    times = np.empty(num_requests)
    produced = 0
    now = 0.0
    while produced < num_requests:
        now += rng.exponential(1.0 / peak_rate_rps)
        rate = mid - amplitude * np.cos(2.0 * np.pi * now / period_s)
        if rng.uniform() * peak_rate_rps <= rate:
            times[produced] = now
            produced += 1
    return times


def make_arrivals(
    pattern: str, rate_rps: float, num_requests: int, seed: int = 0
) -> np.ndarray:
    """Build a named arrival trace with one shared knob (the mean rate).

    ``"poisson"`` uses the rate directly; ``"mmpp"`` alternates between
    ``rate / 3`` and ``5 * rate / 3`` (equal mean dwells of 50 mean
    inter-arrival periods, so the long-run mean stays ``rate``);
    ``"diurnal"`` ramps between ``rate / 3`` and ``5 * rate / 3`` over a
    period of 500 mean inter-arrival periods (mean ``rate`` likewise).

    Raises:
        KeyError: on an unknown pattern name.
        ValueError: on a rate that is not finite and > 0 or a count
            that is not an integer >= 1.
    """
    _validate(rate_rps, num_requests)
    if pattern == "poisson":
        return poisson_arrivals(rate_rps, num_requests, seed)
    if pattern == "mmpp":
        return mmpp_arrivals(
            quiet_rate_rps=rate_rps / 3.0,
            burst_rate_rps=5.0 * rate_rps / 3.0,
            num_requests=num_requests,
            mean_dwell_s=50.0 / rate_rps,
            seed=seed,
        )
    if pattern == "diurnal":
        return diurnal_arrivals(
            offpeak_rate_rps=rate_rps / 3.0,
            peak_rate_rps=5.0 * rate_rps / 3.0,
            num_requests=num_requests,
            period_s=500.0 / rate_rps,
            seed=seed,
        )
    raise KeyError(
        f"unknown traffic pattern {pattern!r}; have {TRAFFIC_PATTERNS}"
    )
