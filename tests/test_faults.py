"""Unit tests for the fault/drift subsystem building blocks.

The differential harness (``tests/test_differential_faults.py``) pins
the end-to-end guarantees; these tests cover the pieces: drift-state
physics on the probe bank, fault-event/schedule semantics and
validation, recalibration policy accounting, named scenarios, and the
fault-tolerance sweep surface.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import unshared_sweeps

from repro.analysis import (
    FAULT_SWEEP_HEADER,
    sweep_fault_tolerance,
)
from repro.core.faults import (
    FAULT_KINDS,
    CoreHealthState,
    DegradedServingSimulator,
    DriftSnapshotTable,
    FaultEvent,
    FaultSchedule,
    PoolHealth,
    RecalibrationPolicy,
    _calibrated_pristine_probe,
    simulate_degraded_serving,
)
from repro.core.traffic import BatchingPolicy, PipelineServiceModel
from repro.photonics.calibration import calibrate_bank
from repro.photonics.drift import (
    DEFAULT_PROBE_QUALITY_FACTOR,
    DEFAULT_PROBE_RINGS,
    BankCondition,
    DriftingWeightBank,
    default_probe_targets,
    drift_transfer,
)
from repro.photonics.microring import MicroringDesign
from repro.photonics.noise import NoiseConfig
from repro.photonics.thermal import ThermalModel
from repro.photonics.wdm import WdmGrid
from repro.photonics.weight_bank import WeightBank
from repro.workloads import (
    FAULT_SCENARIOS,
    alexnet_conv_specs,
    fault_scenario,
    poisson_arrivals,
    serving_network,
)


class TestBankCondition:
    def test_defaults_are_pristine(self):
        assert BankCondition().pristine
        assert not BankCondition(ambient_k=0.1).pristine
        assert not BankCondition(dead_rings=(1,)).pristine
        assert not BankCondition(tia_gain=0.9).pristine

    def test_validation(self):
        with pytest.raises(ValueError):
            BankCondition(ambient_k=-0.1)
        with pytest.raises(ValueError):
            BankCondition(ambient_k=math.nan)
        with pytest.raises(ValueError):
            BankCondition(crosstalk_coupling=1.0)
        with pytest.raises(ValueError):
            BankCondition(tia_gain=1.5)

    @pytest.mark.parametrize(
        "fields",
        [
            {"ambient_k": True},
            {"crosstalk_coupling": False},
            {"tia_gain": True},
            {"ambient_k": True, "tia_gain": True},
        ],
    )
    def test_rejects_bool_fields(self, fields):
        # A bool compares as 0 or 1: it used to pass as 1 K or gain 1.
        with pytest.raises(ValueError, match="numbers"):
            BankCondition(**fields)

    @pytest.mark.parametrize("field", ["dead_rings", "stuck_rings"])
    @pytest.mark.parametrize(
        "rings", [(1.5,), (-1,), (True,), (0, "2"), [1], None]
    )
    def test_rejects_non_index_rings(self, field, rings):
        # (1.5,) used to fail only later, as an IndexError in the readout.
        with pytest.raises(ValueError, match="rings"):
            BankCondition(**{field: rings})

    def test_accepts_integer_rings_past_the_bank(self):
        condition = BankCondition(
            dead_rings=(np.int64(3), 40), stuck_rings=(0,)
        )
        assert condition.dead_rings == (3, 40)


class TestDriftingWeightBank:
    def test_calibration_squashes_baseline_error(self):
        probe = DriftingWeightBank()
        open_loop = probe.weight_error()
        result = probe.recalibrate()
        assert result.converged
        assert probe.weight_error() < 1e-5 < open_loop

    def test_drift_error_monotone_in_ambient(self):
        probe = DriftingWeightBank()
        probe.recalibrate()
        errors = []
        for ambient in [0.0, 0.02, 0.1, 0.5, 2.0]:
            probe.set_condition(BankCondition(ambient_k=ambient))
            errors.append(probe.weight_error())
        assert all(b > a for a, b in zip(errors, errors[1:]))

    def test_recalibration_compensates_moderate_drift(self):
        probe = DriftingWeightBank()
        probe.recalibrate()
        probe.set_condition(BankCondition(ambient_k=0.05))
        drifted = probe.weight_error()
        probe.recalibrate()
        assert probe.weight_error() < 0.1 * drifted

    def test_dead_ring_is_uncalibratable(self):
        probe = DriftingWeightBank()
        probe.recalibrate()
        probe.set_condition(BankCondition(dead_rings=(probe.num_rings - 1,)))
        dead_error = probe.weight_error()
        assert dead_error > 1.0  # pinned to the rail vs a +0.75 target
        result = probe.recalibrate()
        assert not result.converged
        assert probe.weight_error() == pytest.approx(dead_error, rel=0.1)

    def test_stuck_ring_ignores_new_commands(self):
        probe = DriftingWeightBank()
        probe.recalibrate()
        frozen = probe.commanded
        probe.set_condition(BankCondition(stuck_rings=(3,)))
        asked = np.clip(frozen + 0.2, -1.0, 1.0)
        probe.set_weights(asked)
        assert probe.commanded[3] == frozen[3]
        others = [i for i in range(probe.num_rings) if i != 3]
        assert np.array_equal(probe.commanded[others], asked[others])

    def test_thaw_restores_command_authority(self):
        probe = DriftingWeightBank()
        probe.set_condition(BankCondition(stuck_rings=(2,)))
        probe.set_condition(BankCondition())
        target = default_probe_targets(probe.num_rings)
        probe.set_weights(target)
        assert np.array_equal(probe.commanded, target)

    def test_tia_droop_scales_readout(self):
        probe = DriftingWeightBank()
        probe.recalibrate()
        healthy = probe.effective_weights()
        probe.set_condition(BankCondition(tia_gain=0.5))
        assert np.allclose(probe.effective_weights(), 0.5 * healthy)

    def test_validation(self):
        with pytest.raises(ValueError, match="target"):
            DriftingWeightBank(targets=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="rings cannot realize"):
            DriftingWeightBank(targets=np.zeros(4), num_rings=8)
        with pytest.raises(ValueError, match="probe ring"):
            default_probe_targets(0)
        probe = DriftingWeightBank()
        with pytest.raises(ValueError, match="expected"):
            probe.set_weights(np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            probe.set_weights(np.full(probe.num_rings, np.nan))

    def test_rejects_nan_targets(self):
        """Regression: NaN targets used to be accepted, leaving a NaN
        weight error that no recalibration threshold ever fires on."""
        with pytest.raises(ValueError, match="finite"):
            DriftingWeightBank(targets=np.array([0.1, np.nan, 0.2]))

    def test_single_ring_probe(self):
        probe = DriftingWeightBank(num_rings=1)
        probe.recalibrate()
        assert probe.weight_error() < 1e-5


class _ObjectLevelProbe:
    """The probe's physics rebuilt from the object-level bank classes.

    A crosstalk-on :class:`WeightBank` programmed with the honoured
    command, then :meth:`ThermalModel.apply`, then dead rings parked at
    ``1e4`` linewidths, then the TIA gain on the balanced readout — the
    oracle :class:`DriftingWeightBank` must match bit for bit.
    """

    def __init__(self, num_rings, condition, frozen):
        self.bank = WeightBank(
            WdmGrid(num_rings),
            MicroringDesign(quality_factor=DEFAULT_PROBE_QUALITY_FACTOR),
            NoiseConfig(
                enabled=True,
                shot_noise=False,
                thermal_noise=False,
                crosstalk=True,
            ),
        )
        self.num_rings = num_rings
        self.condition = condition
        self.frozen = frozen

    def set_weights(self, weights):
        honoured = np.array(weights, dtype=float)
        for ring, command in self.frozen.items():
            honoured[ring] = command
        self.bank.set_weights(honoured)
        ThermalModel(
            crosstalk_coupling=self.condition.crosstalk_coupling,
            ambient_drift_k=self.condition.ambient_k,
        ).apply(self.bank)
        for index in self.condition.dead_rings:
            ring = self.bank.rings[index % self.num_rings]
            ring.detuning_hz = 1e4 * ring.linewidth_hz

    def effective_weights(self):
        return self.condition.tia_gain * self.bank.effective_weights()


@st.composite
def degraded_probes(draw):
    """A command, calibration targets and a crosstalk-on condition."""
    num_rings = draw(st.integers(1, 8))
    unit = st.floats(-1.0, 1.0)
    vector = st.lists(unit, min_size=num_rings, max_size=num_rings)
    # Ring indices run past the bank: schedules may name any ring, and
    # the probe wraps them.
    rings = st.lists(st.integers(0, 2 * num_rings + 1), max_size=3)
    condition = BankCondition(
        ambient_k=draw(st.floats(0.0, 2.0)),
        crosstalk_coupling=draw(
            st.floats(0.0, 0.95, exclude_min=True)
        ),
        dead_rings=tuple(sorted(set(draw(rings)))),
        stuck_rings=tuple(sorted(set(draw(rings)))),
        tia_gain=draw(st.floats(0.0, 1.0)),
    )
    return np.array(draw(vector)), np.array(draw(vector)), condition


class TestProbeCrossImplementation:
    @given(case=degraded_probes())
    @settings(max_examples=60, deadline=None)
    def test_probe_matches_object_level_bank_bitwise(self, case):
        command, targets, condition = case
        probe = DriftingWeightBank(targets=targets)
        probe.set_weights(command)
        probe.set_condition(condition)
        size = targets.size
        frozen = {
            ring % size: float(command[ring % size])
            for ring in condition.stuck_rings
        }
        oracle = _ObjectLevelProbe(size, condition, frozen)
        oracle.set_weights(command)
        assert np.array_equal(
            probe.effective_weights(), oracle.effective_weights()
        )

        ours = calibrate_bank(probe, targets)
        theirs = calibrate_bank(oracle, targets)
        assert ours.iterations == theirs.iterations
        assert ours.converged == theirs.converged
        assert ours.residual == theirs.residual
        assert ours.initial_residual == theirs.initial_residual
        assert np.array_equal(ours.commanded, theirs.commanded)
        assert np.array_equal(
            probe.effective_weights(), oracle.effective_weights()
        )


@st.composite
def condition_stacks(draw):
    """A probe, and conditions sharing one coupling and dead-ring set."""
    command, targets, condition = draw(degraded_probes())
    # Zero coupling half the time, with some zero ambient offsets: the
    # stack mixes instants read mixed and instants read unmixed.
    coupling = draw(st.sampled_from([0.0, condition.crosstalk_coupling]))
    rows = draw(st.integers(1, 12))
    ambient = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
            min_size=rows,
            max_size=rows,
        )
    )
    gains = draw(st.lists(st.floats(0.0, 1.0), min_size=rows, max_size=rows))
    conditions = [
        BankCondition(
            ambient_k=k,
            crosstalk_coupling=coupling,
            dead_rings=condition.dead_rings,
            stuck_rings=condition.stuck_rings,
            tia_gain=gain,
        )
        for k, gain in zip(ambient, gains)
    ]
    return command, targets, conditions


@st.composite
def probe_programs(draw):
    """Calibration targets and a run of probe operations.

    Couplings, dead sets and zero ambient offsets repeat, so reads hit
    the gain-free readout cache, and commands and recalibrations land
    between reads of one key, so a re-command that kept the cache would
    read a stale readout.
    """
    num_rings = draw(st.integers(1, 8))
    vector = st.lists(
        st.floats(-1.0, 1.0), min_size=num_rings, max_size=num_rings
    ).map(np.array)
    rings = st.lists(st.integers(0, 2 * num_rings + 1), max_size=3).map(
        lambda drawn: tuple(sorted(set(drawn)))
    )
    coupling = st.sampled_from(
        [0.0, 0.2, draw(st.floats(0.0, 0.95, exclude_min=True))]
    )
    ambient = st.one_of(st.just(0.0), st.just(0.0), st.floats(0.0, 2.0))
    gain = st.floats(0.0, 1.0)
    condition = st.builds(
        BankCondition,
        ambient_k=ambient,
        crosstalk_coupling=coupling,
        dead_rings=rings,
        stuck_rings=rings,
        tia_gain=gain,
    )
    step = st.one_of(
        st.tuples(st.just("command"), vector),
        st.tuples(st.just("condition"), condition),
        st.tuples(st.just("recalibrate"), st.integers(0, 3)),
        st.tuples(
            st.just("errors"),
            st.lists(st.tuples(ambient, gain), min_size=1, max_size=6),
        ),
    )
    return draw(vector), draw(st.lists(step, min_size=1, max_size=14))


def _uncached_readout(probe, condition):
    """The readout the object-level bank gives the probe's command."""
    oracle = _ObjectLevelProbe(probe.num_rings, condition, {})
    oracle.set_weights(probe.commanded)
    return oracle.effective_weights()


class TestProbeReadoutCache:
    """Cached gain-free readouts are the uncached recipe, bit for bit."""

    @given(case=probe_programs())
    @settings(max_examples=80, deadline=None)
    def test_cached_readouts_match_the_uncached_recipe(self, case):
        targets, steps = case
        probe = DriftingWeightBank(targets=targets)
        for kind, arg in steps:
            if kind == "command":
                probe.set_weights(arg)
            elif kind == "condition":
                probe.set_condition(arg)
            elif kind == "recalibrate":
                probe.recalibrate(max_iterations=arg)
            else:
                now = probe.condition
                conditions = [
                    replace(now, ambient_k=k, tia_gain=g) for k, g in arg
                ]
                errors = probe.weight_errors(
                    now.crosstalk_coupling,
                    now.dead_rings,
                    np.array([c.ambient_shift_hz for c in conditions]),
                    np.array([c.tia_gain for c in conditions]),
                )
                expected = [
                    np.abs(_uncached_readout(probe, c) - targets).max()
                    for c in conditions
                ]
                assert errors.tobytes() == np.array(expected).tobytes()
            readout = _uncached_readout(probe, probe.condition)
            assert probe.effective_weights().tobytes() == readout.tobytes()
            assert probe.weight_error() == np.abs(readout - targets).max()


class TestPristineProbeTemplate:
    """Every core's probe is a copy of one calibrated pristine bank."""

    @staticmethod
    def _fingerprint(probe):
        return (
            probe.commanded.tobytes(),
            probe.effective_weights().tobytes(),
            probe.weight_error(),
            probe.condition,
        )

    def test_state_probe_matches_a_freshly_calibrated_bank(self):
        fresh = DriftingWeightBank()
        fresh.recalibrate()
        state = CoreHealthState(0, FaultSchedule.none())
        assert self._fingerprint(state.probe) == self._fingerprint(fresh)
        assert state.error == fresh.weight_error()

    def test_copies_move_independently(self):
        template = _calibrated_pristine_probe()
        pristine = self._fingerprint(template)
        schedule = FaultSchedule.none()
        moved, sibling = CoreHealthState(0, schedule), CoreHealthState(1, schedule)
        moved.probe.set_condition(
            BankCondition(
                ambient_k=0.3,
                crosstalk_coupling=0.2,
                stuck_rings=(1,),
                tia_gain=0.8,
            )
        )
        moved.probe.recalibrate()
        moved.probe.set_weights(np.zeros(moved.probe.num_rings))
        assert self._fingerprint(moved.probe) != pristine
        assert self._fingerprint(template) == pristine
        assert self._fingerprint(sibling.probe) == pristine

    def test_copy_keeps_its_own_frozen_commands(self):
        probe = DriftingWeightBank()
        probe.set_condition(BankCondition(stuck_rings=(2,)))
        twin = probe.copy()
        twin.set_condition(BankCondition())
        asked = np.zeros(probe.num_rings)
        twin.set_weights(asked)
        probe.set_weights(asked)
        assert np.array_equal(twin.commanded, asked)
        assert probe.commanded[2] == default_probe_targets()[2]


class TestProbeSweep:
    """The time-batched probe is the per-instant probe, bit for bit."""

    @given(case=condition_stacks())
    @settings(max_examples=60, deadline=None)
    def test_weight_errors_match_one_condition_at_a_time(self, case):
        command, targets, conditions = case
        probe = DriftingWeightBank(targets=targets)
        probe.set_weights(command)
        first = conditions[0]
        errors = probe.weight_errors(
            first.crosstalk_coupling,
            first.dead_rings,
            np.array([c.ambient_shift_hz for c in conditions]),
            np.array([c.tia_gain for c in conditions]),
        )
        expected = []
        for condition in conditions:
            probe.set_condition(condition)
            expected.append(probe.weight_error())
        assert errors.tobytes() == np.array(expected).tobytes()

    @given(
        seed=st.integers(0, 10_000),
        events=st.integers(1, 5),
        drift=st.floats(0.0, 20.0),
        split=st.integers(0, 60),
        threshold=st.sampled_from([1e-4, 1e-3, 0.05]),
    )
    @settings(max_examples=60, deadline=None)
    def test_sweep_matches_advancing_instant_by_instant(
        self, seed, events, drift, split, threshold
    ):
        schedule = FaultSchedule.random(
            seed, 1, 1.0, events_per_core=events, max_drift_k_per_s=drift
        )
        times = np.sort(
            np.random.default_rng(seed).uniform(0.0, 1.3, 120)
        )
        state = CoreHealthState(0, schedule)
        policy = RecalibrationPolicy(error_threshold=threshold)
        # Recalibrate part-way, so compensation and exhaustion are live.
        for time_s in times[:split]:
            state.advance_to(time_s)
            if state.should_recalibrate(policy):
                state.recalibrate(policy)
        epoch = times[split:]
        sweep = state.sweep(epoch)
        swept_errors = sweep.read(epoch.size)
        swept = DriftSnapshotTable(1)
        swept.record_sweeps(0, [sweep], epoch.size)
        stepped = DriftSnapshotTable(1)
        was_exhausted = state.recal_exhausted
        errors, rearm = [], epoch.size
        for index, time_s in enumerate(epoch):
            state.advance_to(time_s)
            errors.append(state.error)
            stepped.record(index, [state], [0])
            if was_exhausted and not state.recal_exhausted:
                rearm = min(rearm, index)
        widths = np.ones(epoch.size, dtype=np.int64)
        swept, stepped = swept.view(widths), stepped.view(widths)
        assert swept_errors.tobytes() == np.array(errors).tobytes()
        assert swept == stepped
        # Field types too: report digests hash the snapshots' repr.
        assert repr(tuple(swept)) == repr(tuple(stepped))
        assert sweep.rearm == rearm

    def test_snapshot_fields_are_python_floats_on_the_numpy_clock(self):
        """Dispatch instants are numpy floats; the condition (and the
        snapshots built from it) is composed in Python floats."""
        state = CoreHealthState(0, FaultSchedule.uniform_drift(1.0, 1))
        state.advance_to(np.float64(0.5))
        table = DriftSnapshotTable(1)
        table.record(0, [state], [0])
        (snapshot,) = table.view(np.ones(1, dtype=np.int64))[0]
        assert type(snapshot.core) is int
        assert type(snapshot.residual_shift_hz) is float
        assert type(snapshot.tia_gain) is float
        assert snapshot.residual_shift_hz == state.residual_shift_hz > 0.0


class TestDriftTransfer:
    def test_zero_shift_is_near_identity(self):
        weights = np.linspace(-1.0, 1.0, 21)
        assert np.max(np.abs(drift_transfer(weights, 0.0) - weights)) < 1e-6

    def test_divergence_grows_with_shift(self):
        weights = np.linspace(-0.9, 0.9, 13)
        small = np.max(np.abs(drift_transfer(weights, 1e9) - weights))
        large = np.max(np.abs(drift_transfer(weights, 5e9) - weights))
        assert 0.0 < small < large

    def test_gain_bounds_the_range(self):
        weights = np.linspace(-1.0, 1.0, 9)
        effective = drift_transfer(weights, 2e9, tia_gain=0.7)
        assert np.all(np.abs(effective) <= 0.7 + 1e-12)

    def test_preserves_shape(self):
        weights = np.zeros((3, 4, 2, 2))
        assert drift_transfer(weights, 1e9).shape == weights.shape

    def test_validation(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            drift_transfer(np.array([1.5]), 0.0)
        with pytest.raises(ValueError, match="shift"):
            drift_transfer(np.array([0.5]), -1.0)
        with pytest.raises(ValueError, match="shift"):
            drift_transfer(np.array([0.5]), math.nan)
        with pytest.raises(ValueError, match="gain"):
            drift_transfer(np.array([0.5]), 0.0, tia_gain=2.0)

    def test_rejects_nan_weights(self):
        """Regression: `abs(nan) > 1` is False, so NaN weights used to
        pass through to a NaN degraded replay."""
        with pytest.raises(ValueError, match="finite"):
            drift_transfer(np.array([0.5, np.nan]), 1e9)


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("meteor", 0, 0.0, 1.0)
        with pytest.raises(ValueError, match="core"):
            FaultEvent("thermal_ramp", -1, 0.0, 1.0)
        with pytest.raises(ValueError, match="core"):
            FaultEvent("thermal_ramp", 1.5, 0.0, 1.0)
        with pytest.raises(ValueError, match="core"):
            FaultEvent("thermal_ramp", True, 0.0, 1.0)
        with pytest.raises(ValueError, match="onset"):
            FaultEvent("thermal_ramp", 0, -1.0, 1.0)
        with pytest.raises(ValueError, match="magnitude"):
            FaultEvent("thermal_ramp", 0, 0.0, -1.0)
        with pytest.raises(ValueError, match="fraction"):
            FaultEvent("tia_droop", 0, 0.0, 1.5)
        with pytest.raises(ValueError, match="below 1"):
            FaultEvent("crosstalk", 0, 0.0, 1.0)
        with pytest.raises(ValueError, match="duration"):
            FaultEvent("thermal_ramp", 0, 0.0, 1.0, duration_s=0.0)
        with pytest.raises(ValueError, match="ring indices"):
            FaultEvent("dead_rings", 0, 0.0, 1.0, rings=(-1,))
        with pytest.raises(ValueError, match="ring indices"):
            FaultEvent("dead_rings", 0, 0.0, 1.0, rings=(True, False))
        with pytest.raises(ValueError, match="candidate rings"):
            FaultEvent("dead_rings", 0, 0.0, 1.0)

    def test_affected_rings_fraction(self):
        event = FaultEvent("dead_rings", 0, 0.0, 0.5, rings=(3, 1, 7, 5))
        assert event.affected_rings == (3, 1)
        assert FaultEvent(
            "dead_rings", 0, 0.0, 1.0, rings=(2, 4)
        ).affected_rings == (2, 4)
        assert FaultEvent(
            "stuck_rings", 0, 0.0, 0.0, rings=()
        ).affected_rings == ()


class TestFaultSchedule:
    def test_none_and_uniform_drift(self):
        assert FaultSchedule.none().events == ()
        drift = FaultSchedule.uniform_drift(2.0, 3)
        assert len(drift.events) == 3
        assert {event.core for event in drift.events} == {0, 1, 2}
        assert all(event.magnitude == 2.0 for event in drift.events)
        with pytest.raises(ValueError, match="core"):
            FaultSchedule.uniform_drift(2.0, 0)

    def test_random_is_deterministic_and_valid(self):
        first = FaultSchedule.random(seed=5, num_cores=2, horizon_s=1.0)
        second = FaultSchedule.random(seed=5, num_cores=2, horizon_s=1.0)
        other = FaultSchedule.random(seed=6, num_cores=2, horizon_s=1.0)
        assert first == second
        assert first != other
        assert all(event.kind in FAULT_KINDS for event in first.events)
        # A long enough schedule exercises every kind's magnitude rule.
        big = FaultSchedule.random(
            seed=0, num_cores=1, horizon_s=1.0, events_per_core=40
        )
        assert {event.kind for event in big.events} == set(FAULT_KINDS)
        with pytest.raises(ValueError, match="core"):
            FaultSchedule.random(0, 0, 1.0)
        with pytest.raises(ValueError, match="horizon"):
            FaultSchedule.random(0, 1, 0.0)
        with pytest.raises(ValueError, match="event"):
            FaultSchedule.random(0, 1, 1.0, events_per_core=0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, -1.0])
    def test_random_rejects_non_finite_horizons(self, horizon):
        """inf and nan horizons used to raise OverflowError from the
        seeded draws instead of the documented ValueError."""
        with pytest.raises(ValueError, match="horizon"):
            FaultSchedule.random(0, 2, horizon)

    @pytest.mark.parametrize("rate", [-1.0, math.inf, math.nan])
    def test_random_rejects_bad_drift_caps(self, rate):
        """A negative cap used to surface numpy's "high - low < 0"."""
        with pytest.raises(ValueError, match="max_drift_k_per_s"):
            FaultSchedule.random(0, 2, 1.0, max_drift_k_per_s=rate)

    def test_counts_reject_bools_and_floats(self):
        """True used to build a one-core schedule; 2.0 and 1.5 raised a
        bare TypeError from range()."""
        for build in (
            lambda: FaultSchedule.uniform_drift(1.0, True),
            lambda: FaultSchedule.uniform_drift(1.0, 2.0),
            lambda: FaultSchedule.random(0, True, 1.0),
            lambda: FaultSchedule.random(0, 2, 1.0, events_per_core=1.5),
        ):
            with pytest.raises(ValueError, match="must be an integer"):
                build()

    @pytest.mark.parametrize(
        "events, index",
        [((1, 2), 0), ((FaultEvent("thermal_ramp", 0, 0.0, 1.0), "x"), 1)],
        ids=["ints", "string-second"],
    )
    def test_events_must_be_fault_events(self, events, index):
        """(1, 2) used to construct and then die in events_for with an
        AttributeError on an int."""
        with pytest.raises(
            TypeError, match=f"event {index} is not a FaultEvent"
        ):
            FaultSchedule("x", events)

    def test_events_are_stored_as_a_tuple(self):
        """A list of events used to make the frozen schedule
        unhashable."""
        event = FaultEvent("thermal_ramp", 0, 0.0, 1.0)
        schedule = FaultSchedule("x", [event])
        assert schedule.events == (event,)
        assert hash(schedule) == hash(FaultSchedule("x", (event,)))
        assert schedule.events_for(0) == (event,)

    def test_random_rings_lie_on_the_default_probe(self):
        schedule = FaultSchedule.random(
            seed=0, num_cores=2, horizon_s=1.0, events_per_core=40
        )
        rings = {ring for event in schedule.events for ring in event.rings}
        assert rings == set(range(DEFAULT_PROBE_RINGS))

    def test_scaled_clamps_fractions(self):
        schedule = FaultSchedule(
            "s",
            (
                FaultEvent("tia_droop", 0, 0.0, 0.8),
                FaultEvent("crosstalk", 0, 0.0, 0.5),
                FaultEvent("thermal_ramp", 0, 0.0, 3.0),
            ),
        )
        doubled = schedule.scaled(2.0)
        assert doubled.events[0].magnitude == 1.0  # clamped fraction
        assert doubled.events[1].magnitude == 0.99  # capped coupling
        assert doubled.events[2].magnitude == 6.0  # rates scale freely
        with pytest.raises(ValueError, match="factor"):
            schedule.scaled(-1.0)

    def test_events_for_sorts_by_onset(self):
        schedule = FaultSchedule(
            "s",
            (
                FaultEvent("thermal_ramp", 0, 2.0, 1.0),
                FaultEvent("thermal_ramp", 1, 0.0, 1.0),
                FaultEvent("crosstalk", 0, 1.0, 0.1),
            ),
        )
        onsets = [event.onset_s for event in schedule.events_for(0)]
        assert onsets == [1.0, 2.0]
        assert schedule.events_for(9) == ()


class TestCoreHealthState:
    def test_condition_composition(self):
        schedule = FaultSchedule(
            "s",
            (
                FaultEvent("thermal_ramp", 0, 1.0, 0.5, duration_s=2.0),
                FaultEvent("crosstalk", 0, 2.0, 0.2, duration_s=1.0),
                FaultEvent("tia_droop", 0, 0.0, 0.4, duration_s=4.0),
                FaultEvent("dead_rings", 0, 3.0, 1.0, rings=(1,)),
            ),
        )
        state = CoreHealthState(0, schedule)
        before = state.condition_at(0.5)
        assert before.ambient_k == 0.0
        assert before.crosstalk_coupling == 0.0
        assert before.tia_gain == pytest.approx(1.0 - 0.4 * 0.125)
        mid = state.condition_at(2.5)
        assert mid.ambient_k == pytest.approx(0.75)  # 1.5 s into the ramp
        assert mid.crosstalk_coupling == pytest.approx(0.2)
        assert mid.dead_rings == ()
        late = state.condition_at(10.0)
        assert late.ambient_k == pytest.approx(1.0)  # ramp held after end
        assert late.crosstalk_coupling == 0.0  # excursion reverted
        assert late.tia_gain == pytest.approx(0.6)
        assert late.dead_rings == (1,)

    def test_step_droop_with_infinite_duration(self):
        schedule = FaultSchedule(
            "s", (FaultEvent("tia_droop", 0, 1.0, 0.3),)
        )
        state = CoreHealthState(0, schedule)
        assert state.condition_at(0.5).tia_gain == 1.0
        assert state.condition_at(1.0).tia_gain == pytest.approx(0.7)

    def test_transient_recovery_rearms_recalibration(self):
        """An excursion that ends re-arms an exhausted recalibration."""
        policy = RecalibrationPolicy()
        schedule = FaultSchedule(
            "s",
            (
                FaultEvent(
                    "crosstalk", 0, 1.0, 0.9, duration_s=1.0
                ),
            ),
        )
        state = CoreHealthState(0, schedule)
        state.advance_to(1.5)
        assert state.should_recalibrate(policy)
        state.recalibrate(policy)
        if state.recal_exhausted:
            state.advance_to(3.0)  # excursion over
            assert not state.recal_exhausted

    def test_probe_has_the_default_ring_count(self):
        state = CoreHealthState(0, FaultSchedule.none())
        assert state.probe.num_rings == DEFAULT_PROBE_RINGS

    def test_out_of_range_ring_indices_wrap(self):
        schedule = FaultSchedule(
            "s", (FaultEvent("dead_rings", 0, 0.0, 1.0, rings=(13,)),)
        )
        state = CoreHealthState(0, schedule)
        state.advance_to(1.0)
        assert state.error > 0.5  # ring 13 % 8 == 5 died

    def test_out_of_range_stuck_rings_survive_recalibration(self):
        """Regression: a stuck-ring index beyond the probe used to raise
        IndexError when recalibration re-commanded the bank (the frozen
        command was keyed by the raw index, not the wrapped one)."""
        policy = RecalibrationPolicy()
        schedule = FaultSchedule(
            "s",
            (
                FaultEvent("stuck_rings", 0, 0.0, 1.0, rings=(8, 13)),
                FaultEvent("thermal_ramp", 0, 0.0, 0.5),
            ),
        )
        state = CoreHealthState(0, schedule)
        state.advance_to(0.2)
        assert state.should_recalibrate(policy)
        state.recalibrate(policy)  # must not raise
        assert math.isfinite(state.error)


def _same_state(a: CoreHealthState, b: CoreHealthState) -> bool:
    """Whether two states agree in every field but the core index."""
    return (
        a.error == b.error
        and a._condition == b._condition
        and a.probe.commanded.tobytes() == b.probe.commanded.tobytes()
        and a.probe.condition == b.probe.condition
        and a.probe._stuck_commands == b.probe._stuck_commands
        and a.compensated_shift_hz == b.compensated_shift_hz
        and a.compensated_gain == b.compensated_gain
        and a.recal_exhausted == b.recal_exhausted
        and a._exhausted_condition == b._exhausted_condition
    )


@st.composite
def lineage_walks(draw):
    """A pool whose cores share some fault events and not others, and a
    walk of advances and recalibrations over subsets of its cores."""
    num_cores = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 10_000))
    drift = draw(st.floats(0.0, 20.0))
    shared = FaultSchedule.random(
        seed, 1, 1.0, draw(st.integers(1, 3)), max_drift_k_per_s=drift
    )
    own = FaultSchedule.random(seed + 1, num_cores, 1.0, 1, drift)
    loners = draw(st.sets(st.integers(0, num_cores - 1)))
    events = [
        replace(event, core=core)
        for core in range(num_cores)
        for event in shared.events
    ] + [event for event in own.events if event.core in loners]
    cores = st.sets(st.integers(0, num_cores - 1), min_size=1)
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("advance"), cores, st.floats(0.0, 0.4)),
                st.tuples(st.just("recal"), cores, st.integers(0, 1)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return num_cores, FaultSchedule("walk", tuple(events)), steps


class TestLineage:
    """A state's lineage id names the path it took from its events."""

    def test_twins_share_an_id_until_one_recalibrates_alone(self):
        policy = RecalibrationPolicy(error_threshold=1e-3)
        health = PoolHealth(FaultSchedule.uniform_drift(1.0, 3), 3)
        states = health.states
        assert len({state.lineage for state in states}) == 1
        for state in states:
            state.advance_to(0.5)
        assert len({state.lineage for state in states}) == 1
        for state in states[1:]:
            state.recalibrate(policy)
        assert states[1].lineage == states[2].lineage != states[0].lineage
        for state in states:
            state.advance_to(0.8)
        assert states[1].lineage == states[2].lineage != states[0].lineage
        assert _same_state(states[1], states[2])
        assert not _same_state(states[0], states[1])

    def test_distinct_events_give_distinct_roots(self):
        schedule = fault_scenario("thermal-runaway", 2, 1.0)
        health = PoolHealth(schedule, 2)
        assert health.states[0].lineage != health.states[1].lineage

    def test_an_advance_that_moves_nothing_keeps_the_id(self):
        schedule = FaultSchedule(
            "late", (FaultEvent("thermal_ramp", 0, 1.0, 1.0),)
        )
        state = PoolHealth(schedule, 1).states[0]
        root = state.lineage
        state.advance_to(0.5)
        assert state.lineage == root
        state.advance_to(1.5)
        assert state.lineage != root

    def test_reset_restores_the_root_id(self):
        policy = RecalibrationPolicy(error_threshold=1e-3)
        health = PoolHealth(FaultSchedule.uniform_drift(1.0, 2), 2)
        root = health.states[0].lineage
        for state in health.states:
            state.advance_to(0.5)
            state.recalibrate(policy)
        assert health.states[0].lineage != root
        health.reset([0])
        assert health.states[0].lineage == root
        assert health.states[1].lineage != root

    @given(walk=lineage_walks())
    @settings(max_examples=60, deadline=None)
    def test_equal_ids_mean_equal_states(self, walk):
        num_cores, schedule, steps = walk
        policies = (
            RecalibrationPolicy(error_threshold=1e-3),
            RecalibrationPolicy(error_threshold=0.05, max_iterations=3),
        )
        health = PoolHealth(schedule, num_cores)
        states = health.states
        now = 0.0
        for kind, cores, arg in steps:
            if kind == "advance":
                now += arg
                for core in sorted(cores):
                    states[core].advance_to(now)
            else:
                for core in sorted(cores):
                    states[core].recalibrate(policies[arg])
            for a in states:
                for b in states:
                    if a.lineage == b.lineage:
                        assert _same_state(a, b)


def _drift_serving(scenario: str):
    """Faulted LeNet-5 serving on two cores: 20,000 Poisson requests at
    20k req/s, dynamic batching, recalibration at 0.05 error."""
    arrivals = poisson_arrivals(2e4, 20_000, seed=17)
    return simulate_degraded_serving(
        serving_network("lenet5"),
        arrivals,
        BatchingPolicy.dynamic(4, 1e-4),
        fault_scenario(scenario, 2, float(arrivals[-1])),
        2,
        recalibration=RecalibrationPolicy(error_threshold=0.05),
    )


class TestSharedSweeps:
    """``PoolHealth.cut`` sweeps each distinct lineage once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count probe sweeps, epoch cuts and the stage cores cut."""
        calls = {"sweep": 0, "cut": 0, "stage_cores": 0}
        sweep, cut = CoreHealthState.sweep, PoolHealth.cut

        def count_sweep(*args):
            calls["sweep"] += 1
            return sweep(*args)

        def count_cut(health, stage_to_core, *args):
            calls["cut"] += 1
            calls["stage_cores"] += len(stage_to_core)
            return cut(health, stage_to_core, *args)

        monkeypatch.setattr(CoreHealthState, "sweep", count_sweep)
        monkeypatch.setattr(PoolHealth, "cut", count_cut)
        return calls

    def test_twin_cores_are_swept_once_per_cut(self, calls):
        shared = _drift_serving("slow-drift")
        assert calls == {"sweep": 26, "cut": 26, "stage_cores": 52}
        with unshared_sweeps():
            unshared = _drift_serving("slow-drift")
        assert calls == {"sweep": 26 + 52, "cut": 52, "stage_cores": 104}
        assert shared.completion_s.tobytes() == unshared.completion_s.tobytes()
        assert shared.accuracy_proxy.tobytes() == (
            unshared.accuracy_proxy.tobytes()
        )
        assert shared.recalibrations == unshared.recalibrations

    def test_distinct_cores_are_each_swept(self, calls):
        """Core 0 drifts faster than core 1 (and is drained part-way),
        so no cut finds twins."""
        _drift_serving("thermal-runaway")
        assert calls["cut"] > 0
        assert calls["sweep"] == calls["stage_cores"] > calls["cut"]


class TestRecalibrationPolicy:
    def test_downtime_accounting(self):
        policy = RecalibrationPolicy(
            iteration_time_s=1e-5, overhead_s=1e-4
        )
        assert policy.downtime_s(10) == pytest.approx(2e-4)

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            RecalibrationPolicy(error_threshold=0.0)
        with pytest.raises(ValueError, match="iteration"):
            RecalibrationPolicy(max_iterations=0)
        with pytest.raises(ValueError, match="times"):
            RecalibrationPolicy(iteration_time_s=-1.0)

    @pytest.mark.parametrize("bad", [2.5, 3.0, True])
    def test_max_iterations_must_be_an_integer(self, bad):
        """2.5 used to construct and then crash at the first
        recalibration inside calibrate_bank's range(); True silently ran
        one-iteration recalibrations."""
        with pytest.raises(ValueError, match="must be an integer"):
            RecalibrationPolicy(max_iterations=bad)

    @pytest.mark.parametrize("field", ["iteration_time_s", "overhead_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_costs_rejected(self, field, value):
        """NaN passes a bare `< 0` check and would reach the core
        clocks, downtime ledger and availability."""
        with pytest.raises(ValueError, match="finite"):
            RecalibrationPolicy(**{field: value})

    def test_static_trigger_is_the_threshold_test(self):
        policy = RecalibrationPolicy(error_threshold=0.05)
        trigger = policy.decider()
        assert trigger.policy is policy
        assert trigger.decisions == ()
        assert not trigger.needs_queue_depth
        state = CoreHealthState(0, FaultSchedule.uniform_drift(50.0, 1))
        for time_s in (0.0, 1e-3, 1.0):
            state.advance_to(time_s)
            assert trigger.decide(state, time_s, 0.0) == (
                state.should_recalibrate(policy)
            )
        assert trigger.decide(state, 1.0, 0.0)
        assert trigger.decisions == ()


class TestFailThreshold:
    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_rejected(self, threshold):
        """`error >= nan` is always False: a NaN threshold would silently
        switch repartitioning off."""
        from repro.core.adaptive import AdaptiveRecalibration
        from repro.core.faults import (
            DegradedServingSimulator,
            simulate_degraded_serving,
        )
        from repro.core.traffic import PipelineServiceModel
        from repro.workloads import serving_network

        model = PipelineServiceModel.from_specs(alexnet_conv_specs(), 2)
        with pytest.raises(ValueError, match="fail threshold"):
            DegradedServingSimulator(
                model,
                BatchingPolicy.fifo(),
                FaultSchedule.none(),
                fail_error_threshold=threshold,
            )
        network = serving_network("lenet5")
        arrivals = poisson_arrivals(2e4, 8, seed=2)
        args = (network, arrivals, BatchingPolicy.fifo(), FaultSchedule.none(), 2)
        with pytest.raises(ValueError, match="fail threshold"):
            simulate_degraded_serving(*args, fail_error_threshold=threshold)
        with pytest.raises(ValueError, match="fail threshold"):
            simulate_degraded_serving(
                *args,
                AdaptiveRecalibration.frozen(RecalibrationPolicy()),
                fail_error_threshold=threshold,
            )


@pytest.mark.parametrize(
    "build",
    [
        lambda: RecalibrationPolicy(error_threshold=True),
        lambda: RecalibrationPolicy(iteration_time_s=True),
        lambda: RecalibrationPolicy(overhead_s=True),
        lambda: DegradedServingSimulator(
            PipelineServiceModel.from_specs(alexnet_conv_specs(), 2),
            BatchingPolicy.fifo(),
            FaultSchedule.none(),
            fail_error_threshold=True,
        ),
    ],
    ids=[
        "error_threshold",
        "iteration_time_s",
        "overhead_s",
        "fail_threshold",
    ],
)
def test_bools_are_not_fault_layer_floats(build):
    """Each used to construct, True silently standing for 1.0."""
    with pytest.raises(ValueError, match="True"):
        build()


class TestFaultScenarios:
    @pytest.mark.parametrize("name", FAULT_SCENARIOS)
    def test_every_scenario_builds_and_scales_to_noop(self, name):
        schedule = fault_scenario(name, num_cores=3, horizon_s=0.5)
        assert schedule.events
        assert all(event.core < 3 for event in schedule.events)
        disarmed = fault_scenario(name, 3, 0.5, severity=0.0)
        assert all(event.magnitude == 0.0 for event in disarmed.events)
        assert all(
            event.affected_rings == () for event in disarmed.events
        )

    def test_scenarios_are_deterministic(self):
        for name in FAULT_SCENARIOS:
            assert fault_scenario(name, 2, 1.0) == fault_scenario(
                name, 2, 1.0
            )

    def test_validation(self):
        with pytest.raises(KeyError, match="unknown fault scenario"):
            fault_scenario("volcano", 2, 1.0)
        with pytest.raises(ValueError, match="core"):
            fault_scenario("slow-drift", 0, 1.0)
        with pytest.raises(ValueError, match="horizon"):
            fault_scenario("slow-drift", 2, 0.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizons_rejected(self, horizon):
        """An infinite horizon used to build a zero-drift schedule, and
        a nan one failed with an unrelated "magnitude" message."""
        with pytest.raises(ValueError, match="horizon"):
            fault_scenario("slow-drift", 2, horizon)

    def test_bool_core_count_rejected(self):
        with pytest.raises(ValueError, match="must be an integer"):
            fault_scenario("slow-drift", True, 1.0)

    def test_single_core_scenarios(self):
        for name in FAULT_SCENARIOS:
            schedule = fault_scenario(name, 1, 1.0)
            assert all(event.core == 0 for event in schedule.events)


class TestDegradedReportSurface:
    def test_describe_and_simulator_validation(self):
        from repro.core.faults import (
            DegradedServingSimulator,
            simulate_degraded_serving,
        )
        from repro.core.traffic import PipelineServiceModel
        from repro.workloads import serving_network

        specs = alexnet_conv_specs()
        model = PipelineServiceModel.from_specs(specs, 2)
        with pytest.raises(ValueError, match="fail threshold"):
            DegradedServingSimulator(
                model,
                BatchingPolicy.fifo(),
                FaultSchedule.none(),
                fail_error_threshold=0.0,
            )
        network = serving_network("lenet5")
        arrivals = poisson_arrivals(2e4, 20, seed=2)
        horizon = float(arrivals[-1])
        report = simulate_degraded_serving(
            network,
            arrivals,
            BatchingPolicy.dynamic(4, 1e-4),
            FaultSchedule.uniform_drift(0.3 / horizon, 2),
            num_cores=2,
            recalibration=RecalibrationPolicy(),
        )
        text = report.describe()
        assert "accuracy proxy" in text
        assert "availability" in text
        assert "recalibrations" in text
        assert report.worst_accuracy_proxy >= report.accuracy_proxy[0]
        assert report.final_accuracy_proxy == report.accuracy_proxy[-1]


class TestFaultToleranceSweep:
    def test_grid_rows_and_validation(self):
        specs = alexnet_conv_specs()
        arrivals = poisson_arrivals(4000.0, 300, seed=1)
        horizon = float(arrivals[-1])
        points = sweep_fault_tolerance(
            specs,
            BatchingPolicy.dynamic(8, 1e-3),
            [0.05 / horizon],
            [None, RecalibrationPolicy()],
            arrivals,
            num_cores=2,
        )
        assert len(points) == 2
        assert {point.recalibration for point in points} == {"none", "recal"}
        for point in points:
            assert len(point.row()) == len(FAULT_SWEEP_HEADER)
            assert 0.0 < point.min_availability <= 1.0
            assert point.mean_accuracy_proxy >= 0.0
        with pytest.raises(ValueError, match="drift rate"):
            sweep_fault_tolerance(
                specs,
                BatchingPolicy.fifo(),
                [],
                [None],
                arrivals,
                num_cores=2,
            )
        with pytest.raises(ValueError, match="recalibration"):
            sweep_fault_tolerance(
                specs,
                BatchingPolicy.fifo(),
                [1.0],
                [],
                arrivals,
                num_cores=2,
            )
