"""The single faulted pipeline's per-batch drift record.

:class:`~repro.core.faults.DriftSnapshotTable` stores each batch's
per-stage drift as columns and builds
:class:`~repro.core.faults.CoreDriftSnapshot` objects only for the rows
a caller reads.  These tests pin that the table reads as the tuple of
per-batch tuples the per-dispatch record stands for — on the epoch path,
through a repartition that shrinks the width, and on an EWMA run whose
epochs fold the trigger's estimate between its decisions — that its
vectorized pristine
mask agrees with the objects, and that serving builds no per-batch
objects and stays inside a memory bound.
"""

import tracemalloc

import numpy as np
import pytest
from oracles import lane_loop, reference_loops

from repro.core.adaptive import AdaptiveRecalibration
from repro.core.cluster import _TenantLane, serve_pipeline
from repro.core.faults import (
    CoreDriftSnapshot,
    CoreHealthState,
    DriftSnapshotTable,
    FaultEvent,
    FaultSchedule,
    PoolHealth,
    RecalibrationPolicy,
    simulate_degraded_serving,
)
from repro.core.simkernel import BatchingPolicy
from repro.core.traffic import PipelineServiceModel
from repro.workloads import (
    alexnet_conv_specs,
    fault_scenario,
    poisson_arrivals,
    serving_network,
)

PEAK_BYTES_PER_OBJECT_RECORD = 3_793_822
"""tracemalloc peak of one drift-serving pass when every batch held a
tuple of snapshot objects (Python 3.11, numpy 2.4)."""


def _drift_serving():
    """The drift-serving benchmark's run: LeNet-5 on two cores under
    slow drift and the static recalibration trigger."""
    network = serving_network("lenet5")
    arrivals = poisson_arrivals(2e4, 20_000, seed=17)
    policy = BatchingPolicy.dynamic(4, 1e-4)
    schedule = fault_scenario("slow-drift", 2, float(arrivals[-1]))
    recalibration = RecalibrationPolicy(error_threshold=0.05)
    return lambda: simulate_degraded_serving(
        network, arrivals, policy, schedule, 2, recalibration=recalibration
    )


def _spy_rows(monkeypatch) -> list:
    """Capture, at every per-dispatch :meth:`DriftSnapshotTable.record`,
    the snapshots the stage cores' health states stand for."""
    rows = []
    record = DriftSnapshotTable.record

    def spy(table, row, states, phys):
        assert row == len(rows)
        rows.append(
            tuple(
                CoreDriftSnapshot(
                    core,
                    states[core].residual_shift_hz,
                    states[core].residual_gain,
                    states[core].probe.condition.dead_rings,
                    states[core].probe.condition.stuck_rings,
                )
                for core in phys
            )
        )
        record(table, row, states, phys)

    monkeypatch.setattr(DriftSnapshotTable, "record", spy)
    return rows


def _assert_reads_as(table: DriftSnapshotTable, expected: tuple) -> None:
    """The table behaves as the tuple of per-batch tuples ``expected``."""
    assert len(table) == len(expected)
    assert table == expected and expected == table
    assert repr(table) == repr(expected)
    assert tuple(iter(table)) == expected
    for index in (0, 1, -1, -len(expected)):
        assert repr(table[index]) == repr(expected[index])
    assert table[1:4] == expected[1:4]
    assert table[::-2] == expected[::-2]
    for bad in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            table[bad]
    assert table != expected[:-1]
    assert table != list(expected)
    np.testing.assert_array_equal(
        table.pristine(),
        [all(snapshot.pristine for snapshot in row) for row in expected],
    )


class TestReadsAsTheDispatchRecord:
    @pytest.mark.parametrize("scenario", ["ring-death", "mixed-degradation"])
    def test_epoch_table_equals_the_per_dispatch_record(
        self, scenario, monkeypatch
    ):
        """The epoch lane fills most rows a sweep at a time; the lane
        loop's per-dispatch record of the same run is its reference,
        and a second epoch run must give the same raw bytes."""
        specs = alexnet_conv_specs()
        arrivals = poisson_arrivals(5000.0, 800, seed=6)
        model = PipelineServiceModel.from_specs(specs, 3)
        policy = BatchingPolicy.dynamic(8, 1e-3)
        schedule = fault_scenario(scenario, 3, float(arrivals[-1]))

        def serve():
            health = PoolHealth(schedule, 3, RecalibrationPolicy())
            return serve_pipeline(
                model, policy, arrivals, health, specs, None, 0.5
            )

        lane, again = serve(), serve()
        rows = _spy_rows(monkeypatch)
        oracle = _TenantLane(
            0,
            "pipeline",
            specs,
            policy,
            arrivals,
            model,
            [0, 1, 2],
            3,
            None,
            fail_error_threshold=0.5,
            record_snapshots=True,
        )
        lane_loop(oracle, PoolHealth(schedule, 3, RecalibrationPolicy()))
        expected = tuple(rows)
        assert len(expected) == oracle.num_batches
        _assert_reads_as(lane.snapshots, expected)
        _assert_reads_as(oracle.snapshots, expected)
        assert lane.snapshots == oracle.snapshots
        # Raw columns too: the stages a drain narrowed away hold zeros,
        # and the epochs number the ring sets as the per-dispatch record
        # does.
        narrowed = np.arange(3) >= lane.snapshots.widths[:, None]
        for column in ("core", "residual_shift_hz", "tia_gain", "fault_key"):
            raw = getattr(lane.snapshots, column)
            assert not raw[narrowed].any()
            for other in (again, oracle):
                assert raw.tobytes() == (
                    getattr(other.snapshots, column).tobytes()
                )
        assert lane.snapshots.faults == oracle.snapshots.faults
        # Both runs drain a core: rows shrink from three stages to two.
        assert lane.repartitions
        assert {len(row) for row in expected} == {3, 2}
        # The dead core drains at the dispatch its rings die, so the
        # ring-death rows stay pristine; mixed degradation drifts from
        # the start.
        pristine = lane.snapshots.pristine()
        if scenario == "ring-death":
            assert pristine.all()
        else:
            assert not pristine.any()

    def test_ewma_epoch_table_equals_the_per_dispatch_record(
        self, monkeypatch
    ):
        arrivals = poisson_arrivals(2e4, 3000, seed=4)

        def run():
            return simulate_degraded_serving(
                serving_network("lenet5"),
                arrivals,
                BatchingPolicy.dynamic(4, 1e-4),
                fault_scenario("tia-aging", 2, float(arrivals[-1])),
                2,
                AdaptiveRecalibration(
                    base=RecalibrationPolicy(error_threshold=0.05),
                    smoothing=0.3,
                ),
            )

        report = run()
        rows = _spy_rows(monkeypatch)
        with reference_loops():
            oracle = run()
        assert len(rows) == len(report.batches) == len(oracle.batches)
        assert report.recalibrations == oracle.recalibrations
        assert report.decisions == oracle.decisions
        # The epochs booked most rows a sweep at a time.
        assert len(report.recalibrations) < len(rows) // 4
        _assert_reads_as(report.batch_snapshots, tuple(rows))

    def test_pristine_mask_reads_dead_rings(self):
        """Dead rings alone make a stage non-pristine; stuck rings and
        stages past a row's width do not."""
        schedule = FaultSchedule(
            "rings",
            (
                FaultEvent("dead_rings", 0, 0.0, 1.0, rings=(3,)),
                FaultEvent("stuck_rings", 1, 0.0, 1.0, rings=(2,)),
            ),
        )
        states = [CoreHealthState(core, schedule) for core in range(2)]
        for state in states:
            state.advance_to(0.0)
        table = DriftSnapshotTable(2)
        table.record(0, states, [0, 1])
        table.record(1, states, [1, 0])
        table.record(2, states, [1])
        rows = table.view(np.array([2, 2, 1]))
        np.testing.assert_array_equal(rows.pristine(), [False, False, True])
        assert rows[0][0].dead_rings == (3,)
        assert rows[2] == (rows[0][1],)

    def test_an_empty_recording_table_reads_as_an_empty_tuple(self):
        table = DriftSnapshotTable(2)
        assert len(table) == 0
        assert table == ()
        assert tuple(table) == ()
        assert table.pristine().shape == (0,)


class TestNoPerBatchObjects:
    """Serving records columns only: snapshot objects are built on
    read, and the record costs a fraction of the objects' memory."""

    def test_serving_builds_no_per_batch_snapshots(self, monkeypatch):
        run = _drift_serving()
        built = []
        init = CoreDriftSnapshot.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CoreDriftSnapshot, "__init__", counting)
        report = run()
        assert len(report.batches) > 7000
        assert len(built) <= 2 * (len(report.recalibrations) + 2)
        # Reading a row builds that row's snapshots and no others.
        before = len(built)
        row = report.batch_snapshots[-1]
        assert len(built) - before == len(row) == 2

    def test_one_pass_peak_memory_is_bounded(self):
        run = _drift_serving()
        run()  # warm the lazily built probe and network state
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * PEAK_BYTES_PER_OBJECT_RECORD
