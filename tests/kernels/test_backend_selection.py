"""Backend selection: resolution, the contract surface, and
observability."""

import datetime as dt

import numpy as np
import pytest

from repro.core.kernels import (
    DEFAULT_KERNELS,
    record_kernel_op,
    resolve_kernels,
)
from repro.core.kernels.reference import REFERENCE, ReferenceKernels
from repro.core.kernels.vector import VECTOR, VectorKernels
from repro.obs import observed
from repro.parallel.worker import SurveyShardTask
from repro.scenarios import generate_specs
from repro.timebase import MeasurementPeriod

#: The whole public surface of a backend: its name and the three ops.
CONTRACT = {"name", "group_medians", "population_medians", "markers_batch"}


def public_surface(cls):
    return {name for name in dir(cls) if not name.startswith("_")}


class TestResolveKernels:
    def test_default_is_vector(self):
        kern = resolve_kernels()
        assert kern is VECTOR
        assert kern.name == DEFAULT_KERNELS == "vector"

    def test_explicit_names(self):
        assert resolve_kernels("reference") is REFERENCE
        assert resolve_kernels("vector") is VECTOR

    def test_env_var_ignored(self, monkeypatch):
        """The backend is chosen by argument only: the old
        ``REPRO_KERNELS`` knob no longer changes anything."""
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        assert resolve_kernels() is VECTOR

    def test_backend_object_passes_through(self):
        custom = VectorKernels()
        assert resolve_kernels(custom) is custom
        assert resolve_kernels(VECTOR) is VECTOR

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError) as err:
            resolve_kernels("turbo")
        message = str(err.value)
        assert "turbo" in message
        for name in ("reference", "vector"):
            assert name in message


class TestBackendCapabilities:
    """No capability flags: both backends expose exactly the contract,
    so no caller can branch on one."""

    def test_reference_exposes_the_contract(self):
        assert public_surface(ReferenceKernels) == CONTRACT
        assert REFERENCE.name == "reference"

    def test_vector_exposes_the_contract(self):
        assert public_surface(VectorKernels) == CONTRACT
        assert VECTOR.name == "vector"


class TestShardTaskCarriesBackend:
    """Shard invariance: the parent resolves once and ships the name,
    so every worker process runs the parent's backend."""

    def test_survey_task_field_default(self):
        specs = generate_specs(num_ases=2, num_countries=2, seed=1)
        period = MeasurementPeriod("t", dt.datetime(2019, 9, 2), 1)
        task = SurveyShardTask(
            index=0, specs=specs, period=period, lockdown=False,
            seed=1, groups={},
        )
        assert task.kernels == DEFAULT_KERNELS

    def test_survey_task_accepts_backend_name(self):
        specs = generate_specs(num_ases=2, num_countries=2, seed=1)
        period = MeasurementPeriod("t", dt.datetime(2019, 9, 2), 1)
        task = SurveyShardTask(
            index=0, specs=specs, period=period, lockdown=False,
            seed=1, groups={}, kernels="vector",
        )
        assert resolve_kernels(task.kernels) is VECTOR


class TestKernelOpCounter:
    def test_counter_emitted_per_backend_and_op(self):
        with observed() as obs:
            record_kernel_op("vector", "group-medians")
            record_kernel_op("vector", "group-medians", 4)
            record_kernel_op("reference", "population-medians")
        counter = obs.metrics.get("kernel_ops_total")
        assert counter.value(kernel="vector", op="group-medians") == 5
        assert counter.value(
            kernel="reference", op="population-medians"
        ) == 1

    def test_noop_without_observer(self):
        # Must be a silent no-op under the default NOOP observer.
        record_kernel_op("vector", "group-medians")

    def test_pipeline_emits_kernel_ops(self):
        from repro.core import aggregate_population, LastMileDataset
        from repro.core.series import ProbeBinSeries
        from repro.timebase import TimeGrid

        period = MeasurementPeriod("t", dt.datetime(2019, 9, 2), 2)
        grid = TimeGrid(period)
        dataset = LastMileDataset(grid=grid)
        dataset.add(ProbeBinSeries(
            prb_id=1,
            median_rtt_ms=np.full(grid.num_bins, 2.0),
            traceroute_counts=np.full(grid.num_bins, 24),
        ))
        with observed() as obs:
            aggregate_population(dataset, [1], kernels="vector")
        counter = obs.metrics.get("kernel_ops_total")
        assert counter.value(
            kernel="vector", op="population-medians"
        ) == 1
