"""The tentpole determinism contract: anomaly reports are
byte-identical across kernel backends."""

import numpy as np

from repro.anomaly import detect_anomalies, link_bin_medians, scan_links
from repro.store import canonical_json


def report_bytes(sim, grid, **kwargs):
    report = detect_anomalies(
        sim[0].results, grid, period_name="simulated", **kwargs
    )
    return canonical_json(report.payload)


class TestByteIdentity:
    def test_reference_vs_vector(self, sim, grid):
        assert report_bytes(sim, grid, kernels="reference") == \
            report_bytes(sim, grid, kernels="vector")


class TestKernelMedians:
    def test_backends_agree_exactly(self, sim, grid):
        scan = scan_links(sim[0].results, grid)
        ids_ref, med_ref, counts_ref = link_bin_medians(
            scan, kernels="reference"
        )
        ids_vec, med_vec, counts_vec = link_bin_medians(
            scan, kernels="vector"
        )
        assert ids_ref == ids_vec
        assert np.array_equal(counts_ref, counts_vec)
        assert np.array_equal(med_ref, med_vec, equal_nan=True)

    def test_min_samples_gate(self, sim, grid):
        scan = scan_links(sim[0].results, grid)
        _ids, medians, counts = link_bin_medians(
            scan, min_samples=10_000, kernels="reference"
        )
        assert np.all(np.isnan(medians))
        assert counts.sum() > 0
