"""Self-check suite plumbing: report structure, overrides, progress hook."""

import json

import pytest

from majorana import verify

SMALL = dict(n=8, nr=48, rmax=16.0, ntheta=12, nphi=24, lmax=2, np_points=48)


@pytest.fixture(scope="module")
def report():
    return verify.run_suite(verify.VerifySettings(**SMALL))


def test_suite_passes_and_is_large_enough(report):
    assert report.passed
    assert len(report.checks) >= 30
    assert all(c.passed for c in report.checks)
    assert all(c.measured <= c.tolerance for c in report.checks)


def test_check_ids_unique_and_namespaced(report):
    ids = [c.test_id for c in report.checks]
    assert len(set(ids)) == len(ids)
    prefixes = {i.split('.')[0] for i in ids}
    assert prefixes == {"clifford", "lorentz", "fourier", "angular", "hankel"}
    assert ids == list(verify.CHECK_IDS)   # the ids a tolerance override may name


def test_report_json_roundtrip(report):
    doc = json.loads(report.to_json())
    assert doc["passed"] is True
    assert len(doc["checks"]) == len(report.checks)
    first = doc["checks"][0]
    assert set(first) == {"test_id", "anchor", "measured", "tolerance", "passed"}


def test_tolerance_override_fails_single_check():
    st = verify.VerifySettings(tolerances={"fourier.roundtrip": 1e-30}, **SMALL)
    rep = verify.run_suite(st)
    assert not rep.passed
    failed = [c.test_id for c in rep.checks if not c.passed]
    assert failed == ["fourier.roundtrip"]


def test_progress_callback_sees_every_check(report):
    seen = []
    rep = verify.run_suite(verify.VerifySettings(**SMALL), progress=seen.append)
    assert len(seen) == len(rep.checks)
    assert all(isinstance(c, verify.CheckResult) for c in seen)
