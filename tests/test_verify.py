"""Self-check suite plumbing: report structure, overrides, progress hook."""

import json
import math

import numpy as np
import pytest

from majorana import hankel, lorentz, verify

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


@pytest.mark.parametrize("bad_mode", [(1, 0), (3, -2)])
def test_nan_eigen_residual_fails_its_check(bad_mode, monkeypatch):
    # a NaN in either mode's radial factor fails hankel.eigen-relation, and
    # only it; lmax 3 checks both modes
    factors = hankel._kernel_factors

    def nan_f(p, mode, *args):
        f, A = factors(p, mode, *args)
        if tuple(mode) == bad_mode:
            f = f.copy()
            f[0, f.shape[1] // 2] = np.nan
        return f, A

    monkeypatch.setattr(hankel, "_kernel_factors", nan_f)
    rep = verify.run_suite(verify.VerifySettings(**dict(SMALL, lmax=3)))
    assert not rep.passed
    failed = [c for c in rep.checks if not c.passed]
    assert [c.test_id for c in failed] == ["hankel.eigen-relation"]
    assert math.isnan(failed[0].measured)


def test_inner_products_match_einsum_form():
    # the direct form: per draw Phi = N(0, 1) env, then two 4-operand einsums
    # over the weights, with the rng where _hankel_suite leaves it after its chi
    st = verify.VerifySettings(**SMALL)
    got = {}
    verify._hankel_suite(lambda tid, anchor, measured, tol: got.setdefault(tid, measured),
                         st, np.random.default_rng(st.seed))
    rng = np.random.default_rng(st.seed)
    chi = rng.standard_normal(4)
    g = hankel.SphericalGrid(st.nr, st.rmax, st.ntheta, st.nphi, st.lmax, st.np_points)
    gsr = np.exp(-((g.r - st.rmax / 4) / (st.rmax / 20)) ** 2)
    base = np.einsum('xyab,b->xya', g.omega((1, 0)), chi)
    Psi = hankel.SphericalField(g, gsr[:, None, None, None] * base[None], st.mass)
    Psi2 = hankel.inverse_hankel(hankel.forward_hankel(Psi))
    worst = 0.0
    for _ in range(5):
        env = np.exp(-((g.r - st.rmax / 4) / (st.rmax / 8)) ** 2)
        Phi = rng.standard_normal(Psi.values.shape) * env[:, None, None, None]
        ip1 = np.einsum('rxya,rxya,r,xy->', Phi, Psi.values, g.wr, g.angular.weights)
        ip2 = np.einsum('rxya,rxya,r,xy->', Phi, Psi2.values, g.wr, g.angular.weights)
        worst = max(worst, abs(ip1 - ip2) / abs(ip1))
    assert worst > 0.0
    assert abs(got["hankel.inner-products"] - worst) <= 1e-12


def lorentz_checks(seed):
    got = {}
    verify._lorentz_suite(lambda tid, anchor, measured, tol: got.setdefault(tid, (measured, tol)),
                          np.random.default_rng(seed))
    return got


def test_lorentz_suite_records_a_drawn_non_pin_element_as_nan():
    # seed 1713693870 draws an S S' whose round-off trips lambda_of's Pin(3,1)
    # test: lorentz.homomorphism fails with NaN and the suite goes on
    got = lorentz_checks(1713693870)
    assert list(got) == [i for i in verify.CHECK_IDS if i.startswith("lorentz.")]
    assert len(got) == 8
    assert math.isnan(got["lorentz.homomorphism"][0])
    assert all(measured <= tol for tid, (measured, tol) in got.items()
               if tid != "lorentz.homomorphism")


def test_lorentz_homomorphism_fails_at_seed_1975():
    # absolute tolerance against round-off on large boosts, unchanged
    got = lorentz_checks(1975)
    measured, tol = got["lorentz.homomorphism"]
    assert tol == 1e-9
    assert measured == pytest.approx(1.135e-9, rel=1e-3)
    assert all(measured <= tol for tid, (measured, tol) in got.items()
               if tid != "lorentz.homomorphism")


@pytest.mark.parametrize("name, hit", [
    ("lambda_of", {"lorentz.homomorphism", "lorentz.metric", "lorentz.double-cover"}),
    ("pin_flags", {"lorentz.coset-table"}),
    ("polar_decompose", {"lorentz.polar"}),
])
def test_not_pin_error_fails_only_the_checks_that_read_it(name, hit, monkeypatch):
    # the checks after a NaN read the same draws as an unpatched run
    want = lorentz_checks(1234)

    def raise_not_pin(*args, **kwargs):
        raise lorentz.NotPinError("patched")

    monkeypatch.setattr(lorentz, name, raise_not_pin)
    got = lorentz_checks(1234)
    assert list(got) == list(want)
    assert {tid for tid, (measured, _) in got.items() if math.isnan(measured)} == hit
    assert all(got[tid] == want[tid] for tid in got if tid not in hit)
