"""The one-BLAS-thread pin: restoring, nesting, threads, no library, and fits
that do not depend on the caller's BLAS thread count."""

import sys
import threading
import time

import pytest

from igsaft.blas import OpenBlas, _OneThread, blas_threads, bundled_openblas, one_blas_thread
from igsaft.pipeline import FitConfig, fit_igsaft
from igsaft.simulate import SimConfig, generate

needs_openblas = pytest.mark.skipif(not bundled_openblas(),
                                    reason="no bundled OpenBLAS found to pin")


class FakeBlas:
    def __init__(self, count):
        self.count = count

    def lib(self, package="fake"):
        return OpenBlas(package, lambda: self.count, self._set)

    def _set(self, k):
        time.sleep(0)  # a thread switch here widens any race on the pin's state
        self.count = k


def set_caller_threads(k):
    for lib in bundled_openblas():
        lib.set(k)


@pytest.fixture
def caller_threads():
    """Sets the process's BLAS thread count for a test; restores it after."""
    before = [lib.get() for lib in bundled_openblas()]
    yield set_caller_threads
    for lib, k in zip(bundled_openblas(), before):
        lib.set(k)


def test_pin_restores_prior_count_when_nested():
    fakes = [FakeBlas(3), FakeBlas(2)]
    pin = _OneThread(lambda: tuple(f.lib() for f in fakes))
    with pin:
        assert [f.count for f in fakes] == [1, 1]
        with pin:
            assert [f.count for f in fakes] == [1, 1]
        assert [f.count for f in fakes] == [1, 1]  # the inner exit keeps the pin
    assert [f.count for f in fakes] == [3, 2]


def test_pin_restores_after_an_exception():
    fake = FakeBlas(4)
    pin = _OneThread(lambda: (fake.lib(),))
    with pytest.raises(ValueError):
        with pin:
            raise ValueError("inside the pin")
    assert fake.count == 4


def test_pin_without_a_library_does_nothing():
    pin = _OneThread(lambda: ())
    before = blas_threads()
    with pin:
        with pin:
            assert blas_threads() == before
    assert blas_threads() == before


def test_pin_shared_by_threads_restores_once():
    # more threads than cores, switching often: the count is process-wide, so
    # it must stay 1 while any thread is inside and come back after the last
    fake = FakeBlas(2)
    pin = _OneThread(lambda: (fake.lib(),))
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(300):
                with pin:
                    seen.append(fake.count)
        workers = [threading.Thread(target=work) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 8 * 300 and set(seen) == {1}
    assert fake.count == 2


@needs_openblas
def test_real_pin_restores_prior_count_when_nested(caller_threads):
    caller_threads(2)
    before = blas_threads()
    with one_blas_thread:
        assert set(blas_threads().values()) == {1}
        with one_blas_thread:
            assert set(blas_threads().values()) == {1}
        assert set(blas_threads().values()) == {1}
    assert blas_threads() == before


@pytest.fixture(scope="module")
def design():
    # n = 2000, p = 10: large enough that OpenBLAS splits the AIPCW products
    # over threads, so unpinned fits differ in the last bits between 1 and 2
    return generate(SimConfig(case=1, n=2000, p=10, target_cr=0.2, seed=3, reps=1), 0)[0]


@needs_openblas
@pytest.mark.parametrize("caller", [1, 2])
def test_fit_leaves_blas_thread_count_as_found(design, caller_threads, caller):
    caller_threads(caller)
    before = blas_threads()
    fit_igsaft(design, FitConfig(n_splits=1))
    assert blas_threads() == before


@needs_openblas
def test_fit_is_bit_identical_whatever_the_caller_blas_threads(design, caller_threads):
    reports = []
    for k in (1, 2):
        caller_threads(k)
        reports.append(fit_igsaft(design, FitConfig(n_splits=1)).to_dict())
    assert repr(reports[0]) == repr(reports[1])
