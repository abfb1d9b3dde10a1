"""A split's second fold in a forked process (`moments._fan_out`): the same
A, B, counts and report as the folds in turn, a child's failure raised in
the caller as on the serial path, and no process left behind."""

import gc
import os
import re
import signal
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace

import pytest

import igsaft.pipeline
from igsaft import moments
from igsaft.pipeline import FitConfig, _fold_assignment, fit_igsaft
from igsaft.simulate import SimConfig, generate

# a censored p = 10 design (d_only kernel, m = 45) and an uncensored p = 5
# one (full kernel, m = 10)
DESIGNS = {
    "p10_cr20": SimConfig(case=1, n=600, p=10, target_cr=0.2, seed=0, reps=1),
    "p5_cr0": SimConfig(case=1, n=400, p=5, target_cr=0.0, seed=0, reps=1),
}


@pytest.fixture(scope="module")
def datasets():
    return {name: generate(cfg, 0, taus=(-2.0, 14.0) if cfg.target_cr else None)[0]
            for name, cfg in DESIGNS.items()}


def assert_nothing_left():
    """No child process, reaped or not, and no object left frozen."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert gc.get_freeze_count() == 0


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the main thread if the block runs too long."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    before = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)


def fit_recording(monkeypatch, forked, ds, cfg):
    """fit_igsaft with fan-out forced on or off; its report and, per split,
    the bytes of A and B, the stats and the per-fold outputs."""
    monkeypatch.setattr(moments, "_fan_out", lambda: forked)
    build, matrices = igsaft.pipeline.build_moment_matrix, []

    def recorded(*args, **kwargs):
        M = build(*args, **kwargs)
        matrices.append((M.A.tobytes(), M.B.tobytes(), M.stats, M.folds))
        return M

    monkeypatch.setattr(igsaft.pipeline, "build_moment_matrix", recorded)
    report = fit_igsaft(ds, cfg)
    monkeypatch.setattr(igsaft.pipeline, "build_moment_matrix", build)
    assert_nothing_left()
    return report, matrices


def label_of(training_ids, ds, cfg):
    """The split-0 fold a fit on training_ids evaluates: the other fold."""
    return 1 - _fold_assignment(ds.n, cfg.seed)[training_ids[0]]


@pytest.mark.parametrize("design", sorted(DESIGNS))
@pytest.mark.parametrize("n_splits", [1, 3])
def test_forked_folds_match_the_folds_in_turn(design, n_splits, datasets, monkeypatch):
    ds, cfg = datasets[design], FitConfig(n_splits=n_splits, screen=False)
    serial, serial_M = fit_recording(monkeypatch, False, ds, cfg)
    forked, forked_M = fit_recording(monkeypatch, True, ds, cfg)
    assert len(serial_M) == n_splits and forked_M == serial_M
    assert repr(forked.to_dict()) == repr(serial.to_dict())
    assert len(forked.bandwidths) == 2 and all(forked.bandwidths)


def test_ridge_fallback_warnings_come_back_in_label_order(datasets, monkeypatch):
    ds, cfg = datasets["p5_cr0"], FitConfig(n_splits=2, screen=False)
    fit_all = igsaft.pipeline.fit_all

    def ridged(*args, **kwargs):
        nuis = fit_all(*args, **kwargs)
        return replace(nuis, partials={k: replace(pf, ridge_fallback=True)
                                       for k, pf in nuis.partials.items()})

    monkeypatch.setattr(igsaft.pipeline, "fit_all", ridged)
    serial, _ = fit_recording(monkeypatch, False, ds, cfg)
    forked, _ = fit_recording(monkeypatch, True, ds, cfg)
    assert [w for w in forked.warnings if "ridge" in w] == [
        f"split {s}, fold {f}: partialling used a ridge fallback" for s in (0, 1) for f in (0, 1)]
    assert forked.warnings == serial.warnings
    assert repr(forked.to_dict()) == repr(serial.to_dict())


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


@pytest.mark.parametrize("failing, error, wanted", [
    ((1,), ValueError, (ValueError, "fold 1 fails")),
    ((0, 1), ValueError, (ValueError, "fold 0 fails")),  # fold 0's error wins
    ((1,), Unpicklable, (RuntimeError, "test_fold_processes.Unpicklable: fold 1 fails")),
])
def test_a_failing_fold_raises_as_in_turn(failing, error, wanted, datasets, monkeypatch):
    ds, cfg = datasets["p5_cr0"], FitConfig(n_splits=1, screen=False)
    fit_all = igsaft.pipeline.fit_all

    def failing_fit(data, spec, kernel, training_ids):
        label = label_of(training_ids, ds, cfg)
        if label in failing:
            raise error(f"fold {label} fails")
        return fit_all(data, spec, kernel, training_ids=training_ids)

    monkeypatch.setattr(igsaft.pipeline, "fit_all", failing_fit)
    raised = []
    for forked in (False, True):
        monkeypatch.setattr(moments, "_fan_out", lambda forked=forked: forked)
        with deadline(60), pytest.raises(Exception) as info:
            fit_igsaft(ds, cfg)
        raised.append((info.type, str(info.value)))
        assert_nothing_left()
    if error is Unpicklable:  # only the forked path cannot send it as it is
        assert raised[0] == (Unpicklable, "fold 1 fails")
        del raised[0]
    assert set(raised) == {wanted}


def test_a_child_that_exits_without_a_result_names_its_status(datasets, monkeypatch):
    ds, parent = datasets["p5_cr0"], os.getpid()
    fit_all = igsaft.pipeline.fit_all

    def exiting(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return fit_all(*args, **kwargs)

    monkeypatch.setattr(igsaft.pipeline, "fit_all", exiting)
    monkeypatch.setattr(moments, "_fan_out", lambda: True)
    with deadline(60), pytest.raises(RuntimeError, match="fold 1 exited with status 3 "):
        fit_igsaft(ds, FitConfig(n_splits=1, screen=False))
    assert_nothing_left()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_failing_caller_kills_and_reaps_the_child(error, datasets, monkeypatch):
    ds, parent = datasets["p5_cr0"], os.getpid()

    def caller_fails_child_sleeps(*args, **kwargs):
        if os.getpid() == parent:
            raise error("fold 0 fails")
        time.sleep(600)

    monkeypatch.setattr(igsaft.pipeline, "fit_all", caller_fails_child_sleeps)
    monkeypatch.setattr(moments, "_fan_out", lambda: True)
    start = time.perf_counter()
    with deadline(60), pytest.raises(error, match="fold 0 fails"):
        fit_igsaft(ds, FitConfig(n_splits=1, screen=False))
    assert time.perf_counter() - start < 30
    assert_nothing_left()


def test_a_fit_with_forked_folds_warns_nothing(datasets, monkeypatch):
    # Python 3.12 warns at os.fork in a process with threads, and numpy's
    # OpenBLAS starts its pool at import; the fork silences that one warning
    monkeypatch.setattr(moments, "_fan_out", lambda: True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_igsaft(datasets["p10_cr20"], FitConfig(n_splits=2, screen=False))
    assert_nothing_left()
    assert re.match(moments._FORK_WARNING, "This process (pid=4242) is multi-threaded, "
                                           "use of fork() may lead to deadlocks in the child.")


def test_objects_the_caller_froze_stay_frozen(datasets, monkeypatch):
    # the fork freezes the caller's objects only if none are frozen, as
    # unfreezing thaws them all
    monkeypatch.setattr(moments, "_fan_out", lambda: True)
    gc.freeze()
    try:
        fit_igsaft(datasets["p5_cr0"], FitConfig(n_splits=1, screen=False))
        assert gc.get_freeze_count() > 0  # unfreezing would have emptied it
    finally:
        gc.unfreeze()
    assert_nothing_left()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity mask")
def test_fan_out_is_off_with_one_cpu_and_in_workers(monkeypatch):
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(moments._fan_out).result(timeout=60) is False
    assert_nothing_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert moments._fan_out() is False
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert moments._fan_out() is sys.platform.startswith("linux")
