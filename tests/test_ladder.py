"""Tests for the speculative threshold ladder.

The ladder must return exactly what the serial loop returns, whatever
width it runs at, and must leave no child process behind.  Widths are
set by faking the usable core count and pinning BLAS to one thread.
"""

import contextlib
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_core import _toy_power_table, _toy_timing_table
from test_stages import _tiny_config

from repro.core import (
    PipelineOps,
    delay_threshold_search,
    power_threshold_search,
)
from repro.core import ladder
from repro.core.ladder import ladder_width, run_ladder
from repro.cpus import usable_cores
from repro.experiments.parallel import default_jobs, parallel_map

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the ladder runs serially without the fork start method")


ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1"}


@contextlib.contextmanager
def _cores(n, blas_env=ONE_BLAS_THREAD):
    """``n`` usable cores, BLAS thread variables set to ``blas_env``."""
    with mock.patch.object(ladder, "usable_cores", lambda: n), \
            mock.patch.dict(os.environ):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            os.environ.pop(var, None)
        os.environ.update(blas_env)
        yield


class StepError(Exception):
    """Raised by a trial; its args name the step."""


def _trial(outcomes):
    def trial(step):
        kind = outcomes[step]
        if kind == "raise":
            raise StepError(step)
        return None if kind == "skip" else (kind, step)

    return trial


def _passed(result):
    return result is not None and result[0] == "pass"


def _serial(trial, steps, passed):
    results = []
    for step in steps:
        results.append(trial(step))
        if not passed(results[-1]):
            break
    return results


def _returned_or_raised(run):
    try:
        return "returned", run()
    except StepError as error:
        return "raised", type(error), error.args


@settings(max_examples=40, deadline=None)
@given(outcomes=st.lists(st.sampled_from(["pass", "fail", "skip", "raise"]),
                         max_size=7),
       width=st.integers(1, 4))
def test_replays_the_serial_loop(outcomes, width):
    trial = _trial(outcomes)
    steps = list(range(len(outcomes)))
    expected = _returned_or_raised(lambda: _serial(trial, steps, _passed))
    with _cores(width):
        got = _returned_or_raised(lambda: run_ladder(trial, steps, _passed))
    assert got == expected
    assert multiprocessing.active_children() == []


def test_child_exception_keeps_its_type_and_traceback():
    def trial(step):
        if step == 850.0:
            raise ValueError("no weights below 850")
        return step

    with _cores(2), pytest.raises(ValueError, match="below 850") as info:
        run_ladder(trial, [900.0, 850.0], lambda result: True)
    assert "Traceback" in str(info.value.__cause__)
    assert multiprocessing.active_children() == []


class _Unpicklable(Exception):
    def __init__(self, step, why):
        super().__init__(step)


def test_unshippable_child_exception_is_reported_with_its_traceback():
    def trial(step):
        if step == 850.0:
            raise _Unpicklable(step, "custom __init__")
        return step

    with _cores(2), pytest.raises(RuntimeError,
                                  match="threshold 850.0 raised") as info:
        run_ladder(trial, [900.0, 850.0], lambda result: True)
    assert "_Unpicklable" in str(info.value)


def test_dead_child_names_its_threshold():
    def trial(step):
        if step == 850.0:
            os._exit(3)  # no exception, no result: like the OOM killer
        return step

    with _cores(2), pytest.raises(RuntimeError,
                                  match="threshold 850.0 died.*code 3"):
        run_ladder(trial, [900.0, 850.0], lambda result: True)
    assert multiprocessing.active_children() == []


def _sleep_unless_first(step):
    if step == 0:
        return "first"
    time.sleep(60)


def test_stop_terminates_speculative_children():
    start = time.monotonic()
    with _cores(3):
        results = run_ladder(_sleep_unless_first, [0, 1, 2],
                             lambda result: False)
    assert results == ["first"]
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def test_interrupt_terminates_children():
    def trial(step):
        if step == 0:
            raise KeyboardInterrupt
        return _sleep_unless_first(step)

    start = time.monotonic()
    with _cores(2), pytest.raises(KeyboardInterrupt):
        run_ladder(trial, [0, 1], lambda result: True)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def test_width_is_the_core_share_over_blas_threads():
    with _cores(8):
        assert ladder_width(1) == 1
        assert ladder_width(4) == 4
    with _cores(8, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "8"}):
        assert ladder_width(8) == 4
    with _cores(8, {"OMP_NUM_THREADS": "4"}):
        assert ladder_width(8) == 2
    # Unset, OpenBLAS runs a thread per core: no room for a second trial.
    with _cores(8, {}):
        assert ladder_width(4) == 1


def _worker_width(steps):
    return ladder_width(steps)


def test_pool_workers_share_the_cores():
    jobs = usable_cores()
    with mock.patch.dict(os.environ, ONE_BLAS_THREAD):
        widths = parallel_map(_worker_width, [4] * jobs, jobs=jobs)
    assert widths == [1] * jobs


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity API")
def test_all_cores_means_the_affinity_mask():
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        assert usable_cores() == 1
        assert default_jobs() == 1
        with mock.patch.dict(os.environ, ONE_BLAS_THREAD):
            assert ladder_width(4) == 1
    finally:
        os.sched_setaffinity(0, mask)


_EXIT_MID_WAVE = """
import os, sys, threading, time
from repro.core import ladder

def trial(step):
    if step == 1:
        with open(sys.argv[1], "w") as handle:
            handle.write(str(os.getpid()))
    time.sleep(60)

ladder.usable_cores = lambda: 2
os.environ["OPENBLAS_NUM_THREADS"] = "1"
threading.Thread(target=ladder.run_ladder, args=(trial, [0, 1], bool),
                 daemon=True).start()
while not os.path.getsize(sys.argv[1]):
    time.sleep(0.05)
"""


def test_normal_exit_mid_wave_terminates_children(tmp_path):
    """A search on a daemon thread does not hold up the parent's exit."""
    pid_file = tmp_path / "child.pid"
    pid_file.write_text("")
    src = str(Path(ladder.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", _EXIT_MID_WAVE, str(pid_file)],
                   check=True, timeout=30, env=env)
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def _search(width):
    """Both searches on a tiny LeNet5; every step passes."""
    ops = PipelineOps(_tiny_config())
    retrain = ops.retrain_fn(ops.build_dataset())
    model = ops.build_model()
    timing = _toy_timing_table()
    with _cores(width):
        assert ladder_width(4) == width
        power = power_threshold_search(
            model, _toy_power_table(), retrain, baseline_accuracy=0.0,
            thresholds=(900.0, 850.0, 825.0, 800.0))
        power_state = model.state_dict()
        delay = delay_threshold_search(
            model, timing, candidate_weights=timing.weights,
            retrain=retrain, original_accuracy=0.0, n_restarts=2)
    return power, power_state, delay, model.state_dict()


def _assert_states_identical(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert a[key].dtype == b[key].dtype, key
            assert a[key].tobytes() == b[key].tobytes(), key
        else:
            assert a[key] == b[key], key


def test_searches_are_bit_identical_at_width_1_and_2():
    serial_power, serial_mid, serial_delay, serial_end = _search(1)
    power, mid, delay, end = _search(2)
    # The last step of each 4-step ladder ran in a child at width 2.
    assert power.threshold_uw == serial_power.threshold_uw == 800.0
    assert power.history == serial_power.history
    np.testing.assert_array_equal(power.allowed_weights,
                                  serial_power.allowed_weights)
    assert delay.threshold_ps == serial_delay.threshold_ps == 140.0
    assert delay.history == serial_delay.history
    np.testing.assert_array_equal(delay.selection.activations,
                                  serial_delay.selection.activations)
    _assert_states_identical(mid, serial_mid)
    _assert_states_identical(end, serial_end)
