"""The two-way band split of the beam-pattern sweep: from ``sweeps.SPLIT_BEAM_WORK``
a forked helper runs the second half of the band points. Its rows, peaks and
meta must be those of the serial run, a helper that dies must leave its band
points to this process, a failing band point must fail as it does there, every
helper must be reaped, and nothing may fork on
one CPU, at one band point, below the threshold or without OpenBLAS's
thread-count functions.
"""
import json
import math
import os
import signal

import pytest

from fwcsim import sweeps, tables
from fwcsim.config import config_from_dict
from fwcsim.errors import ValidationError
from test_drop_split import assert_no_child_left, failed_fork


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers forked while the test runs, with two CPUs usable
    whatever the host has, so the band splits. A helper that is never reaped
    would block the test: after 60 s SIGALRM ends the run instead."""
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    if tables._openblas_threads() is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    signal.alarm(60)
    yield pids
    signal.alarm(0)


def beam_config(points, elements, grid, steer=30.0):
    return config_from_dict({"sweep": {"num_band_points": points, "array_elements": elements,
                                       "theta_grid_deg": grid, "steer_theta_deg": steer}})


def beam_output(cfg):
    """The rows as their reprs (which tell -0.0 from 0.0) and the meta as JSON."""
    table = sweeps.run_beam_pattern(cfg)
    return [tuple(map(repr, row)) for row in table.rows], json.dumps(table.metadata)


SPLIT_CONFIGS = {
    # band points x N x T: 2 x 140 x 1,801 = 504,280, one band point a side.
    "two-points": (2, 140, [-90.0, 90.0, 0.1]),
    # 3 x 100 x 1,801 = 540,300: the helper takes two of the three.
    "odd-points": (3, 100, [-90.0, 90.0, 0.1]),
    # 5 x 64 x 1,801, a descending grid steered to the negative side.
    "descending": (5, 64, [90.0, -90.0, -0.1], -20.0),
}


@pytest.mark.parametrize("name", sorted(SPLIT_CONFIGS))
def test_split_band_matches_the_serial_rows_peaks_and_meta(monkeypatch, forks, name):
    points, elements, grid, *steer = SPLIT_CONFIGS[name]
    cfg = beam_config(points, elements, grid, *steer)
    assert points * elements * len(sweeps.angle_grid(*grid)) >= sweeps.SPLIT_BEAM_WORK
    split = beam_output(cfg)
    assert len(forks) == 1
    assert_no_child_left()
    monkeypatch.setattr(sweeps, "SPLIT_BEAM_WORK", math.inf)
    assert beam_output(cfg) == split
    assert len(forks) == 1


def test_a_killed_helper_leaves_its_band_points_to_this_process(monkeypatch, forks):
    cfg = beam_config(*SPLIT_CONFIGS["odd-points"])
    with monkeypatch.context() as patch:
        patch.setattr(sweeps, "SPLIT_BEAM_WORK", math.inf)
        serial = beam_output(cfg)
    parent, peaks = os.getpid(), sweeps.peak_directions

    def killed_in_helper(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return peaks(*args, **kwargs)

    monkeypatch.setattr(sweeps, "peak_directions", killed_in_helper)
    assert beam_output(cfg) == serial
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("half", ["helper", "parent"])
def test_a_failing_band_point_raises_the_serial_message(monkeypatch, forks, half):
    """One band point raises: in the helper's half the helper fails and this
    process runs its band points again; in this process's half the helper is
    killed. Either way the error is the serial run's."""
    cfg = beam_config(*SPLIT_CONFIGS["odd-points"])  # the helper takes points 1 and 2
    f_lo, f_hi = cfg.sweep.band_hz
    bad = f_hi if half == "helper" else f_lo
    patterns = sweeps.array_factor_patterns

    def failing_at_bad(geom, specs, band, thetas):
        if bad in band:
            raise ValidationError(f"band point {bad!r} fails")
        return patterns(geom, specs, band, thetas)

    monkeypatch.setattr(sweeps, "array_factor_patterns", failing_at_bad)
    with pytest.raises(ValidationError) as split:
        beam_output(cfg)
    assert len(forks) == 1
    assert_no_child_left()
    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", failed_fork)
        with pytest.raises(ValidationError) as serial:
            beam_output(cfg)
    assert str(split.value) == str(serial.value) == f"band point {bad!r} fails"


def test_one_cpu_one_band_point_little_work_or_no_setter_forks_nothing(monkeypatch, forks):
    past = beam_config(*SPLIT_CONFIGS["two-points"])
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        beam_output(past)
    with monkeypatch.context() as patch:
        patch.setattr(tables, "_openblas_threads", lambda: None)
        beam_output(past)
    one_point = beam_config(1, 8, [-90.0, 90.0, 0.0025])  # 1 x 8 x 72,001 = 576,008
    default = config_from_dict({})  # 5 x 8 x 1,801 = 72,040
    assert 8 * 72001 >= sweeps.SPLIT_BEAM_WORK > 5 * 8 * 1801
    beam_output(one_point)
    beam_output(default)
    assert forks == []
    assert_no_child_left()
