"""The two-way drop split: from ``sweeps.SPLIT_DROP_WORK`` a forked helper runs
the second half of a throughput sweep's Monte Carlo seeds. Its arrays must be
those of the serial loop, a failing seed must fail as it does there, the
helper must be reaped on every path, and the BLAS thread count must come back.
"""
import ctypes
import hashlib
import json
import math
import os
import signal
from pathlib import Path
from typing import get_args

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fwcsim import sweeps
from fwcsim.cli import main
from fwcsim.config import config_from_dict
from fwcsim.errors import ValidationError
from fwcsim.geometry import AssociationMode
from test_golden import GOLDEN

EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"

USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or USABLE_CPUS < 2,
    reason="the drops split only where os.fork exists and two CPUs are usable")


def openblas_threads():
    """OpenBLAS's thread-count getter and setter, looked up apart from sweeps."""
    core = getattr(np, "_core", None) or np.core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads"):
        get, set_ = (getattr(lib, name % verb, None) for verb in ("get", "set"))
        if get is not None:
            get.restype = ctypes.c_int
            set_.argtypes = [ctypes.c_int]
            return get, set_
    pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers forked while the test runs. A helper that is
    never reaped would block the test: after 60 s SIGALRM ends the run."""
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


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failed_fork():
    raise OSError(11, "Resource temporarily unavailable")


def components_bytes(cfg) -> bytes:
    components = sweeps._drop_components(cfg, sweeps._ue_counts(cfg.sweep.m_values))
    return b"".join(c.tobytes() for c in components.values())


def split_config(drops, small, extra, mode, seed):
    """A sweep whose largest M brings drops x sum(M*J) past the split threshold."""
    largest = math.isqrt(2 * sweeps.SPLIT_DROP_WORK // drops) + extra
    cfg = config_from_dict({
        "sweep": {"m_values": [*small, largest], "association_mode": mode},
        "monte_carlo_drops": drops, "base_seed": seed, "budget_w": 1e5})
    work = drops * sum(m * j for m, j in sweeps._ue_counts(cfg.sweep.m_values).items())
    assert work >= sweeps.SPLIT_DROP_WORK
    return cfg


@settings(max_examples=8, deadline=None)
@given(drops=st.sampled_from([2, 3, 5, 7]),
       small=st.lists(st.integers(1, 40), max_size=2, unique=True),
       extra=st.integers(1, 40), mode=st.sampled_from(get_args(AssociationMode)),
       seed=st.integers(0, 1000))
@example(drops=2, small=[], extra=1, mode="rap_nearest", seed=0)
@example(drops=7, small=[33, 1], extra=40, mode="ue_nearest", seed=1000)
def test_split_drops_match_the_serial_bytes(drops, small, extra, mode, seed):
    """Against the serial loop, and against the fallback, where the fork fails
    and this process runs the helper's seeds too. Both run at one BLAS thread
    whatever the host's count, as the split does: the Gram product's last bits
    depend on the count for most M past 128 (M = 548, the first example, is
    one)."""
    cfg = split_config(drops, small, extra, mode, seed)
    pids, fork = [], os.fork
    with pytest.MonkeyPatch.context() as patch:  # hypothesis takes no function fixture
        patch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
        split = components_bytes(cfg)
        patch.setattr(os, "fork", failed_fork)
        fallback = components_bytes(cfg)
        patch.setattr(sweeps, "SPLIT_DROP_WORK", math.inf)
        serial = components_bytes(cfg)
    assert len(pids) == 1
    assert split == serial == fallback
    assert_no_child_left()


def test_one_drop_or_little_work_runs_no_helper(forks):
    one_drop = config_from_dict({"sweep": {"m_values": [800]}, "monte_carlo_drops": 1})
    little = config_from_dict({"sweep": {"m_values": [256]}, "monte_carlo_drops": 4})
    assert 800 * 400 >= sweeps.SPLIT_DROP_WORK > 4 * 256 * 128
    components_bytes(one_drop)
    components_bytes(little)
    assert forks == []


def test_each_drops_fixed_cost_counts_toward_the_split(forks):
    """Each drop at each M costs about 0.2 ms that M*J does not count: 80 drops
    at M = 64 and 100 at M = 16 split, 4 drops at M = 256 stay serial."""
    split = []
    for m, drops in ((64, 80), (16, 100), (256, 4)):
        before = len(forks)
        components_bytes(config_from_dict({"sweep": {"m_values": [m]},
                                           "monte_carlo_drops": drops}))
        split.append(len(forks) > before)
    assert split == [True, True, False]
    assert_no_child_left()


def test_one_cpu_or_no_fork_keeps_the_loop_serial(monkeypatch, forks):
    cfg = split_config(2, [], 1, "rap_nearest", 1)
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        components_bytes(cfg)
    assert forks == []
    monkeypatch.delattr(os, "fork")
    components_bytes(cfg)
    assert_no_child_left()


@pytest.mark.parametrize("half", ["helper", "parent"])
def test_a_failing_seed_raises_the_serial_message(monkeypatch, forks, half):
    """A RAP with zero gain at one seed: in the helper's half the helper
    fails and this process runs its seeds again; in this process's half the
    helper is killed. Either way the error is the serial loop's."""
    cfg = split_config(5, [8], 1, "ue_nearest", 10)
    bad_seed = cfg.base_seed + (4 if half == "helper" else 1)
    draw = sweeps.draw_channels

    def zero_row_at_bad_seed(dist, model, drop_seed, **kwargs):
        gains = draw(dist, model, drop_seed, **kwargs)
        if drop_seed == bad_seed:
            gains[0] = 0.0
        return gains

    monkeypatch.setattr(sweeps, "draw_channels", zero_row_at_bad_seed)
    with pytest.raises(ValidationError) as split:
        components_bytes(cfg)
    assert len(forks) == 1
    assert_no_child_left()
    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", failed_fork)
        with pytest.raises(ValidationError) as serial:
            components_bytes(cfg)
    assert str(split.value) == str(serial.value)
    assert "a RAP has zero gain to every UE" in str(split.value)


def test_a_killed_helper_leaves_its_seeds_to_this_process(monkeypatch, forks):
    cfg = split_config(3, [], 5, "rap_nearest", 3)
    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", failed_fork)
        serial = components_bytes(cfg)
    parent, run_drop = os.getpid(), sweeps._throughput_drop

    def killed_in_helper(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_drop(*args)

    monkeypatch.setattr(sweeps, "_throughput_drop", killed_in_helper)
    assert components_bytes(cfg) == serial
    assert len(forks) == 1
    assert_no_child_left()


def test_blas_runs_at_one_thread_during_the_split_and_its_count_comes_back(monkeypatch):
    get, set_ = openblas_threads()
    threads = get()
    seen, run_drop = [], sweeps._throughput_drop

    def recorded(*args):
        seen.append(get())
        return run_drop(*args)

    monkeypatch.setattr(sweeps, "_throughput_drop", recorded)
    try:
        set_(2)  # a count other than 1 before the sweep
        components_bytes(split_config(2, [], 1, "rap_nearest", 1))
        assert seen == [1] and get() == 2
    finally:
        set_(threads)


def test_beam_pattern_after_a_split_sweep_keeps_its_golden_bytes(tmp_path, forks):
    """The beam pattern keeps its golden bytes after a split sweep, with the
    count the drops restore; its products run at one BLAS thread whatever
    that count is. The sweep is the default one at 100 drops, seed 1: the
    benchmark's case study, which splits, with the digest the benchmark
    records."""
    get, set_ = openblas_threads()
    threads = get()
    try:
        set_(2)
        assert main(["throughput-sweep", "--drops", "100", "--seed", "1",
                     "--out", str(tmp_path / "throughput.csv")]) == 0
        assert main(["beam-pattern", "--out", str(tmp_path / "beam.csv")]) == 0
    finally:
        set_(threads)
    assert len(forks) == 1
    recorded = json.loads(EXPECTED.read_text())["workloads"]["case_study"]
    assert recorded["seed"] == 1
    for name, digest in (("throughput.csv", recorded["sha256"]["throughput.csv"]),
                         ("beam.csv", GOLDEN["beam-pattern"][1]["beam.csv"])):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    assert_no_child_left()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_out_after_a_split_sweep_exits_2_with_no_helper_left(tmp_path, capsys,
                                                                         forks):
    cfg = split_config(2, [], 1, "rap_nearest", 1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sweep": {"m_values": list(cfg.sweep.m_values)},
                                "monte_carlo_drops": 2, "budget_w": 1e5}))
    assert main(["throughput-sweep", "--config", str(path), "--out", "/dev/full"]) == 2
    assert len(forks) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert_no_child_left()
