"""Pair tiles on a thread pool: the same bits, errors and errstate for any worker count."""

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

import vortexblob.conservative
import vortexblob.model
from vortexblob.conservative import PrevLevel
from vortexblob.errors import DomainError, PairDegeneracyError
from vortexblob.integrators import advance, integrate
from vortexblob.model import BlobSystem, State, blob_vorticity, conserved, init_grid, rhs, velocity_field

N = 150  # three band chunks; at 500-entry tiles, 23 triangle chunks, of which 6 are held


@pytest.fixture
def small_tiles(monkeypatch):
    """500-entry tiles, 3000 held pairs, and a pool of its own for the test."""
    monkeypatch.setattr(vortexblob.model, "_TILE", 500)
    monkeypatch.setattr(vortexblob.conservative, "_HELD_PAIRS", 3000)
    monkeypatch.setattr(vortexblob.model, "_POOLS", {})
    yield
    for pool in vortexblob.model._POOLS.values():
        pool.shutdown()


def system_and_state(n=N, m=4, seed=3):
    rng = np.random.default_rng(seed)
    system = BlobSystem(m=m, h=1.0, delta=1.0, kappa=rng.uniform(-1.0, 1.0, n))
    return system, State(x=rng.uniform(-1.0, 1.0, n), y=rng.uniform(-1.0, 1.0, n))


def outputs(system, state):
    """Every pair traversal's result, as bytes."""
    rng = np.random.default_rng(5)
    cand = state.xy + 0.01 * rng.uniform(-1.0, 1.0, state.xy.shape)
    points = rng.uniform(-1.2, 1.2, (40, 2))
    got = {
        "rhs": rhs(system, state),
        "velocity_field": velocity_field(system, state, points),
        "blob_vorticity": blob_vorticity(system, state, points),
        "conserved": conserved(system, state).as_array(),
        "field": PrevLevel(system, state).field(cand),
    }
    for method in ("imm", "dmm"):
        record, final = integrate(system, state, 0.01, 5, method)
        got[method] = np.concatenate([final.xy.ravel(), *(c.as_array() for c in record.conserved)])
    return {name: value.tobytes() for name, value in got.items()}


@pytest.mark.parametrize("workers", [2, 3])
def test_results_do_not_depend_on_the_worker_count(workers, small_tiles, monkeypatch):
    # held and rebuilt chunks, more threads than CPUs on a 2-CPU host, and
    # thread switches every 10 us instead of 5 ms
    system, state = system_and_state()
    monkeypatch.setattr(vortexblob.model, "_WORKERS", 1)
    serial = outputs(system, state)
    assert not vortexblob.model._POOLS
    monkeypatch.setattr(vortexblob.model, "_WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled = outputs(system, state)
    finally:
        sys.setswitchinterval(interval)
    assert list(vortexblob.model._POOLS) == [workers - 1]
    assert pooled == serial


def test_one_tile_runs_make_no_pool(monkeypatch):
    # chaos3's M = 3 and grid20's M = 316 (49 770 triangle pairs, about 60 000
    # band entries) stay in the caller's thread
    monkeypatch.setattr(vortexblob.model, "_WORKERS", 2)
    monkeypatch.setattr(vortexblob.model, "_POOLS", {})
    small = system_and_state(n=3, m=2)
    grid = init_grid(20, p=3, q=0.75, m=4, prune_zero=True)
    for (system, state), steps in ((small, 20), (grid, 1)):
        for method in ("rm2", "rm4", "imm", "dmm"):
            integrate(system, state, 1.0, steps, method)
    assert not vortexblob.model._POOLS


def place(state, x=None, pair=None):
    """state with x set at the given vortices, and pair = (i, j) moved onto i."""
    xy = state.xy.copy()
    for k, value in (x or {}).items():
        xy[0, k] = value
    if pair is not None:
        xy[:, pair[1]] = xy[:, pair[0]]
    return State.from_xy(xy)


FAILING_CALLS = {
    "rhs": rhs,
    "conserved": conserved,
    "build": PrevLevel,
    "field": lambda system, state: PrevLevel(system, system_and_state()[1]).field(state.xy),
}


LATE_ERRORS = [
    # only 140 and 145 are 2e154 apart, or 141 sits on 147: in the last band
    # chunk and in a rebuilt triangle chunk
    *((call, bad) for call in ("rhs", "conserved") for bad in [
        ({140: 1e154, 145: -1e154}, None, DomainError, "the squared distance of vortices 140 and 145 overflows"),
        ({}, (141, 147), PairDegeneracyError, "vortices 141 and 147 coincide with nonzero strengths"),
    ]),
    # the build holds rows 0-17, the last held chunk rows 15-17
    ("build", ({15: 1e154, 100: -1e154}, None, DomainError, "the squared distance of vortices 15 and 100 overflows")),
    ("build", ({}, (16, 120), PairDegeneracyError, "vortices 16 and 120 coincide with nonzero strengths")),
    # at the cand level only the coincidence: a cand pair 1e154 apart overflows c_tau's ratio z first
    ("field", ({}, (141, 147), PairDegeneracyError, "vortices 141 and 147 coincide with nonzero strengths")),
]


@pytest.mark.parametrize("call, bad", LATE_ERRORS)
def test_errors_of_a_later_tile_name_the_serial_pair(call, bad, small_tiles, monkeypatch):
    x, pair, error, message = bad
    system, state = system_and_state()
    state = place(state, x=x, pair=pair)
    for workers in (1, 2):
        monkeypatch.setattr(vortexblob.model, "_WORKERS", workers)
        with pytest.raises(error) as exc:
            FAILING_CALLS[call](system, state)
        assert str(exc.value) == message


@pytest.mark.parametrize("pair", [(16, 120), (140, 145)])
def test_overflowing_cand_ratio_of_a_later_tile_is_domain_error(pair, small_tiles, monkeypatch):
    # pair 0.1 apart, far from the rest, in a held and in a rebuilt chunk; at the
    # cand level 1e154 apart, a finite r2 whose ratio z to the prev r2 overflows
    i, j = pair
    system, state = system_and_state()
    xy = state.xy.copy()
    xy[:, [i, j]] = [[5.0, 5.1], [0.0, 0.0]]
    prev = State.from_xy(xy)
    cand = place(prev, x={j: 1e154})
    for workers in (1, 2):
        monkeypatch.setattr(vortexblob.model, "_WORKERS", workers)
        with pytest.raises(DomainError, match="ratio z of the squared distances overflows"):
            PrevLevel(system, prev).field(cand.xy)
    assert vortexblob.model._POOLS


@pytest.mark.parametrize("field", [velocity_field, blob_vorticity])
def test_point_errors_of_a_later_tile_name_the_serial_pair(field, small_tiles, monkeypatch):
    system, state = system_and_state()
    points = np.random.default_rng(7).uniform(-1.0, 1.0, (40, 2))
    points[37] = (1e154, 0.0)
    state = place(state, x={9: -1e154})
    messages = set()
    for workers in (1, 2):
        monkeypatch.setattr(vortexblob.model, "_WORKERS", workers)
        with pytest.raises(DomainError) as exc:
            field(system, state, points)
        messages.add(str(exc.value))
    assert messages == {"the squared distance of point 37 and vortex 9 overflows"}


def spy(module, name, monkeypatch):
    """Replace module.name by a slow wrapper that counts the calls running; returns the counts."""
    original = getattr(module, name)
    lock = threading.Lock()
    counts = {"active": 0, "most": 0, "threads": set()}

    def wrapper(*args, **kwargs):
        with lock:
            counts["active"] += 1
            counts["most"] = max(counts["most"], counts["active"])
            counts["threads"].add(threading.get_ident())
        try:
            time.sleep(0.005)
            return original(*args, **kwargs)
        finally:
            with lock:
                counts["active"] -= 1

    monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize("call, module, name", [
    ("rhs", vortexblob.model, "_band_chunk"),
    ("conserved", vortexblob.model, "pair_differences"),
    ("build", vortexblob.conservative, "_prev_parts"),
])
def test_no_tile_runs_once_the_call_has_raised(call, module, name, small_tiles, monkeypatch):
    # a degenerate pair in the first band chunk and the second triangle chunk,
    # with every later tile still to run
    monkeypatch.setattr(vortexblob.model, "_WORKERS", 2)
    system, state = system_and_state()
    counts = spy(module, name, monkeypatch)
    with pytest.raises(PairDegeneracyError):
        FAILING_CALLS[call](system, place(state, pair=(5, 6)))
    assert counts["active"] == 0
    assert counts["most"] == 2 and len(counts["threads"]) == 2


def test_an_interrupt_in_the_callers_own_tile_leaves_no_tile_running(small_tiles, monkeypatch):
    # the last band chunk runs in the caller's thread while the pool holds the first two
    class Interrupt(BaseException):
        pass

    monkeypatch.setattr(vortexblob.model, "_WORKERS", 2)
    system, state = system_and_state()
    counts = spy(vortexblob.model, "_band_chunk", monkeypatch)
    slow_chunk, caller, seen = vortexblob.model._band_chunk, {}, []

    def interrupted(*args):
        if threading.get_ident() == caller["id"]:
            raise Interrupt
        return slow_chunk(*args)

    def call():
        caller["id"] = threading.get_ident()
        try:
            rhs(system, state)
        except Interrupt:
            seen.append(counts["active"])

    monkeypatch.setattr(vortexblob.model, "_band_chunk", interrupted)
    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(60)
    assert not thread.is_alive() and seen == [0]


def run_in_child(system, state, want):
    sys.exit(0 if rhs(system, state).tobytes() == want and vortexblob.model._POOLS else 1)


def test_a_forked_child_makes_its_own_pool(small_tiles, monkeypatch):
    monkeypatch.setattr(vortexblob.model, "_WORKERS", 2)
    system, state = system_and_state()
    want = rhs(system, state).tobytes()
    assert vortexblob.model._POOLS
    child = multiprocessing.get_context("fork").Process(target=run_in_child, args=(system, state, want))
    child.start()
    child.join(60)
    alive = child.is_alive()
    if alive:
        child.kill()
    assert not alive and child.exitcode == 0


def test_tiles_see_the_callers_errstate(small_tiles, monkeypatch):
    monkeypatch.setattr(vortexblob.model, "_WORKERS", 2)
    system, state = system_and_state()
    original = vortexblob.model._cutoff_over_r2
    seen = []
    caller, callers_tile = threading.get_ident(), threading.Event()

    def wrapper(*args):
        # a pool tile waits until the caller runs a tile of its own, which it
        # does while the first tile in order is not done: so both threads run
        if threading.get_ident() == caller:
            callers_tile.set()
        else:
            callers_tile.wait(timeout=10.0)
        seen.append((threading.get_ident(), np.geterr()))
        return original(*args)

    monkeypatch.setattr(vortexblob.model, "_cutoff_over_r2", wrapper)
    with np.errstate(divide="ignore", invalid="print"):
        want = np.geterr()
        rhs(system, state)
    assert len({thread for thread, _ in seen}) == 2
    assert all(errors == want for _, errors in seen)


def test_multi_tile_conserved_overflow_is_domain_error(small_tiles, monkeypatch):
    # the strengths' products overflow in every tile: ignored there as in the caller's thread
    monkeypatch.setattr(vortexblob.model, "_WORKERS", 2)
    system, state = system_and_state()
    system = BlobSystem(m=4, h=1.0, delta=1.0, kappa=1e200 * system.kappa)
    with pytest.raises(DomainError, match="not finite"):
        conserved(system, state)
    assert vortexblob.model._POOLS


def test_advance_is_bit_equal_on_one_and_two_workers(monkeypatch):
    # the sweep's 32-cell grid at the default tile: M = 812, multi-tile in every traversal
    system, state = init_grid(32, p=3, q=0.75, m=4, prune_zero=True)
    finals = []
    for workers in (1, 2):
        monkeypatch.setattr(vortexblob.model, "_WORKERS", workers)
        finals.append(advance(system, state, 0.001, 1, "dmm").xy.tobytes())
    assert finals[0] == finals[1]
