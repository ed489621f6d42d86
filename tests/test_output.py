"""Artifact writers pinned byte for byte: the block-batched snapshot writer
against a per-cell reference (signed zeros and NaN bit patterns that its
text dedup must keep apart, and grids beyond its axis-text cache), the
writer's traced memory peak, the snapshot round trip through
profiles.from_csv, the monitor CSV format, and write_trace's split of the
snapshot files among forked processes (the same tree for any worker
count, the serial writer's error, no child left behind), which deletes
nothing."""

import gc
import itertools
import os
import pathlib
import tempfile
import tracemalloc
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shsys import output, profiles
from shsys.entropy import ConservationLaw
from shsys.grid import GridField
from shsys.lxf import SchemeConfig, Trace, run
from shsys.output import (_BLOCK, _axis_text, fmt, write_monitor_csv,
                          write_snapshot_csv, write_trace)

SPECIALS = [-0.0, 1e16, 1e-5, 5e-324, 0.1 + 0.2, float("nan"), float("inf"),
            -float("inf")]


def reference_snapshot(field):
    """The per-cell writer: one fmt call per value."""
    coords = field.coords().reshape(-1, field.n)
    data = field.data.reshape(-1, field.m)
    header = ([f"x{j + 1}" for j in range(field.n)]
              + [f"u{a + 1}" for a in range(field.m)])
    lines = [",".join(header) + "\n"]
    for i in range(coords.shape[0]):
        row = [fmt(v) for v in coords[i]] + [fmt(v) for v in data[i]]
        lines.append(",".join(row) + "\n")
    return "".join(lines).encode()


def written(field):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snap.csv")
        write_snapshot_csv(path, field)
        with open(path, "rb") as handle:
            return handle.read()


def sample_field(shape, m, origin=-1.0, h=0.1, seed=0):
    rng = np.random.default_rng(seed)
    g = GridField.zeros(shape, h, origin, m)
    data = rng.standard_normal(g.data.shape) * 10.0 ** rng.integers(-8, 9, g.data.shape)
    flat = data.reshape(-1)
    for i, v in enumerate(SPECIALS):  # specials at both ends of the state
        flat[i % flat.size] = v
        flat[-1 - i % flat.size] = v
    return g.with_data(data)


@pytest.mark.parametrize("shape, m", [
    ((7,), 1), ((7,), 6), ((5, 3), 1), ((5, 3), 6), ((3, 2, 4), 1),
    ((3, 2, 4), 6), ((1,), 1), ((1, 1), 6), ((1, 1, 1), 3),
    ((1023,), 2), ((1024,), 1), ((1025,), 3), ((2049,), 1),
    ((3, 683), 2), ((1, 1025), 1), ((5, 5, 41), 1),
])
def test_snapshot_matches_per_cell_reference(shape, m):
    field = sample_field(shape, m, seed=sum(shape) + m)
    assert written(field) == reference_snapshot(field)


# the edges of the writer's block, and of 256-row blocks
@pytest.mark.parametrize("cells", sorted({255, 256, 257, 513, _BLOCK - 1, _BLOCK,
                                          _BLOCK + 1, 2 * _BLOCK + 1}))
def test_snapshot_block_boundaries(cells):
    field = sample_field((cells,), 2, seed=cells)
    assert written(field) == reference_snapshot(field)


@pytest.mark.parametrize("origin, h", [(-3.7, 0.3), ((-1e-5, 2.5), (1e-3, 0.1)),
                                       (0.0, 1.0 / 3.0)])
def test_snapshot_coordinates_match_reference(origin, h):
    shape = (4,) if np.ndim(origin) == 0 else (4, 3)
    field = sample_field(shape, 2, origin=origin, h=h)
    assert written(field) == reference_snapshot(field)


def test_snapshot_special_values_spelled_by_repr():
    g = GridField.zeros((len(SPECIALS),), 1.0, -2.0, 1)
    field = g.with_data(np.array(SPECIALS)[:, None])
    text = written(field).decode()
    assert text.splitlines()[1:] == [f"{-2.0 + i!r},{v!r}"
                                     for i, v in enumerate(SPECIALS)]
    assert "nan" in text and "inf" in text and "5e-324" in text


def fields(allow_nonfinite):
    values = st.floats(allow_nan=allow_nonfinite, allow_infinity=allow_nonfinite)

    @st.composite
    def build(draw):
        shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
        m = draw(st.integers(1, 6))
        n = len(shape)
        h = draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n))
        origin = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
        data = draw(hnp.arrays(float, shape + (m,), elements=values))
        return GridField.zeros(shape, h, origin, m).with_data(data)

    return build()


@settings(deadline=None, max_examples=60)
@given(fields(allow_nonfinite=True))
def test_snapshot_property_matches_reference(field):
    assert written(field) == reference_snapshot(field)


@settings(deadline=None, max_examples=60)
@given(fields(allow_nonfinite=False))
def test_snapshot_reads_back_bit_for_bit(field):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snap.csv")
        write_snapshot_csv(path, field)
        back = profiles.from_csv(field.with_data(np.zeros_like(field.data)), path)
    assert back.data.tobytes() == field.data.tobytes()


# values that share a float value or a repr but not a bit pattern, and
# neighbours in repr: NaNs of both signs, quiet and signalling, with payloads
NAN_BITS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0x7FF8DEAD00000000, 0xFFF0000000000ABC], dtype=np.uint64)
POOL = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, 1e16, 9999999999999998.0,
                        1e-4, 9.999e-05], NAN_BITS.view(float)])


@st.composite
def pool_fields(draw):
    """Fields drawn from POOL, shaped to cross the writer's row blocks."""
    cells = draw(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]))
    shape = draw(st.sampled_from([(cells,), (1, cells), (cells, 1)]))
    m = draw(st.integers(1, 4))
    picks = draw(hnp.arrays(np.intp, shape + (m,), elements=st.integers(0, len(POOL) - 1)))
    return GridField.zeros(shape, 0.1, -1.0, m).with_data(POOL[picks])


@settings(deadline=None, max_examples=40)
@given(pool_fields())
def test_snapshot_pool_property_matches_reference(field):
    assert written(field) == reference_snapshot(field)


def test_snapshot_keeps_bit_patterns_apart():
    # column u1 runs through POOL, u2 through POOL reversed: 0.0 sits
    # beside a NaN with -0.0 one row down, and NaN bits survive the field
    g = GridField.zeros((len(POOL),), 1.0, 0.0, 2)
    field = g.with_data(np.stack([POOL, POOL[::-1]], axis=-1))
    assert field.data[-len(NAN_BITS):, 0].view(np.uint64).tolist() == NAN_BITS.tolist()
    text = written(field)
    assert text == reference_snapshot(field)
    assert text.decode().splitlines()[1:3] == ["0.0,0.0,nan", "1.0,-0.0,nan"]


def test_snapshot_coordinates_beyond_axis_cache():
    # more distinct axes than the cache holds, written twice over, so
    # entries are evicted and rebuilt; int and float, -0.0 and 0.0 keys
    # too, whose centers differ in type or not at all
    grids = [GridField.zeros((2 + i % 3, 1 + i % 2), (0.1 + 0.01 * i, 1.0 / (i + 3)),
                             (-1.0 + 0.1 * (i % 5), 0.25 * i), 1)
             for i in range(_axis_text.cache_info().maxsize + 8)]
    grids.append(GridField(n=1, shape=(3,), h=(1,), origin=(0,), m=1, data=np.zeros((3, 1))))
    grids += [GridField.zeros((3,), 1.0, origin, 1) for origin in (0.0, -0.0)]
    for field in grids + grids:
        lines = written(field).decode().splitlines()[1:]
        columns = [",".join(line.split(",")[:field.n]) for line in lines]
        assert columns == [",".join(cell) for cell in itertools.product(
            *(list(map(repr, field.centers(j).tolist())) for j in range(field.n)))]


def test_snapshot_memory_is_bounded_by_its_blocks(tmp_path):
    # a 128^2 x 4 wave-sized snapshot of 9,405 distinct doubles peaks at
    # about 2.77 MB, the keying and the text of each distinct double, and
    # keeps only its axis text (15 KB); the whole file's text (6.4 MB), or
    # a cache of row text built by the call, would go past both bounds
    rng = np.random.default_rng(16)
    g = GridField.zeros((128, 128), 1.0 / 128, -0.5, 4)
    field = g.with_data(rng.standard_normal(9405)[rng.integers(0, 9405, g.data.shape)])
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_snapshot_csv(tmp_path / "snap.csv", field)
        held, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak <= 3.0e6
    assert held <= 0.1e6


def test_monitor_csv_bytes_pinned(tmp_path):
    path = tmp_path / "mon.csv"
    write_monitor_csv(path, [(0.0, 1.0), (0.025, np.float64(0.1) + 0.2),
                             (0.05, 5e-324), (0.075, -0.0), (0.1, 1e16),
                             (np.float64(0.125), float("nan"))])
    assert path.read_bytes() == (b"t,value\n0.0,1.0\n0.025,0.30000000000000004\n"
                                 b"0.05,5e-324\n0.075,-0.0\n0.1,1e+16\n0.125,nan\n")


def test_monitor_csv_custom_header_and_empty_series(tmp_path):
    path = tmp_path / "limit.csv"
    write_monitor_csv(path, [(0.1, 2e-3), (0.05, 1e-3)],
                      header=("eps", "l1_distance"))
    assert path.read_bytes() == b"eps,l1_distance\n0.1,0.002\n0.05,0.001\n"
    write_monitor_csv(path, [])
    assert path.read_bytes() == b"t,value\n"


# write_trace splits a trace's snapshot files among forked processes; the
# tests below force the worker count through output._usable_cpus
def snapshot_trace(count=4, shape=(128, 128), m=4):
    """A trace of ``count`` snapshots of shape x m values, 2 monitors; by
    default 4 x 65,536 values, enough for 4 writers."""
    snaps = [sample_field(shape, m, seed=i) for i in range(count)]
    monitors = {"a": [(0.1 * i, float(i)) for i in range(count)], "b": [(0.0, -0.0)]}
    return Trace(times=[0.1 * i for i in range(count)], snapshots=snaps, monitors=monitors)


def aborted_trace():
    """A partial trace: u' = u^2 on 65,536 cells overflows after ~15 steps."""
    law = ConservationLaw(n=1, m=1, flux=(lambda u: np.zeros_like(u),),
                          source=lambda x, u: u * u, state_box=([-1e300], [1e300]))
    h = 2.0 / 65536
    grid = GridField.zeros((65536,), h, -1.0 + h / 2, 1)
    initial = grid.with_data(1e4 * (1.5 + 0.5 * grid.centers(0)[:, None]))
    with np.errstate(over="ignore", invalid="ignore"):
        trace = run(law, initial, SchemeConfig(lam=0.4, t_end=1.0, output_stride=4))
    assert not trace.completed and len(trace.snapshots) >= 3
    return trace


def read_tree(root):
    """Relative path -> bytes of every file under root."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in pathlib.Path(root).rglob("*") if path.is_file()}


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.fixture
def forks(monkeypatch):
    """The calls of os.fork made by this process (each still forks)."""
    calls, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real())
    return calls


def force_workers(monkeypatch, cpus):
    monkeypatch.setattr(output, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("make_trace", [snapshot_trace, aborted_trace])
def test_trace_tree_is_the_same_for_1_2_and_3_workers(tmp_path, monkeypatch, forks, make_trace):
    trace = make_trace()
    trees = []
    for workers in (1, 2, 3):
        assert output._workers(workers, len(trace.snapshots),
                               sum(s.data.size for s in trace.snapshots)) == workers
        force_workers(monkeypatch, workers)
        forks.clear()
        write_trace(tmp_path / str(workers), trace)
        assert len(forks) == workers - 1 and no_child_left()
        trees.append(read_tree(tmp_path / str(workers)))
    assert trees[0] == trees[1] == trees[2]
    assert sorted(trees[0]) == sorted(
        [os.path.join("snapshots", f"{i:04d}.csv") for i in range(len(trace.snapshots))]
        + [os.path.join("monitors", f"{name}.csv") for name in trace.monitors])
    assert trees[0][os.path.join("snapshots", "0001.csv")] == reference_snapshot(trace.snapshots[1])


@pytest.mark.parametrize("obstacles, failing", [(["0001.csv"], "0001.csv"),
                                                (["0002.csv"], "0002.csv"),
                                                (["0002.csv", "0001.csv"], "0001.csv")])
def test_a_failed_share_raises_the_serial_writers_error(tmp_path, monkeypatch, forks,
                                                        obstacles, failing):
    # a directory where a snapshot file goes: with 2 workers 0001.csv is the
    # child's and 0002.csv the parent's; the first in file order is named
    trace = snapshot_trace()
    errors = []
    for workers in (1, 2):
        snap_dir = tmp_path / str(workers) / "snapshots"
        for name in obstacles:
            (snap_dir / name).mkdir(parents=True)
        force_workers(monkeypatch, workers)
        forks.clear()
        with pytest.raises(IsADirectoryError) as info:
            write_trace(tmp_path / str(workers), trace)
        assert len(forks) == workers - 1 and no_child_left()
        errors.append(str(info.value).replace(f"{os.sep}{workers}{os.sep}", os.sep))
    assert errors[0] == errors[1]
    assert errors[0].endswith(f"{failing}'")


def test_a_share_without_a_child_is_written_by_the_caller(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    trace = snapshot_trace()
    force_workers(monkeypatch, 1)
    write_trace(tmp_path / "serial", trace)
    force_workers(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", no_fork)
    write_trace(tmp_path / "unforked", trace)
    assert read_tree(tmp_path / "unforked") == read_tree(tmp_path / "serial")


def test_no_fork_without_sched_getaffinity(tmp_path, monkeypatch):
    def fork():
        raise AssertionError("forked")

    trace = snapshot_trace()
    write_trace(tmp_path / "a", trace)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "fork", fork)
    assert output._usable_cpus() == 1
    write_trace(tmp_path / "b", trace)
    assert read_tree(tmp_path / "b") == read_tree(tmp_path / "a")


def test_the_fork_warning_of_a_threaded_process_is_not_shown(tmp_path, monkeypatch):
    # CPython >= 3.12 warns on fork() while other threads run (OpenBLAS's)
    real = os.fork

    def fork():
        warnings.warn("This process is multi-threaded, use of fork() may lead to "
                      "deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return real()

    force_workers(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        write_trace(tmp_path, snapshot_trace())
    assert seen == [] and no_child_left()


def test_write_trace_deletes_nothing(tmp_path):
    # an earlier run's files are the caller's to remove (remove_run_files)
    write_trace(tmp_path, snapshot_trace(count=3, shape=(8,), m=1))
    (tmp_path / "monitors" / "stale.csv").write_text("t,value\n")
    write_trace(tmp_path, snapshot_trace(count=2, shape=(8,), m=1))
    assert sorted(os.listdir(tmp_path / "snapshots")) == ["0000.csv", "0001.csv", "0002.csv"]
    assert sorted(os.listdir(tmp_path / "monitors")) == ["a.csv", "b.csv", "stale.csv"]
    output.remove_run_files(tmp_path)
    assert os.listdir(tmp_path) == []


def test_a_trace_under_two_writers_worth_of_values_is_not_split(tmp_path, monkeypatch, forks):
    # 35 snapshots of 2,000 values (the 2,000-cell Burgers run's trace) on
    # 4 CPUs: one writer; 5 of 65,536 (a 128^2 wave trace of 4 components):
    # one per CPU
    small = snapshot_trace(count=35, shape=(2000,), m=1)
    assert output._workers(4, 35, 35 * 2000) == 1
    assert output._workers(4, 5, 5 * 65536) == 4
    force_workers(monkeypatch, 4)
    write_trace(tmp_path, small)
    assert forks == [] and len(os.listdir(tmp_path / "snapshots")) == 35


@settings(max_examples=200)
@given(st.integers(1, 1024), st.integers(0, 10**5), st.integers(0, 10**10))
def test_worker_count_is_bounded_by_cpus_snapshots_and_values(cpus, snapshots, values):
    workers = output._workers(cpus, snapshots, values)
    assert 1 <= workers <= max(1, min(cpus, snapshots))
    assert workers == 1 or workers * output.WORKER_VALUES <= values
