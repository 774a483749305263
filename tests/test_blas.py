"""The one-OpenBLAS-thread scope around fits and bootstrap pools."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import voikit
from voikit import ParamSubset, _blas
from voikit.regression import BootstrapConfig, bootstrap_estimates, gam_evppi, gp_evppi

needs_openblas = pytest.mark.skipif(
    not _blas._thread_counts(), reason="no OpenBLAS with a known thread setter is loaded"
)


class _FakeLibrary:
    """Stands in for one OpenBLAS.  Like a ctypes call into the real one,
    each call lets other threads run."""

    def __init__(self, count):
        self.count = count
        self.calls = []

    def get(self):
        time.sleep(0)
        return self.count

    def set(self, n):
        time.sleep(0)
        self.calls.append(n)
        self.count = n


@pytest.fixture
def fakes(monkeypatch):
    """Two fake libraries in place of the mapped ones; ``mapped`` lists the
    names the next scan finds."""
    libs = {"a": _FakeLibrary(4), "b": _FakeLibrary(3)}
    mapped = {"a"}
    monkeypatch.setattr(_blas, "_mapped_openblas", lambda: set(mapped))
    monkeypatch.setattr(_blas, "_resolve", lambda path: (libs[path].get, libs[path].set))
    monkeypatch.setattr(_blas, "_found", {})
    monkeypatch.setattr(_blas, "_modules_seen", -1)
    return libs, mapped


def test_only_the_outermost_scope_sets_and_restores(fakes):
    libs, _ = fakes
    with _blas.one_blas_thread():
        assert libs["a"].count == 1
        with _blas.one_blas_thread():
            with _blas.one_blas_thread():
                pass
            assert libs["a"].calls == [1]
        assert libs["a"].calls == [1]
    assert libs["a"].calls == [1, 4]


def test_a_library_loaded_inside_the_scope_is_set_at_the_next_entry(fakes, monkeypatch):
    libs, mapped = fakes
    with _blas.one_blas_thread():
        mapped.add("b")
        # a library arrives with an import, which grows sys.modules
        monkeypatch.setitem(sys.modules, "_voikit_test_loaded_module", object())
        with _blas.one_blas_thread():
            assert (libs["a"].count, libs["b"].count) == (1, 1)
        assert libs["b"].calls == [1]
    assert (libs["a"].count, libs["b"].count) == (4, 3)


def test_threads_entering_and_leaving_at_once_keep_one_thread_inside(fakes):
    # more workers than cores, switching as often as possible: a lost
    # update of the depth would restore the count while a scope is open
    libs, _ = fakes
    seen = []

    def worker():
        for _ in range(200):
            with _blas.one_blas_thread():
                seen.append(libs["a"].count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 * 200 and set(seen) == {1}
    assert libs["a"].count == 4 and _blas._depth == 0


def test_a_library_without_setters_is_left_alone(monkeypatch):
    import _ctypes

    # a mapped library that exports no OpenBLAS thread functions, and a path
    # that is not loaded at all
    monkeypatch.setattr(
        _blas, "_mapped_openblas", lambda: {_ctypes.__file__, "/nonexistent/libopenblas.so"}
    )
    monkeypatch.setattr(_blas, "_found", {})
    monkeypatch.setattr(_blas, "_modules_seen", -1)
    with _blas.one_blas_thread():
        assert _blas._thread_counts() == {}
    assert set(_blas._found.values()) == {None}


def test_no_maps_file_means_no_libraries(monkeypatch):
    def missing(*args, **kwargs):
        raise FileNotFoundError("/proc/self/maps")

    monkeypatch.setattr(_blas, "open", missing, raising=False)
    assert _blas._mapped_openblas() == set()


@pytest.fixture
def caller_at_two_threads():
    """Every controlled OpenBLAS at two threads, as a caller might set it."""
    # load scipy first, so that the GP fit maps no new library
    import scipy.linalg

    before = _blas._thread_counts()
    for path in before:
        _blas._found[path][1](2)
    yield _blas._thread_counts()
    for path, count in before.items():
        _blas._found[path][1](count)


@needs_openblas
def test_every_bootstrap_replicate_runs_at_one_thread(lin_sample):
    seen = []

    def spy(sample):
        seen.append(_blas._thread_counts())
        return 1.0

    bootstrap_estimates(spy, lin_sample, BootstrapConfig(8, seed=0), n_threads=2)
    assert len(seen) == 8
    assert all(counts and set(counts.values()) == {1} for counts in seen)


@needs_openblas
@pytest.mark.parametrize("estimate", [gam_evppi, gp_evppi])
def test_the_callers_count_is_restored(lin_sample, caller_at_two_threads, estimate):
    first_1000 = (np.arange(lin_sample.n_sims) < 1000).astype(int)
    estimate(lin_sample.take(counts=first_1000), ParamSubset.of(0, 1),
             bootstrap=BootstrapConfig(3, seed=0), n_threads=2)
    assert _blas._thread_counts() == caller_at_two_threads


_LATE_SCIPY_SCRIPT = """
import json, sys
import numpy
from voikit import _blas

out = {"before": _blas._thread_counts()}
with _blas.one_blas_thread():
    import scipy.linalg  # loads scipy's OpenBLAS inside the open scope
    with _blas.one_blas_thread():
        out["inside"] = _blas._thread_counts()
out["after"] = _blas._thread_counts()
print(json.dumps(out))
"""


@needs_openblas
def test_scipy_loaded_inside_an_open_scope_runs_at_one_thread():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    src = str(Path(voikit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _LATE_SCIPY_SCRIPT],
                            capture_output=True, text=True, env=env, check=True)
    out = json.loads(result.stdout)
    assert len(out["inside"]) == len(out["before"]) + 1
    assert set(out["inside"].values()) == {1}
    assert set(out["after"]) == set(out["inside"])
    assert set(out["after"].values()) == {2}


_COLD_CLI_SCRIPT = """
import contextlib, importlib, io, json, os, sys
importlib.import_module(sys.argv[1])
import voikit.cli
from voikit import _blas

csv_path = sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    assert voikit.cli.main(["simulate", "--model", "linear-gaussian", "--sims", "300",
                            "--seed", "1", "--out", csv_path]) == 0
    assert voikit.cli.main(["evppi", "--file", csv_path, "--method", "gp",
                            "--params", "phi"]) == 0
print(json.dumps({
    "mapped": sorted(_blas._mapped_openblas()),
    "counts": _blas._thread_counts(),
    "os_threads": len(os.listdir("/proc/self/task")),
    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""


def _cold_cli_gp_fit(tmp_path, first="voikit.cli", **env_vars):
    """The process state after the CLI's simulate and a GP evppi in a fresh
    interpreter that imports module ``first`` first, with neither BLAS
    thread variable set unless given."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(voikit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_vars)
    result = subprocess.run(
        [sys.executable, "-c", _COLD_CLI_SCRIPT, first, str(tmp_path / "psa.csv")],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(result.stdout)


@needs_openblas
def test_cold_cli_process_runs_no_openblas_worker(tmp_path):
    # numpy's and scipy's OpenBLAS both start at one thread, so the process
    # holds its main thread alone
    out = _cold_cli_gp_fit(tmp_path)
    assert out["mapped"]
    assert out["counts"] == dict.fromkeys(out["mapped"], 1)
    assert out["os_threads"] == 1


@needs_openblas
def test_cold_cli_process_keeps_the_callers_thread_count(tmp_path):
    out = _cold_cli_gp_fit(tmp_path, OPENBLAS_NUM_THREADS="2")
    assert out["counts"] == dict.fromkeys(out["mapped"], 2)
    assert out["OPENBLAS_NUM_THREADS"] == "2"


@needs_openblas
def test_cold_cli_process_leaves_a_loaded_numpy_alone(tmp_path):
    out = _cold_cli_gp_fit(tmp_path, first="numpy")
    assert out["OPENBLAS_NUM_THREADS"] is None
