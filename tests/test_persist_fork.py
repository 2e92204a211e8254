"""persist_phase writes a sample of 2**14 values or more in a forked child
while it fits, and any smaller one (or any sample in a process of more than
one thread) in process.  Both paths leave the same bytes, fail alike, and
leave no child and no missing lock behind."""

import os
import random
import re
import signal
import subprocess
import sys
import threading
import warnings

import pytest

import webrely.project as project_module
from webrely.cli import main
from webrely.project import LOCK_NAME, Analysis, EiProject
from webrely.stats import AnomalyPolicy, DefectSampleSet, apply_policy
from webrely.stats.serialize import (dump_json, load_samples_text, read_json,
                                     sample_set_to_dict, save_samples_text)

FORK_AT = 2 ** 14
SAMPLE_ARTIFACTS = ("samples.txt", "sample_set.json")
# 16 bins over the values of uniform_sample, enough for a chi-square test
BINNED = Analysis(bin_width=0.0625)


def uniform_sample(n: int) -> DefectSampleSet:
    """n full-precision values that the default Tukey fences all keep, so
    that all n are written."""
    rng = random.Random(n)
    return DefectSampleSet(tuple(rng.uniform(1.0, 2.0) for _ in range(n)), (), "fork")


def writer_bytes(samples: DefectSampleSet, directory) -> dict[str, bytes]:
    """The sample artifacts as the two writers make them, called directly."""
    directory.mkdir()
    save_samples_text(samples, directory / "samples.txt")
    dump_json(sample_set_to_dict(samples), directory / "sample_set.json")
    return phase_bytes(directory, SAMPLE_ARTIFACTS)


def phase_bytes(directory, names=None) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes() for path in sorted(directory.iterdir())
        if path.is_file() and (names is None or path.name in names)
    }


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that os.fork made during the test; none may
    outlive it."""
    assert threading.active_count() == 1, "a thread left running keeps the writes in process"
    made = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    yield made
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [FORK_AT - 1, FORK_AT])
def test_sample_artifacts_are_the_writers_bytes_on_either_path(tmp_path, forks, n):
    project = EiProject(tmp_path / "proj")
    with project.lock():
        result = project.persist_phase("x", uniform_sample(n), {"command": "test"}, BINNED)
        assert (project.root / LOCK_NAME).exists()
    assert not (project.root / LOCK_NAME).exists()
    assert len(forks) == (n >= FORK_AT)
    phase = project.phase_dir("x")
    assert phase_bytes(phase, SAMPLE_ARTIFACTS) == writer_bytes(result.samples, tmp_path / "direct")
    assert set(phase_bytes(phase)) == {"config.json", "samples.txt", "sample_set.json",
                                       "histogram.csv", "fit.json"}


def test_a_second_thread_keeps_the_writes_in_process(tmp_path, forks):
    raw = uniform_sample(FORK_AT)
    alone = EiProject(tmp_path / "alone")
    alone.persist_phase("x", raw, {"command": "test"}, BINNED)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        beside = EiProject(tmp_path / "beside")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            beside.persist_phase("x", raw, {"command": "test"}, BINNED)
    finally:
        stop.set()
        waiter.join()
    assert len(forks) == 1
    assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []
    assert phase_bytes(beside.phase_dir("x")) == phase_bytes(alone.phase_dir("x"))


def block_sample_set(monkeypatch, project: EiProject, label: str) -> None:
    """Once persist_phase has cleared the phase, a directory stands where
    sample_set.json is written."""
    policy = project_module.apply_policy

    def blocking(raw, chosen):
        cleaned = policy(raw, chosen)
        (project.phase_dir(label) / "sample_set.json").mkdir()
        return cleaned

    monkeypatch.setattr(project_module, "apply_policy", blocking)


def test_a_blocked_sample_set_fails_alike_on_either_path(tmp_path, monkeypatch, forks):
    project = EiProject(tmp_path / "proj")
    phase = project.phase_dir("x")
    block_sample_set(monkeypatch, project, "x")
    seen = []
    for n in (FORK_AT - 1, FORK_AT):
        with project.lock():
            with pytest.raises(OSError) as raised:
                project.persist_phase("x", uniform_sample(n), {"command": "test"}, BINNED)
            assert (project.root / LOCK_NAME).exists()
        seen.append((type(raised.value), str(raised.value), sorted(p.name for p in phase.iterdir()),
                     read_json(phase / "fit_error.json")))
        (phase / "sample_set.json").rmdir()
    assert len(forks) == 1
    assert seen[0] == seen[1]
    kind, message, names, fit_error = seen[1]
    assert kind is IsADirectoryError
    assert names == ["config.json", "fit_error.json", "sample_set.json", "samples.txt"]
    assert fit_error == {"stage": "anomaly policy", "error": f"IsADirectoryError: {message}"}


def test_a_writer_error_wins_over_an_analysis_error(tmp_path, monkeypatch, forks):
    # an all-equal sample fails the fit too, but the writes came first
    project = EiProject(tmp_path / "proj")
    block_sample_set(monkeypatch, project, "x")
    with pytest.raises(IsADirectoryError):
        project.persist_phase("x", DefectSampleSet((2.5,) * FORK_AT), {"command": "test"}, BINNED)
    assert len(forks) == 1
    fit_error = read_json(project.phase_dir("x") / "fit_error.json")
    assert fit_error["stage"] == "anomaly policy"
    assert not (project.phase_dir("x") / "histogram.csv").exists()


@pytest.mark.parametrize("n", [FORK_AT - 1, FORK_AT])
def test_cli_exits_1_on_a_blocked_sample_set(tmp_path, n):
    samples = tmp_path / "s.txt"
    samples.write_text("".join(f"{v!r}\n" for v in uniform_sample(n).values))
    project = tmp_path / "proj"
    code = (
        "import sys\n"
        "import webrely.project as project\n"
        "from webrely.cli import main\n"
        "policy = project.apply_policy\n"
        "def blocking(raw, chosen):\n"
        "    cleaned = policy(raw, chosen)\n"
        "    project.EiProject(sys.argv[1]).phase_dir('x').joinpath('sample_set.json').mkdir()\n"
        "    return cleaned\n"
        "project.apply_policy = blocking\n"
        "sys.exit(main(['--project-dir', sys.argv[1], 'fit', '--samples', sys.argv[2],"
        " '--label', 'x']))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(project), str(samples)],
                         capture_output=True, text=True)
    assert out.returncode == 1
    blocked = project / "phases" / "x" / "sample_set.json"
    assert out.stderr.splitlines()[-1] == f"IsADirectoryError: [Errno 21] Is a directory: '{blocked}'"
    assert read_json(project / "phases" / "x" / "fit_error.json")["stage"] == "anomaly policy"
    assert not (project / LOCK_NAME).exists()


def test_an_all_equal_large_sample_exits_4_with_complete_sample_artifacts(tmp_path, forks):
    samples = tmp_path / "s.txt"
    samples.write_text("2.5\n" * FORK_AT)
    project = tmp_path / "proj"
    assert main(["--project-dir", str(project), "fit", "--samples", str(samples),
                 "--label", "x"]) == 4
    assert len(forks) == 1
    phase = project / "phases" / "x"
    cleaned = apply_policy(load_samples_text(samples, "x"), AnomalyPolicy())
    assert phase_bytes(phase, SAMPLE_ARTIFACTS) == writer_bytes(cleaned, tmp_path / "direct")
    fit_error = read_json(phase / "fit_error.json")
    assert fit_error["stage"] == "fit"
    assert fit_error["error"].startswith("NonIdentifiable: all sample values are equal")
    assert (phase / "histogram.csv").exists()
    assert not (phase / "fit.json").exists()


class TwoPartError(Exception):
    """Pickles, but cannot be rebuilt: pickle calls it with its one message."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def _local_error():
    class LocalError(Exception):  # pickle cannot find a local class by name
        pass

    return LocalError("lost on the way")


@pytest.mark.parametrize("error", [_local_error(), TwoPartError("lost", "on the way")],
                         ids=["cannot pickle", "cannot unpickle"])
def test_an_error_the_parent_cannot_rebuild_arrives_as_its_repr(tmp_path, monkeypatch, forks,
                                                                error):
    def failing(samples, path):
        raise error

    monkeypatch.setattr(project_module, "save_samples_text", failing)
    project = EiProject(tmp_path / "proj")
    expected = repr(error)
    with pytest.raises(RuntimeError, match=f"^{re.escape(expected)}$"):
        project.persist_phase("x", uniform_sample(FORK_AT), {"command": "test"}, BINNED)
    assert len(forks) == 1
    assert read_json(project.phase_dir("x") / "fit_error.json") == {
        "stage": "anomaly policy", "error": f"RuntimeError: {expected}"}


@pytest.mark.parametrize("end,message", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "the sample writer died of signal 9"),
    (lambda: os._exit(3), "the sample writer exited 3 and sent no error"),
], ids=["killed", "silent exit"])
def test_a_writer_that_ends_without_a_word_raises(tmp_path, monkeypatch, forks, end, message):
    parent = os.getpid()

    def ending(samples, path):
        assert os.getpid() != parent, "the writes ran in this process"
        end()

    monkeypatch.setattr(project_module, "save_samples_text", ending)
    project = EiProject(tmp_path / "proj")
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        project.persist_phase("x", uniform_sample(FORK_AT), {"command": "test"}, BINNED)
    assert len(forks) == 1
    assert read_json(project.phase_dir("x") / "fit_error.json") == {
        "stage": "anomaly policy", "error": f"RuntimeError: {message}"}


def test_an_interrupt_in_the_writer_ends_the_child_there(tmp_path, monkeypatch, forks):
    # the child leaves by os._exit, so the caller's finally blocks run once,
    # in the parent: the lock file stays until the parent's lock() ends
    def interrupted(samples, path):
        raise KeyboardInterrupt

    monkeypatch.setattr(project_module, "save_samples_text", interrupted)
    project = EiProject(tmp_path / "proj")
    with project.lock():
        with pytest.raises(KeyboardInterrupt):
            project.persist_phase("x", uniform_sample(FORK_AT), {"command": "test"}, BINNED)
        assert (project.root / LOCK_NAME).exists()
    assert len(forks) == 1
    assert not (project.root / LOCK_NAME).exists()


def test_an_interrupt_in_the_fit_still_reaps_the_writer(tmp_path, monkeypatch, forks):
    def interrupted(samples):
        raise KeyboardInterrupt

    monkeypatch.setattr(project_module, "fit_weibull", interrupted)
    project = EiProject(tmp_path / "proj")
    raw = uniform_sample(FORK_AT)
    with pytest.raises(KeyboardInterrupt):
        project.persist_phase("x", raw, {"command": "test"}, BINNED)
    assert len(forks) == 1
    phase = project.phase_dir("x")
    assert sorted(p.name for p in phase.iterdir()) == ["config.json", "sample_set.json",
                                                       "samples.txt"]
    cleaned = apply_policy(raw, AnomalyPolicy())
    assert phase_bytes(phase, SAMPLE_ARTIFACTS) == writer_bytes(cleaned, tmp_path / "direct")
