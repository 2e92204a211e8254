"""Project directory layout, artifact persistence and the command lock.

Layout under the project root:

    phases/<label>/     config.json, samples.txt, sample_set.json,
                        histogram.csv, fit.json, model.json (evaluate),
                        logs/ (evaluate; wall-clock data, not covered by
                        the byte-identical reproducibility contract)
    psp/<label>/        trend.json plus one CSV series per metric
    compare/<a>__vs__<b>/  report.json, curves.csv

Every artifact embeds the config and seed that produced it; rerunning the
same command over the same inputs rewrites identical bytes.

A phase's sample artifacts (samples.txt, sample_set.json) are complete
before the phase ends or raises.  For a large sample they are written in a
forked child while this process fits, so webrely needs POSIX.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import (AllDiscarded, EmptySample, InsufficientData, LockHeld, MissingPhase,
                     UnreadableInput)
from .stats import (
    AnomalyPolicy,
    DefectSampleSet,
    FitReport,
    WeibullModel,
    apply_policy,
    build_histogram,
    fit_weibull,
    goodness_of_fit,
    weibull_mean,
)
from .stats.gof import GOF_METHODS, KS_SIGNIFICANCES
from .stats.serialize import (
    dump_json,
    fit_report_to_dict,
    histogram_to_csv,
    read_json,
    sample_set_to_dict,
    save_samples_text,
)

__all__ = ["Analysis", "EiProject", "PhaseResult", "check_label"]

LOCK_NAME = ".webrely.lock"

# what persist_phase derives from a sample; cleared before each run, so a
# rerun under the same label never leaves an earlier run's results behind
# (model.json and logs/, written by evaluate before the phase, stay)
DERIVED_ARTIFACTS = ("samples.txt", "sample_set.json", "histogram.csv", "fit.json",
                     "fit_error.json")

# a sample this long has its artifacts written in a forked child while the
# fit runs: at this length the writer takes about 21 ms, a fork and wait
# 4-8 ms (2 CPUs, Python 3.11)
_FORK_MIN_VALUES = 2 ** 14


def check_label(label: str) -> str:
    """A label names one directory under the project: not empty, not . or ..,
    and free of path separators.  It holds no "__vs__" either, the separator
    of a compare directory's name, so two comparisons never share one.
    Returns the label; raises ValueError otherwise."""
    if label in ("", ".", "..") or any(sep and sep in label for sep in (os.sep, os.altsep)):
        raise ValueError(f"{label!r} is not a single directory name")
    if "__vs__" in label:
        raise ValueError(f"{label!r} contains '__vs__', which names comparisons")
    return label


@dataclass(frozen=True)
class Analysis:
    """How a phase's samples are cleaned, binned and validated; checked on construction."""

    policy: str = AnomalyPolicy.method
    policy_k: float = AnomalyPolicy.k
    bin_width: float = 1.0
    origin: float = 0.0
    gof_method: str = "chi-square"
    significance: float = 0.05

    def __post_init__(self):
        AnomalyPolicy(self.policy, self.policy_k)
        if not 0.0 < self.bin_width < math.inf:  # also catches nan
            raise ValueError(f"bin_width must be positive and finite, got {self.bin_width}")
        if not math.isfinite(self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")
        if self.gof_method not in GOF_METHODS:
            raise ValueError(f"unknown goodness-of-fit method {self.gof_method!r}")
        if not 0.0 < self.significance < 1.0:
            raise ValueError(f"significance must be in (0, 1), got {self.significance}")
        # the chi-square threshold is the quantile at 1 - significance, and at
        # or below 2**-54 that rounds to 1.0, where the quantile is infinite
        if self.gof_method == "chi-square" and 1.0 - self.significance == 1.0:
            raise ValueError(
                f"chi-square significance must be above 2**-54, got {self.significance}"
            )
        if self.gof_method == "ks" and self.significance not in KS_SIGNIFICANCES:
            raise ValueError(
                f"ks significance must be one of {KS_SIGNIFICANCES}, got {self.significance}"
            )


@dataclass(frozen=True)
class PhaseResult:
    samples: DefectSampleSet
    fit: FitReport


class EiProject:
    def __init__(self, root: str | Path):
        self.root = Path(root)

    # --- locking -----------------------------------------------------------

    @contextmanager
    def lock(self):
        """One command at a time per project directory."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file stands where the root or a parent of it should be
            raise UnreadableInput(f"cannot create project directory {self.root}: "
                                  f"{exc.strerror}") from None
        path = self.root / LOCK_NAME
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise LockHeld(
                f"{path} exists; another command is running (delete it if that "
                "command crashed)"
            ) from None
        try:
            os.write(fd, f"pid {os.getpid()}\n".encode())
            os.close(fd)
            yield self
        finally:
            path.unlink(missing_ok=True)

    # --- paths (each label must pass check_label) --------------------------

    def phase_dir(self, label: str) -> Path:
        return self.root / "phases" / check_label(label)

    def psp_dir(self, label: str) -> Path:
        return self.root / "psp" / check_label(label)

    def compare_dir(self, label_a: str, label_b: str) -> Path:
        return self.root / "compare" / f"{check_label(label_a)}__vs__{check_label(label_b)}"

    # --- artifacts ----------------------------------------------------------

    def persist_phase(
        self,
        label: str,
        raw_samples: DefectSampleSet,
        config_doc: dict,
        analysis: Analysis = Analysis(),
    ) -> PhaseResult:
        """Run the shared tail of every evaluation phase as one sequence of
        stages: the anomaly policy with its sample artifacts, then the
        histogram and fit, then goodness of fit.

        The DERIVED_ARTIFACTS of an earlier run are deleted first.  The
        sample artifacts are complete before the phase ends or raises, and
        an error in writing them stops the phase at the anomaly policy.  A
        sample of 2**14 values or more, in a process of one thread, is
        written by a forked child while this process fits it; any other is
        written before the fit.  A stage that fails writes fit_error.json
        with its name and the error, then re-raises; the one exception is
        goodness of fit with too little data, which is recorded as skipped
        and leaves the fit standing.
        """
        directory = self.phase_dir(label)
        for name in DERIVED_ARTIFACTS:
            (directory / name).unlink(missing_ok=True)
        dump_json(config_doc, directory / "config.json")

        stage = "anomaly policy"
        try:
            cleaned = apply_policy(raw_samples, AnomalyPolicy(analysis.policy, analysis.policy_k))
            with _samples_written(cleaned, directory):
                analysed = _analyse(raw_samples, cleaned, analysis)
            # a writer's error leaves the block, under the anomaly policy's
            # stage, before the analysis's is raised: in turn it came first
            reached, hist, fit, failure = analysed
            if hist is not None:
                stage = "fit"
                (directory / "histogram.csv").write_text(histogram_to_csv(hist))
            stage = reached
            if failure is not None:
                raise failure
        except Exception as exc:
            # too little data to test must not void the fit
            skipped = stage == "goodness-of-fit" and isinstance(exc, InsufficientData)
            error = f"{type(exc).__name__}: {exc}"
            dump_json(
                {"stage": stage, "error": f"goodness-of-fit skipped: {error}" if skipped else error},
                directory / "fit_error.json",
            )
            if not skipped:
                raise
        dump_json(fit_report_to_dict(fit), directory / "fit.json")
        return PhaseResult(cleaned, fit)

    def load_fit(self, label: str) -> WeibullModel:
        """The Weibull model of a phase's fit.json, built from its shape and
        scale, the only keys read; MissingPhase when there is none, or when
        its mean is not a finite number."""
        path = self.phase_dir(label) / "fit.json"
        if not path.exists():
            raise MissingPhase(f"phase {label!r} has no fit report at {path}")
        try:
            doc = read_json(path)
            model = WeibullModel(float(doc["shape"]), float(doc["scale"]))
            mean = weibull_mean(model)  # gamma(1 + 1/shape) overflows for a tiny shape
        except KeyError as exc:
            raise MissingPhase(f"{path} has no {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise MissingPhase(f"{path} holds no Weibull model: {exc}") from None
        if not math.isfinite(mean):
            raise MissingPhase(f"{path} holds a Weibull model with no finite mean")
        return model


def _analyse(raw_samples: DefectSampleSet, cleaned: DefectSampleSet, analysis: Analysis):
    """The stages after the anomaly policy, run while the sample artifacts
    are written: (the stage reached, its histogram, its fit, and the error
    that stopped it or None); the histogram and fit are None until made."""
    stage, hist, fit = "anomaly policy", None, None
    try:
        if raw_samples.n == 0:
            raise EmptySample("cannot apply an anomaly policy to an empty sample")
        if cleaned.n == 0:
            raise AllDiscarded(
                f"policy {analysis.policy}(k={analysis.policy_k:g}) "
                f"discarded all {raw_samples.n} values"
            )
        stage = "fit"
        hist = build_histogram(cleaned, analysis.bin_width, analysis.origin)
        fit = fit_weibull(cleaned)
        stage = "goodness-of-fit"
        gof = goodness_of_fit(
            hist, fit.model, analysis.gof_method, analysis.significance,
            samples=cleaned, fitted_params=2,
        )
        return stage, hist, replace(fit, gof=gof), None
    except Exception as exc:
        return stage, hist, fit, exc


def _write_samples(samples: DefectSampleSet, directory: Path) -> None:
    save_samples_text(samples, directory / "samples.txt")
    dump_json(sample_set_to_dict(samples), directory / "sample_set.json")


@contextmanager
def _samples_written(samples: DefectSampleSet, directory: Path):
    """Write the sample artifacts; they are complete when the block ends.

    A sample of _FORK_MIN_VALUES or more, in a process whose one thread is
    this one (a fork beside other threads can deadlock the child), is
    written by a forked child while the block runs; its error, sent back
    pickled through a pipe, is raised as the block ends.  Any other sample
    is written before the block runs.  The child is reaped however the
    block ends.
    """
    import threading

    if samples.n < _FORK_MIN_VALUES or threading.active_count() > 1:
        _write_samples(samples, directory)
        yield
        return
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as pipe:
        try:
            pid = os.fork()
            if pid == 0:
                _write_in_child(samples, directory, write_fd)
        finally:
            os.close(write_fd)  # so that the pipe ends when the child does
        try:
            yield
        finally:
            try:
                sent = pipe.read()
            finally:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        raise RuntimeError(f"the sample writer died of signal {-code}")
    if code:
        if not sent:
            raise RuntimeError(f"the sample writer exited {code} and sent no error")
        import pickle

        raise pickle.loads(sent)


def _write_in_child(samples: DefectSampleSet, directory: Path, write_fd: int):
    """The forked child's whole life: write the sample artifacts, send any
    error, and leave by os._exit on every path, so that no finally block of
    the caller runs twice (the project lock's, which deletes the lock file,
    among them)."""
    code = 1
    try:
        _write_samples(samples, directory)
        code = 0
    except BaseException as exc:
        import pickle

        try:
            sent = pickle.dumps(exc)
            pickle.loads(sent)
        except Exception:  # an error the parent could not rebuild
            sent = pickle.dumps(RuntimeError(repr(exc)))
        with open(write_fd, "wb") as pipe:
            pipe.write(sent)
    finally:
        os._exit(code)
