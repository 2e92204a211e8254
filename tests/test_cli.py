import json
import math
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

from webrely import cli
from webrely.cli import main
from webrely.harness import (
    CampaignConfig,
    CrawlLimits,
    HarnessConfig,
    MockTarget,
    SeededFault,
    default_profiles,
    generate_test_cases,
    load_fault_table,
    predict_density,
)
from webrely.harness.http import Session
from webrely.harness.model import SiteModel
from webrely.project import Analysis, EiProject
from webrely.psp import PHASES as PSP_PHASES
from webrely.simulator import SimConfig
from webrely.stats import AnomalyPolicy, DefectSampleSet, WeibullModel, sample, weibull_pdf

DATA = Path(__file__).parent / "data"

SIM_CFG = "runs = 60\nevents_per_run = 60\nseed = 5\n"
EVAL_CFG = (
    "evaluations = 3\ncases = 6\nwalk_length = 3\nduration = 30\n"
    "arrival_mean = 0.001\nworkers = 8\nseed = 4\n"
)
RICH_EVAL_CFG = (
    "evaluations = 4\ncases = 12\nwalk_length = 4\nduration = 30\n"
    "arrival_mean = 0.001\nworkers = 12\nseed = 4\n"
)


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def phase_files(project: Path, label: str) -> dict[str, bytes]:
    directory = project / "phases" / label
    return {
        name: (directory / name).read_bytes()
        for name in ("config.json", "samples.txt", "sample_set.json", "histogram.csv", "fit.json")
        if (directory / name).exists()
    }


def test_simulate_creates_artifacts(tmp_path):
    cfg = write(tmp_path / "sim.cfg", SIM_CFG)
    assert run_cli("--project-dir", tmp_path / "proj", "simulate", "--config", cfg) == 0
    files = phase_files(tmp_path / "proj", "ideal")
    assert set(files) == {"config.json", "samples.txt", "sample_set.json", "histogram.csv", "fit.json"}
    fit = json.loads(files["fit.json"])
    assert fit["shape"] > 1.0
    config = json.loads(files["config.json"])
    assert config["sim"]["seed"] == 5


def test_simulate_byte_identical_rerun(tmp_path):
    cfg = write(tmp_path / "sim.cfg", SIM_CFG)
    assert run_cli("--project-dir", tmp_path / "a", "simulate", "--config", cfg) == 0
    assert run_cli("--project-dir", tmp_path / "b", "simulate", "--config", cfg) == 0
    assert phase_files(tmp_path / "a", "ideal") == phase_files(tmp_path / "b", "ideal")


def test_simulate_seed_flag_overrides_config(tmp_path):
    cfg = write(tmp_path / "sim.cfg", SIM_CFG)
    assert run_cli("--project-dir", tmp_path / "a", "--seed", 9, "simulate", "--config", cfg) == 0
    config = json.loads((tmp_path / "a/phases/ideal/config.json").read_text())
    assert config["sim"]["seed"] == 9


# --seed is a usage error for every command that draws no random numbers
SEED_CASES = [
    (["fit", "--samples", "{tmp}/s.txt", "--label", "x"], 2),
    (["crawl", "--target", "http://127.0.0.1:9"], 2),
    (["psp", "--records", str(DATA / "psp_records.csv")], 2),
    (["compare", "a", "b"], 2),
    (["mock-serve", "--port", "0"], 2),
    (["simulate", "--config", "{tmp}/sim.cfg"], 0),
]


@pytest.mark.parametrize("argv,code", SEED_CASES, ids=[argv[0] for argv, _ in SEED_CASES])
def test_seed_flag_only_for_seeded_commands(tmp_path, capsys, argv, code):
    write(tmp_path / "s.txt", "1\n2\n3\n4\n5\n")
    write(tmp_path / "sim.cfg", SIM_CFG)
    project = tmp_path / "proj"
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run_cli("--project-dir", project, "--seed", 9, *argv) == code
    if code == 2:
        assert "--seed" in capsys.readouterr().err
        # rejected before any work: no phases/, not even the project directory
        assert not project.exists()
    else:
        assert (project / "phases/ideal/fit.json").exists()


def test_simulate_empty_campaign_exit_code(tmp_path):
    cfg = write(tmp_path / "sim.cfg", "runs = 0\nseed = 1\n")
    assert run_cli("--project-dir", tmp_path / "proj", "simulate", "--config", cfg) == 3


def test_simulate_unknown_config_key(tmp_path):
    cfg = write(tmp_path / "sim.cfg", "bogus = 1\n")
    assert run_cli("--project-dir", tmp_path / "proj", "simulate", "--config", cfg) == 2


def test_config_comments_and_blank_lines_are_skipped(tmp_path):
    cfg = write(tmp_path / "c.cfg",
                "# a sweep\n\nruns = 40  # trailing\nevents_per_run = 60\nseed = 5\n")
    assert cli._parse_kv(cfg) == {"runs": "40", "events_per_run": "60", "seed": "5"}
    assert run_cli("--project-dir", tmp_path / "proj", "simulate", "--config", cfg) == 0


@pytest.mark.parametrize("text, error", [
    ("seed = 5\nruns 40\n", "expected 'key = value', got 'runs 40'"),
    ("runs = 40\nruns = 50\n", "duplicate key 'runs'"),
])
def test_config_line_errors_name_the_line(tmp_path, capsys, text, error):
    cfg = write(tmp_path / "c.cfg", text)
    assert run_cli("--project-dir", tmp_path / "proj", "simulate", "--config", cfg) == 2
    assert capsys.readouterr().err == f"config error: {cfg}:2: {error}\n"
    assert not (tmp_path / "proj").exists()


BAD_VALUES = [
    "gof_method = KS", "significance = 1.5", "policy = bogus",
    "policy_k = 0", "bin_width = 0", "runs = many",
    "interarrival_mean = nan", "service_std = inf", "origin = -inf",
]


@pytest.mark.parametrize(
    "command,line",
    [("simulate", line) for line in BAD_VALUES]
    + [("fit", line) for line in BAD_VALUES]
    + [("evaluate", "policy = bogus"), ("evaluate", "request_timeout = 0"),
       ("evaluate", "request_timeout = nan")]
    # a mean this small is positive and finite, but 1 / mean overflows to inf
    + [("simulate", "interarrival_mean = 5e-324"), ("evaluate", "arrival_mean = 5e-324")]
    # the ks tables have four significance columns only
    + [pytest.param("fit", "gof_method = ks\nsignificance = 0.2", id="fit-ks significance 0.2")],
)
def test_bad_config_value_fails_before_any_work(tmp_path, fixed_sample, command, line):
    project = tmp_path / "proj"

    def config(base):
        # line replaces base's own line for its key, which would otherwise
        # fail as a duplicate key whatever the value
        kept = [kv for kv in base.splitlines(True) if kv.split("=")[0] != line.split("=")[0]]
        return write(tmp_path / "c.cfg", "".join(kept) + line + "\n")

    if command == "simulate":
        cfg = config(SIM_CFG)
        argv = ["simulate"]
    elif command == "fit":
        cfg = config("")
        samples = write(tmp_path / "s.txt", "".join(f"{v}\n" for v in fixed_sample.values))
        argv = ["fit", "--samples", samples, "--label", "ideal"]
    else:
        # an unreachable target exits 6 once the crawl starts; 2 shows it never did
        cfg = config(EVAL_CFG)
        argv = ["evaluate", "--target", "http://127.0.0.1:9", "--label", "ideal"]
    assert run_cli("--project-dir", project, *argv, "--config", cfg) == 2
    assert not (project / "phases/ideal").exists()


# argv naming the input file path; each reads it before any other work
UNREADABLE_INPUTS = {
    "config": lambda path: ["simulate", "--config", path],
    "fit-samples": lambda path: ["fit", "--samples", path, "--label", "x"],
    "fit-samples-csv": lambda path: ["fit", "--samples", path, "--column", "v", "--label", "x"],
    "psp-records": lambda path: ["psp", "--records", path],
    "mock-serve-faults": lambda path: ["mock-serve", "--port", "0", "--faults", path],
    # an unreachable target exits 6 if it is ever contacted
    "evaluate-model": lambda path: ["evaluate", "--target", "http://127.0.0.1:9", "--model", path],
}


@pytest.mark.parametrize("command", UNREADABLE_INPUTS)
def test_missing_input_file_exits_2(tmp_path, capsys, command):
    missing = tmp_path / "missing"
    assert run_cli("--project-dir", tmp_path / "proj", *UNREADABLE_INPUTS[command](missing)) == 2
    assert capsys.readouterr().err == f"error: cannot read {missing}: No such file or directory\n"
    assert not (tmp_path / "proj" / "phases").exists()


@pytest.mark.parametrize("command", UNREADABLE_INPUTS)
def test_input_file_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "latin1"
    path.write_bytes(b"1\n\xff\n")
    assert run_cli("--project-dir", tmp_path / "proj", *UNREADABLE_INPUTS[command](path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ")
    assert "can't decode byte 0xff" in err
    assert not (tmp_path / "proj" / "phases").exists()


def test_directory_as_input_file_exits_2(tmp_path, capsys):
    assert run_cli("--project-dir", tmp_path / "proj", "fit", "--samples", tmp_path, "--label", "x") == 2
    assert capsys.readouterr().err == f"error: cannot read {tmp_path}: Is a directory\n"


@pytest.mark.parametrize(
    "project,argv,why",
    [("f", ["fit", "--samples", "{tmp}/s.txt", "--label", "x"], "File exists"),
     ("f/sub", ["simulate", "--config", "{tmp}/sim.cfg"], "Not a directory")],
    ids=["file", "under-a-file"],
)
def test_project_dir_that_cannot_be_a_directory_exits_2(tmp_path, capsys, project, argv, why):
    write(tmp_path / "f", "")
    write(tmp_path / "s.txt", "1\n2\n3\n")
    write(tmp_path / "sim.cfg", SIM_CFG)
    project = tmp_path / project
    assert run_cli("--project-dir", project, *[arg.format(tmp=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: cannot create project directory {project}: {why}\n"


@pytest.mark.parametrize("doc", [{"nodes": []}, {"nodes": [{"view": "public"}], "edges": []}, []])
def test_evaluate_malformed_model_exits_2(tmp_path, capsys, doc):
    model = write(tmp_path / "model.json", json.dumps(doc))
    project = tmp_path / "proj"
    # an unreachable target exits 6 if it is ever contacted
    argv = ["evaluate", "--target", "http://127.0.0.1:9", "--label", "x", "--model", model]
    assert run_cli("--project-dir", project, *argv) == 2
    assert "site model" in capsys.readouterr().err
    assert not (project / "phases").exists()


def test_evaluate_model_with_a_path_that_is_not_ascii_exits_2(tmp_path, capsys):
    # no request target carries /café: a tester on that node would end the run
    doc = json.loads((DATA / "mock_site_model.json").read_text())
    doc["nodes"].append({"view": "public", "path": "/café", "actions": ["read"], "forms": []})
    doc["edges"].append(["public:/", "public:/café"])
    model = write(tmp_path / "model.json", json.dumps(doc))
    cfg = write(tmp_path / "eval.cfg", EVAL_CFG)
    project = tmp_path / "proj"
    argv = ["evaluate", "--target", "http://127.0.0.1:9", "--label", "x",
            "--config", cfg, "--model", model]
    assert run_cli("--project-dir", project, *argv) == 2
    assert "site model node 'public:/café': path is not ASCII" in capsys.readouterr().err
    assert not (project / "phases").exists()


# each label flag, as argv around the label; an unreachable target exits 6
# if it is ever contacted
LABEL_ARGVS = {
    "simulate": lambda label: ["simulate", "--config", "{tmp}/sim.cfg", "--label", label],
    "evaluate": lambda label: ["evaluate", "--target", "http://127.0.0.1:9", "--label", label],
    "fit": lambda label: ["fit", "--samples", "{tmp}/s.txt", "--label", label],
    "psp": lambda label: ["psp", "--records", str(DATA / "psp_records.csv"), "--label", label],
    "compare-a": lambda label: ["compare", label, "ideal"],
    "compare-b": lambda label: ["compare", "ideal", label],
}


@pytest.mark.parametrize("label", ["", ".", "..", "../escape", "a/b", "../../escape"])
@pytest.mark.parametrize("command", LABEL_ARGVS)
def test_label_not_one_directory_name_exits_2(tmp_path, capsys, command, label):
    write(tmp_path / "s.txt", "1\n2\n3\n4\n5\n")
    write(tmp_path / "sim.cfg", SIM_CFG)
    inputs = set(tmp_path.rglob("*"))
    argv = [arg.format(tmp=tmp_path) for arg in LABEL_ARGVS[command](label)]
    with pytest.raises(SystemExit) as exc:
        run_cli("--project-dir", tmp_path / "proj", *argv)
    assert exc.value.code == 2
    assert "not a single directory name" in capsys.readouterr().err
    assert set(tmp_path.rglob("*")) == inputs


@pytest.mark.parametrize("label", ["a__vs__b", "__vs__", "ideal__vs__"])
@pytest.mark.parametrize("command", LABEL_ARGVS)
def test_label_with_compare_separator_exits_2(tmp_path, capsys, command, label):
    # compare a__vs__b c and compare a b__vs__c would share compare/a__vs__b__vs__c
    write(tmp_path / "s.txt", "1\n2\n3\n4\n5\n")
    write(tmp_path / "sim.cfg", SIM_CFG)
    inputs = set(tmp_path.rglob("*"))
    argv = [arg.format(tmp=tmp_path) for arg in LABEL_ARGVS[command](label)]
    with pytest.raises(SystemExit) as exc:
        run_cli("--project-dir", tmp_path / "proj", *argv)
    assert exc.value.code == 2
    assert "contains '__vs__'" in capsys.readouterr().err
    assert set(tmp_path.rglob("*")) == inputs


def test_project_refuses_labels_that_share_a_directory(tmp_path):
    # the rule is the project's own, so a library caller gets it too
    project = EiProject(tmp_path)
    for label_a, label_b in (("a__vs__b", "c"), ("a", "b__vs__c")):
        with pytest.raises(ValueError, match="contains '__vs__'"):
            project.compare_dir(label_a, label_b)
    for label in ("", ".", "..", "a/b", "../escape"):
        with pytest.raises(ValueError, match="not a single directory name"):
            project.phase_dir(label)
        with pytest.raises(ValueError, match="not a single directory name"):
            project.psp_dir(label)
    with pytest.raises(ValueError, match="contains '__vs__'"):
        project.persist_phase("x__vs__y", DefectSampleSet((1.0, 2.0)), {})
    assert not (tmp_path / "phases").exists()
    assert project.compare_dir("a", "b") == tmp_path / "compare" / "a__vs__b"


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_mock_serve_port_out_of_range_exits_2(tmp_path, capsys, port):
    with pytest.raises(SystemExit) as exc:
        run_cli("--project-dir", tmp_path / "proj", "mock-serve", "--port", port)
    assert exc.value.code == 2
    assert "not a port number in 0-65535" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


FLOAT_FIELDS = [
    (SimConfig, "interarrival_mean"), (SimConfig, "service_mean"), (SimConfig, "service_std"),
    (SimConfig, "fault_probability"),
    (HarnessConfig, "duration_s"), (HarnessConfig, "arrival_mean_s"),
    (HarnessConfig, "request_timeout_s"),
    (AnomalyPolicy, "k"),
    (Analysis, "policy_k"), (Analysis, "bin_width"), (Analysis, "origin"),
    (Analysis, "significance"),
]


def test_float_fields_listed():
    classes = {cls for cls, _ in FLOAT_FIELDS}
    declared = {(cls, f.name) for cls in classes for f in fields(cls) if f.type in ("float", float)}
    assert declared == set(FLOAT_FIELDS)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls,name", FLOAT_FIELDS, ids=lambda x: getattr(x, "__name__", x))
def test_config_class_refuses_non_finite_float(cls, name, value):
    with pytest.raises(ValueError):
        cls(**{name: value})


def test_simulate_trace_flag(tmp_path):
    cfg = write(tmp_path / "sim.cfg", SIM_CFG)
    assert run_cli("--project-dir", tmp_path / "p", "simulate", "--config", cfg, "--trace") == 0
    trace = (tmp_path / "p/phases/ideal/trace-run0.csv").read_text().splitlines()
    assert trace[0] == "clock,event_type,queue_size"
    assert len(trace) > 60


def test_crawl_writes_model(tmp_path):
    with MockTarget() as target:
        out = tmp_path / "model.json"
        assert run_cli("crawl", "--target", target.base_url, "--out", out) == 0
        doc = json.loads(out.read_text())
    model = SiteModel.from_dict(doc)
    assert len(model.view_nodes("public")) == 4


def test_crawl_cut_by_its_limits_says_so(tmp_path, capsys):
    cfg = write(tmp_path / "crawl.cfg", "max_depth = 1\n")
    with MockTarget() as target:
        assert run_cli("crawl", "--config", cfg, "--target", target.base_url,
                       "--out", tmp_path / "model.json") == 0
    assert "note: crawl limits were hit; the model is truncated\n" in capsys.readouterr().out
    assert json.loads((tmp_path / "model.json").read_text())["truncated"] is True


@pytest.mark.parametrize("target", ["http://127.0.0.1:9", "127.0.0.1:9", "file:///etc/"])
def test_crawl_unreachable_exit_code(tmp_path, target):
    assert run_cli("--project-dir", tmp_path, "crawl", "--target", target) == 6


@pytest.mark.parametrize(
    "argv,directory,why",
    [(["--project-dir", "{tmp}/f", "crawl"], "f/models", "Not a directory"),
     (["crawl", "--out", "{tmp}/f/m.json"], "f", "File exists")],
    ids=["project-dir", "out"],
)
def test_crawl_output_that_cannot_be_a_directory_exits_2(tmp_path, capsys, argv, directory, why):
    # an unreachable target exits 6 if it is ever contacted
    write(tmp_path / "f", "")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run_cli(*argv, "--target", "http://127.0.0.1:9") == 2
    assert capsys.readouterr().err == f"error: cannot create directory {tmp_path / directory}: {why}\n"


def test_evaluate_density_matches_replay_oracle(tmp_path):
    # write-action faults keep the crawl complete while every round still
    # trips several of them
    faults = [
        SeededFault("/student/profile", "update", "error-marker"),
        SeededFault("/professor/students", "update", "http-500"),
        SeededFault("/professor/courses", "insert", "http-500"),
        SeededFault("/student/courses", "insert", "error-marker"),
        SeededFault("/professor/courses/edit", "update", "missing-marker"),
    ]
    cfg = write(
        tmp_path / "eval.cfg",
        "evaluations = 4\ncases = 12\nwalk_length = 4\nduration = 30\n"
        "arrival_mean = 0.001\nworkers = 12\nseed = 4\n",
    )
    with MockTarget(faults) as target:
        project = tmp_path / "proj"
        assert run_cli("--project-dir", project, "evaluate",
                       "--target", target.base_url, "--config", cfg) == 0
        model = SiteModel.from_dict(
            json.loads((project / "phases/real/model.json").read_text())
        )
        values = [
            float(v)
            for v in (project / "phases/real/samples.txt").read_text().split()
        ]
        expected = []
        for index in range(4):
            round_seed = 4 * 1_000_003 + index
            cases = generate_test_cases(model, default_profiles(), 12, round_seed, 4)
            expected.append(float(predict_density(cases, target.fault_table)))
    assert values == expected
    assert sum(values) > 0


def test_evaluate_fault_free_zero_density_path(tmp_path):
    cfg = write(tmp_path / "eval.cfg", EVAL_CFG)
    with MockTarget() as target:
        project = tmp_path / "proj"
        code = run_cli("--project-dir", project, "evaluate",
                       "--target", target.base_url, "--config", cfg)
    # all-zero sample: artifacts exist, the fit failure is explicit
    assert code == 3
    samples = (project / "phases/real/samples.txt").read_text().split()
    assert samples == ["0", "0", "0"]
    error = json.loads((project / "phases/real/fit_error.json").read_text())
    assert error["stage"] == "fit"


def test_evaluate_repeat_same_seed_identical_artifacts(tmp_path):
    faults = [
        SeededFault("/student/profile", "update", "error-marker"),
        SeededFault("/professor/students", "update", "http-500"),
        SeededFault("/professor/courses", "insert", "http-500"),
        SeededFault("/student/courses", "insert", "error-marker"),
    ]
    cfg = write(tmp_path / "eval.cfg", RICH_EVAL_CFG)
    results = []
    with MockTarget(faults) as target:
        for name in ("a", "b"):
            project = tmp_path / name
            assert run_cli("--project-dir", project, "evaluate",
                           "--target", target.base_url, "--config", cfg) == 0
            results.append(phase_files(project, "real"))
    # config.json embeds the target URL, which differs per server port
    a, b = results
    a.pop("config.json")
    b.pop("config.json")
    assert a == b


def test_evaluate_seed_flag_overrides_config(tmp_path):
    faults = [SeededFault("/student/profile", "update", "error-marker"),
              SeededFault("/professor/courses", "insert", "http-500")]
    results = []
    with MockTarget(faults) as target:
        # --seed 9 over a config file's seed = 4, and seed = 9 in the file
        for name, seed_flag, seed in (("flag", ["--seed", 9], 4), ("config", [], 9)):
            text = RICH_EVAL_CFG.replace("seed = 4", f"seed = {seed}")
            cfg = write(tmp_path / f"{name}.cfg", text)
            project = tmp_path / name
            assert run_cli("--project-dir", project, *seed_flag, "evaluate",
                           "--target", target.base_url, "--config", cfg) == 0
            results.append(phase_files(project, "real"))
    assert json.loads(results[0]["config.json"])["campaign"]["seed"] == 9
    assert results[0] == results[1]


def test_evaluate_with_cached_model(tmp_path):
    cfg = write(tmp_path / "eval.cfg", RICH_EVAL_CFG)
    faults = [
        SeededFault("/student/profile", "update", "error-marker"),
        SeededFault("/professor/students", "update", "http-500"),
        SeededFault("/professor/courses", "insert", "http-500"),
        SeededFault("/student/courses", "insert", "error-marker"),
    ]
    with MockTarget(faults) as target:
        model_path = tmp_path / "model.json"
        assert run_cli("crawl", "--target", target.base_url, "--out", model_path) == 0
        project = tmp_path / "proj"
        assert run_cli("--project-dir", project, "evaluate", "--target", target.base_url,
                       "--config", cfg, "--model", model_path) == 0
        assert (project / "phases/real/model.json").read_text() == model_path.read_text()


def test_evaluate_with_cached_model_records_model_path(tmp_path):
    cfg = write(tmp_path / "eval.cfg", RICH_EVAL_CFG)
    faults = [
        SeededFault("/student/profile", "update", "error-marker"),
        SeededFault("/professor/courses", "insert", "http-500"),
    ]
    with MockTarget(faults) as target:
        model_path = tmp_path / "model.json"
        assert run_cli("crawl", "--target", target.base_url, "--out", model_path) == 0
        project = tmp_path / "proj"
        assert run_cli("--project-dir", project, "evaluate", "--target", target.base_url,
                       "--config", cfg, "--model", model_path) == 0
    config = json.loads((project / "phases/real/config.json").read_text())
    assert config["model"] == str(model_path)
    # no crawl ran, so no crawl limits are recorded
    assert "crawl" not in config


def test_evaluate_target_down_exit_code(tmp_path):
    cfg = write(tmp_path / "eval.cfg", EVAL_CFG)
    model = tmp_path / "model.json"
    with MockTarget() as target:
        assert run_cli("crawl", "--target", target.base_url, "--out", model) == 0
    # campaign rounds all abort -> every value discarded -> empty retained set
    code = run_cli("--project-dir", tmp_path / "proj", "evaluate",
                   "--target", "http://127.0.0.1:9", "--config", cfg, "--model", model)
    assert code == 3


def test_evaluate_all_rounds_aborted_records_why(tmp_path):
    cfg = write(tmp_path / "eval.cfg", EVAL_CFG)
    project = tmp_path / "proj"
    code = run_cli("--project-dir", project, "evaluate", "--target", "http://127.0.0.1:9",
                   "--config", cfg, "--model", DATA / "mock_site_model.json")
    assert code == 3
    sample_set = json.loads((project / "phases/real/sample_set.json").read_text())
    assert sample_set["retained"] == []
    assert [d["value"] for d in sample_set["discarded"]] == [None, None, None]
    assert all("aborted" in d["reason"] for d in sample_set["discarded"])
    error = json.loads((project / "phases/real/fit_error.json").read_text())
    assert error["stage"] == "anomaly policy"
    assert error["error"].startswith("EmptySample:")


def test_fit_all_discarded_records_why(tmp_path):
    samples = write(tmp_path / "s.txt", "0\n2\n")
    cfg = write(tmp_path / "fit.cfg", "policy = zscore\npolicy_k = 0.1\n")
    project = tmp_path / "proj"
    code = run_cli("--project-dir", project, "--config", cfg, "fit",
                   "--samples", samples, "--label", "x")
    assert code == 9
    sample_set = json.loads((project / "phases/x/sample_set.json").read_text())
    assert sample_set["retained"] == []
    assert sorted(d["value"] for d in sample_set["discarded"]) == [0.0, 2.0]
    assert (project / "phases/x/samples.txt").read_text() == ""
    error = json.loads((project / "phases/x/fit_error.json").read_text())
    assert error["stage"] == "anomaly policy"
    assert error["error"].startswith("AllDiscarded:")
    assert not (project / "phases/x/fit.json").exists()


def test_fit_rerun_all_discarded_leaves_no_stale_fit(tmp_path, fixed_sample):
    good = write(tmp_path / "good.txt", "".join(f"{v}\n" for v in fixed_sample.values))
    project = tmp_path / "proj"
    assert run_cli("--project-dir", project, "fit", "--samples", good, "--label", "x") == 0
    assert (project / "phases/x/fit.json").exists()
    bad = write(tmp_path / "s.txt", "0\n2\n")
    cfg = write(tmp_path / "fit.cfg", "policy = zscore\npolicy_k = 0.1\n")
    assert run_cli("--project-dir", project, "--config", cfg, "fit",
                   "--samples", bad, "--label", "x") == 9
    assert not (project / "phases/x/fit.json").exists()
    assert not (project / "phases/x/histogram.csv").exists()
    # compare finds no fit for x rather than the first run's
    assert run_cli("--project-dir", project, "compare", "x", "x") == 7


def test_fit_clean_rerun_leaves_no_stale_fit_error(tmp_path, fixed_sample):
    two_bins = write(tmp_path / "two.txt", "0.2\n0.5\n0.7\n1.2\n1.5\n1.8\n")
    project = tmp_path / "proj"
    assert run_cli("--project-dir", project, "fit", "--samples", two_bins, "--label", "x") == 0
    assert (project / "phases/x/fit_error.json").exists()
    good = write(tmp_path / "good.txt", "".join(f"{v}\n" for v in fixed_sample.values))
    assert run_cli("--project-dir", project, "fit", "--samples", good, "--label", "x") == 0
    assert not (project / "phases/x/fit_error.json").exists()
    assert json.loads((project / "phases/x/fit.json").read_text())["gof"]["passed"] is True


def test_psp_golden_report(tmp_path):
    project = tmp_path / "proj"
    assert run_cli("--project-dir", project, "psp", "--records", DATA / "psp_records.csv") == 0
    got = json.loads((project / "psp/psp/trend.json").read_text())
    golden = json.loads((DATA / "golden_psp_trend.json").read_text())
    assert got == golden
    yield_csv = (project / "psp/psp/yield_percent.csv").read_text().splitlines()
    assert yield_csv[0] == "program_number,yield_percent"
    assert len(yield_csv) == 11


def test_psp_empty_file_errors(tmp_path):
    empty = write(tmp_path / "empty.csv", "")
    assert run_cli("--project-dir", tmp_path / "proj", "psp", "--records", empty) == 8


def test_psp_single_record(tmp_path):
    header = (DATA / "psp_records.csv").read_text().splitlines()[0]
    single = write(
        tmp_path / "one.csv",
        header + "\nprogram,1,500,30,60,10,120,15,30,90,20,,,,\n"
        + "defect,1,,,,,,,,,,code,test,5,logic\n",
    )
    project = tmp_path / "proj"
    assert run_cli("--project-dir", project, "psp", "--records", single) == 0
    doc = json.loads((project / "psp/psp/trend.json").read_text())
    assert doc["program_numbers"] == [1]
    assert all(slope is None for slope in doc["slopes"].values())


PSP_HEADER = (DATA / "psp_records.csv").read_text().splitlines()[0]
PSP_PROGRAM_ROW = "program,{n},500,30,60,10,120,15,{compile},90,20,,,,\n"
PSP_DEFECT_ROW = "defect,{n},,,,,,,,,,code,test,{fix},logic\n"


@pytest.mark.parametrize("name,text", [("none.json", "[]\n"), ("header-only.csv", PSP_HEADER + "\n")],
                         ids=["empty-json-list", "header-only-csv"])
def test_psp_file_with_no_program_errors(tmp_path, name, text):
    records = write(tmp_path / name, text)
    project = tmp_path / "proj"
    assert run_cli("--project-dir", project, "psp", "--records", records) == 8
    assert not (project / "psp").exists()


def _psp_json(*programs) -> str:
    return json.dumps([
        {"program_number": n, "loc_new_changed": 500,
         "phase_times": {**dict.fromkeys(PSP_PHASES, 10.0), "compile": compile_minutes}}
        for n, compile_minutes in programs
    ])


@pytest.mark.parametrize("name,text,where", [
    ("repeat.csv", PSP_HEADER + "\n" + PSP_PROGRAM_ROW.format(n=1, compile=30)
     + PSP_PROGRAM_ROW.format(n=1, compile=40), "row 3, column 'program_number'"),
    ("repeat.json", _psp_json((1, 30.0), (1, 40.0)), "row 1, column 'program_number'"),
    ("nan.csv", PSP_HEADER + "\n" + PSP_PROGRAM_ROW.format(n=1, compile="nan"), "row 2"),
    ("nan.json", _psp_json((1, 30.0), (2, math.nan)), "row 1"),
    ("inf-fix.csv", PSP_HEADER + "\n" + PSP_PROGRAM_ROW.format(n=1, compile=30)
     + "defect,1,,,,,,,,,,code,test,inf,logic\n", "row 3"),
    # every other row error of a CSV file names its row and column too
    ("orphan.csv", PSP_HEADER + "\n" + PSP_PROGRAM_ROW.format(n=1, compile=30)
     + "".join(PSP_DEFECT_ROW.format(n=n, fix=3) for n in (1, 99, 98)),
     "row 4, column 'program_number': defect rows reference unknown programs [98, 99]"),
    ("loc.csv",
     PSP_HEADER + "\n" + PSP_PROGRAM_ROW.format(n=1, compile=30).replace(",500,", ",5x0,"),
     "row 2, column 'loc_new_changed': not an integer"),
    ("fix.csv", PSP_HEADER + "\n" + PSP_PROGRAM_ROW.format(n=1, compile=30)
     + PSP_DEFECT_ROW.format(n=1, fix="soon"), "row 3, column 'fix_minutes': not numeric"),
    ("kind.csv",
     PSP_HEADER + "\n" + PSP_PROGRAM_ROW.format(n=1, compile=30).replace("program", "task", 1),
     "row 2, column 'row_type': unknown row type 'task'"),
], ids=["repeat-csv", "repeat-json", "nan-csv", "nan-json", "inf-fix-csv",
        "orphan-defect-csv", "loc-not-an-integer-csv", "fix-minutes-not-numeric-csv",
        "unknown-row-type-csv"])
def test_psp_rejects_repeated_program_and_non_finite_minutes(tmp_path, capsys, name, text, where):
    records = write(tmp_path / name, text)
    project = tmp_path / "proj"
    assert run_cli("--project-dir", project, "psp", "--records", records) == 8
    assert where in capsys.readouterr().err
    assert not (project / "psp").exists()


@pytest.mark.parametrize("text,reason", [
    ("null", "row 0, column 'record': expected a list of programs, got NoneType"),
    ('{"x": 1}', "row 0, column 'record': expected a list of programs, got dict"),
    ("[1]", "row 0, column 'record': expected a program object, got int"),
], ids=["null", "object", "list-of-int"])
def test_psp_json_not_a_list_of_objects_errors(tmp_path, capsys, text, reason):
    records = write(tmp_path / "records.json", text + "\n")
    project = tmp_path / "proj"
    assert run_cli("--project-dir", project, "psp", "--records", records) == 8
    assert reason in capsys.readouterr().err
    assert not (project / "psp").exists()


# a bad value on line 3 of a text file, or of a CSV file's column v
@pytest.mark.parametrize("name,bad", [
    ("s.txt", "abc"), ("s.txt", "inf"), ("s.txt", "nan"), ("s.txt", "-2"),
    ("s.csv", "1e400"), ("s.csv", "-3"),
], ids=["abc", "inf", "nan", "-2", "csv-1e400", "csv--3"])
def test_fit_rejects_bad_value_before_writing(tmp_path, capsys, name, bad):
    column = ["--column", "v"] if name.endswith(".csv") else []
    head = "v\n1.5\n" if column else "1.5\n2.5\n"
    samples = write(tmp_path / name, f"{head}{bad}\n3.0\n")
    project = tmp_path / "proj"
    assert run_cli("--project-dir", project, "fit", "--samples", samples, *column,
                   "--label", "x") == 2
    assert not (project / "phases/x").exists()
    assert f"{samples}:3: " in capsys.readouterr().err


def test_fit_text_samples(tmp_path, fixed_sample):
    samples = write(
        tmp_path / "s.txt", "".join(f"{v}\n" for v in fixed_sample.values)
    )
    project = tmp_path / "proj"
    assert run_cli("--project-dir", project, "fit", "--samples", samples, "--label", "x") == 0
    fit = json.loads((project / "phases/x/fit.json").read_text())
    assert 1.45 <= fit["shape"] <= 1.80
    assert fit["gof"]["passed"] is True


def test_fit_csv_column(tmp_path):
    csv_file = write(tmp_path / "s.csv", "run,density\n1,1.0\n2,2.7182818284590451\n")
    project = tmp_path / "proj"
    assert run_cli("--project-dir", project, "fit", "--samples", csv_file,
                   "--label", "two", "--column", "density") == 0
    fit = json.loads((project / "phases/two/fit.json").read_text())
    assert fit["shape"] == pytest.approx(2.397, abs=0.01)


def test_fit_two_bin_sample_skips_goodness_of_fit(tmp_path):
    # unit bins [0, 1) and [1, 2): chi-square needs at least 3
    samples = write(tmp_path / "s.txt", "0.2\n0.5\n0.7\n1.2\n1.5\n1.8\n")
    project = tmp_path / "proj"
    assert run_cli("--project-dir", project, "fit", "--samples", samples, "--label", "x") == 0
    assert json.loads((project / "phases/x/fit.json").read_text())["gof"] is None
    error = json.loads((project / "phases/x/fit_error.json").read_text())
    assert error["stage"] == "goodness-of-fit"
    assert "InsufficientData" in error["error"]


def test_fit_at_a_significance_near_1_exits_0(tmp_path):
    # chi2_ppf's threshold at p = 1e-9 and 9 dof, where a full Newton step
    # from the start, far below the root, overshoots to where the density
    # underflows to 0
    values = sample(WeibullModel(2.0, 4.0), 100, random.Random(1))
    samples = write(tmp_path / "s.txt", "".join(f"{v!r}\n" for v in values))
    cfg = write(tmp_path / "fit.cfg", "bin_width = 0.5\nsignificance = 0.999999999\n")
    project = tmp_path / "proj"
    argv = ["fit", "--samples", samples, "--config", cfg, "--label", "x"]
    assert run_cli("--project-dir", project, *argv) == 0
    gof = json.loads((project / "phases/x/fit.json").read_text())["gof"]
    assert gof["dof"] == 9
    # scipy.stats.chi2.ppf(1 - 0.999999999, 9)
    assert gof["threshold"] == pytest.approx(0.04840705813071332, rel=1e-12)


@pytest.mark.parametrize("significance", ["1e-20", "5.551115123125783e-17"])  # 2**-54
def test_fit_at_a_significance_whose_complement_rounds_to_1_exits_2(tmp_path, capsys,
                                                                    significance):
    # 1 - significance rounds to 1.0, where the chi-square quantile is infinite
    values = sample(WeibullModel(2.0, 4.0), 100, random.Random(1))
    samples = write(tmp_path / "s.txt", "".join(f"{v!r}\n" for v in values))
    cfg = write(tmp_path / "fit.cfg", f"significance = {significance}\n")
    project = tmp_path / "proj"
    argv = ["fit", "--samples", samples, "--config", cfg, "--label", "x"]
    assert run_cli("--project-dir", project, *argv) == 2
    assert "significance must be above 2**-54" in capsys.readouterr().err
    assert not (project / "phases/x").exists()


def test_compare_same_label_equal(tmp_path, fixed_sample):
    samples = write(tmp_path / "s.txt", "".join(f"{v}\n" for v in fixed_sample.values))
    project = tmp_path / "proj"
    assert run_cli("--project-dir", project, "fit", "--samples", samples, "--label", "x") == 0
    assert run_cli("--project-dir", project, "compare", "x", "x") == 0
    report = json.loads((project / "compare/x__vs__x/report.json").read_text())
    assert report["verdict"] == "equal"
    assert report["mean_ratio"] == 1.0


def _write_fit(project: Path, label: str, shape: float, scale: float):
    directory = project / "phases" / label
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "fit.json").write_text(json.dumps({"shape": shape, "scale": scale}))


def test_compare_handwritten_reference_models(tmp_path):
    project = tmp_path / "proj"
    _write_fit(project, "ideal", 1.63, 2.4)
    _write_fit(project, "real", 2.16, 12.8)
    _write_fit(project, "post-psp", 1.26, 5.19)

    assert run_cli("--project-dir", project, "compare", "ideal", "real") == 0
    doc = json.loads((project / "compare/ideal__vs__real/report.json").read_text())
    assert doc["verdict"] == "a more reliable"
    assert doc["mean_a"] == pytest.approx(2.15, abs=5e-3)
    assert doc["mean_b"] == pytest.approx(11.34, abs=5e-3)

    assert run_cli("--project-dir", project, "compare", "post-psp", "real") == 0
    doc = json.loads((project / "compare/post-psp__vs__real/report.json").read_text())
    assert doc["improvement"] == "improved"
    assert doc["mean_ratio"] == pytest.approx(0.426, abs=1e-3)

    curves = (project / "compare/post-psp__vs__real/curves.csv").read_text().splitlines()
    assert curves[0] == "x,pdf_a,pdf_b"
    assert len(curves) == 513


def test_compare_missing_phase_exit_code(tmp_path):
    project = tmp_path / "proj"
    _write_fit(project, "only", 1.5, 2.0)
    assert run_cli("--project-dir", project, "compare", "only", "ghost") == 7


@pytest.mark.parametrize("doc", [{"shape": 2.0}, {"shape": -1, "scale": 2.0},
                                 {"shape": "nan", "scale": 2.0}, [],
                                 # no finite mean: gamma(1001) overflows; 1e300 * gamma(101) is inf
                                 {"shape": 0.001, "scale": 1}, {"shape": 0.01, "scale": 1e300}])
def test_compare_unusable_fit_exit_code(tmp_path, capsys, doc):
    project = tmp_path / "proj"
    _write_fit(project, "good", 1.5, 2.0)
    bad = project / "phases/bad/fit.json"
    bad.parent.mkdir(parents=True)
    bad.write_text(json.dumps(doc))
    assert run_cli("--project-dir", project, "compare", "good", "bad") == 7
    assert str(bad) in capsys.readouterr().err
    assert not (project / "compare").exists()


@pytest.mark.parametrize("order", [("big", "tiny"), ("tiny", "big")], ids=["overflow", "underflow"])
def test_compare_refuses_pair_with_no_usable_mean_ratio(tmp_path, capsys, order):
    # each mean is finite, but 1e300 / 1e-310 is inf and its reverse 0.0
    project = tmp_path / "proj"
    _write_fit(project, "big", 1.0, 1e300)
    _write_fit(project, "tiny", 1.0, 1e-310)
    assert run_cli("--project-dir", project, "compare", *order) == 7
    err = capsys.readouterr().err
    assert "'big'" in err and "'tiny'" in err
    assert not (project / "compare").exists()


def test_compare_uses_only_persisted_artifacts(tmp_path):
    # deleting the evaluation logs must not change the comparison
    import shutil

    cfg = write(tmp_path / "eval.cfg", RICH_EVAL_CFG)
    faults = [
        SeededFault("/student/profile", "update", "error-marker"),
        SeededFault("/professor/students", "update", "http-500"),
        SeededFault("/professor/courses", "insert", "http-500"),
        SeededFault("/student/courses", "insert", "error-marker"),
    ]
    project = tmp_path / "proj"
    with MockTarget(faults) as target:
        assert run_cli("--project-dir", project, "evaluate",
                       "--target", target.base_url, "--config", cfg) == 0
    _write_fit(project, "ideal", 1.63, 2.4)
    assert run_cli("--project-dir", project, "compare", "ideal", "real") == 0
    before = (project / "compare/ideal__vs__real/report.json").read_bytes()
    shutil.rmtree(project / "phases/real/logs")
    assert run_cli("--project-dir", project, "compare", "ideal", "real") == 0
    assert (project / "compare/ideal__vs__real/report.json").read_bytes() == before


def test_every_json_artifact_has_one_format(tmp_path, fixed_sample):
    project = tmp_path / "proj"
    sim_cfg = write(tmp_path / "sim.cfg", SIM_CFG)
    samples = write(tmp_path / "s.txt", "".join(f"{v}\n" for v in fixed_sample.values))
    eval_cfg = write(tmp_path / "eval.cfg", RICH_EVAL_CFG)
    faults = [
        SeededFault("/student/profile", "update", "error-marker"),
        SeededFault("/professor/students", "update", "http-500"),
        SeededFault("/professor/courses", "insert", "http-500"),
        SeededFault("/student/courses", "insert", "error-marker"),
    ]
    assert run_cli("--project-dir", project, "simulate", "--config", sim_cfg) == 0
    assert run_cli("--project-dir", project, "fit", "--samples", samples, "--label", "x") == 0
    assert run_cli("--project-dir", project, "compare", "ideal", "x") == 0
    assert run_cli("--project-dir", project, "psp", "--records", DATA / "psp_records.csv") == 0
    with MockTarget(faults) as target:
        assert run_cli("--project-dir", project, "crawl", "--target", target.base_url) == 0
        assert run_cli("--project-dir", project, "evaluate",
                       "--target", target.base_url, "--config", eval_cfg) == 0
    written = sorted(project.rglob("*.json"))
    assert {p.name for p in written} == {
        "config.json", "sample_set.json", "fit.json", "report.json", "trend.json",
        "site_model.json", "model.json", "error_log.json", "fit_error.json",
    }
    for path in written:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path


# the keys README "Report schemas" lists for each JSON report; the error
# log's are the golden's
FIT_KEYS = {"shape", "scale", "sample_count", "iterations", "residual", "method",
            "zeros_excluded", "source_label", "gof"}
GOF_KEYS = {"method", "statistic", "threshold", "dof", "significance", "passed"}
REPORT_KEYS = {"label_a", "label_b", "shape_a", "shape_b", "scale_a", "scale_b", "mean_a",
               "mean_b", "mean_ratio", "sup_cdf_distance", "verdict", "improvement"}
TREND_KEYS = {"command", "label", "records", "program_numbers", "series", "slopes"}


def test_artifact_keys_are_the_documented_schema(tmp_path, fixed_sample):
    project = tmp_path / "proj"
    samples = write(tmp_path / "s.txt", "".join(f"{v}\n" for v in fixed_sample.values))
    ks = write(tmp_path / "ks.cfg", "gof_method = ks\n")
    eval_cfg = write(tmp_path / "eval.cfg", RICH_EVAL_CFG)
    faults = [
        SeededFault("/student/profile", "update", "error-marker"),
        SeededFault("/professor/courses", "insert", "http-500"),
    ]
    assert run_cli("--project-dir", project, "fit", "--samples", samples, "--label", "x") == 0
    assert run_cli("--project-dir", project, "--config", ks,
                   "fit", "--samples", samples, "--label", "y") == 0
    assert run_cli("--project-dir", project, "compare", "x", "y") == 0
    assert run_cli("--project-dir", project, "psp", "--records", DATA / "psp_records.csv") == 0
    with MockTarget(faults) as target:
        assert run_cli("--project-dir", project, "evaluate",
                       "--target", target.base_url, "--config", eval_cfg) == 0
    for label in ("x", "y"):
        fit = json.loads((project / "phases" / label / "fit.json").read_text())
        assert set(fit) == FIT_KEYS
        assert set(fit["gof"]) == GOF_KEYS
    report = json.loads((project / "compare/x__vs__y/report.json").read_text())
    assert set(report) == REPORT_KEYS
    assert set(json.loads((project / "psp/psp/trend.json").read_text())) == TREND_KEYS
    golden = json.loads((DATA / "golden_error_log.json").read_text())
    logs = sorted((project / "phases/real/logs").glob("round-*/error_log.json"))
    assert len(logs) == 4
    for path in logs:
        assert set(json.loads(path.read_text())) == set(golden)


def test_lock_blocks_second_command(tmp_path):
    project = tmp_path / "proj"
    project.mkdir()
    (project / ".webrely.lock").write_text("pid 1\n")
    cfg = write(tmp_path / "sim.cfg", SIM_CFG)
    assert run_cli("--project-dir", project, "simulate", "--config", cfg) == 11


def test_lock_released_after_success(tmp_path):
    project = tmp_path / "proj"
    cfg = write(tmp_path / "sim.cfg", SIM_CFG)
    assert run_cli("--project-dir", project, "simulate", "--config", cfg) == 0
    assert not (project / ".webrely.lock").exists()
    assert run_cli("--project-dir", project, "simulate", "--config", cfg) == 0


def test_fault_table_file_roundtrip(tmp_path):
    path = write(
        tmp_path / "faults.json",
        json.dumps([{"path": "/courses", "action": "read", "behavior": "http-500"}]),
    )
    faults = load_fault_table(path)
    assert len(faults) == 1
    assert faults[0].behavior == "http-500"


def _ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


# (signal sent, run in the child before exec): Ctrl-C; a `kill -INT` to a
# background job of a non-interactive shell, which starts with SIGINT
# ignored; and SIGTERM
MOCK_SERVE_STOPS = [
    (signal.SIGINT, None),
    (signal.SIGINT, _ignore_sigint),
    (signal.SIGTERM, None),
]


def test_mock_serve_subprocess():
    for signum, preexec_fn in MOCK_SERVE_STOPS:
        proc = subprocess.Popen(
            [sys.executable, "-m", "webrely.cli", "mock-serve", "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=preexec_fn,
        )
        # the session stays open, so the signal meets an idle kept-alive client
        with proc.stdout, Session() as session:
            try:
                line = proc.stdout.readline()
                url = line.split()[-4]  # "mock target serving on <url> (Ctrl-C to stop)"
                assert url.startswith("http://")
                response = session.fetch(url + "/courses", timeout=5)
                assert response.status == 200
                assert "page:/courses" in response.text
            finally:
                proc.send_signal(signum)
                started = time.monotonic()
                try:
                    code = proc.wait(timeout=2)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    raise
                took = time.monotonic() - started
        assert code == 0, (signum, preexec_fn)
        assert took < 0.25  # half of socketserver's default poll


# an unknown action, a missing key and an entry that is not an object
BAD_FAULT_TABLES = [
    '[{"path": "/", "action": "raed", "behavior": "http-500"}]',
    '[{"path": "/", "behavior": "http-500"}]',
    '["/"]',
]


@pytest.mark.parametrize("table", BAD_FAULT_TABLES, ids=["action", "missing-key", "not-object"])
def test_mock_serve_rejects_bad_fault_table(tmp_path, table):
    faults = write(tmp_path / "faults.json", table)
    # a subprocess, so that a table accepted by mistake serves until the timeout
    # instead of hanging the suite
    proc = subprocess.run(
        [sys.executable, "-m", "webrely.cli", "mock-serve", "--port", "0", "--faults", str(faults)],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")
    assert proc.stdout == ""


def test_cli_imports_no_third_party_package():
    packages = "{'requests', 'urllib3', 'scipy', 'numpy'}"
    code = f"import sys, webrely.cli; print(sorted({packages} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_http_machinery():
    # only crawl, evaluate and mock-serve need the harness; they import it
    # when they run
    modules = "{'webrely.harness', 'http.client', 'http.server', 'urllib.request'}"
    code = f"import sys, webrely.cli; print(sorted({modules} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_compare_process_loads_only_what_it_runs(tmp_path):
    # compare needs project and stats; the simulator, the PSP metrics, the
    # harness, and the stdlib modules only fit, chi-square or a failed sample
    # writer use stay unloaded
    project = tmp_path / "proj"
    _write_fit(project, "a", 1.5, 2.4)
    _write_fit(project, "b", 2.2, 5.0)
    modules = ("{'webrely.psp', 'webrely.simulator', 'webrely.harness', 'logging', 'statistics',"
               " 'pickle'}")
    code = (
        "import sys\n"
        "from webrely.cli import main\n"
        "assert main(['--project-dir', sys.argv[1], 'compare', 'a', 'b']) == 0\n"
        f"print(sorted({modules} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(project)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_import_and_a_forked_fit_load_no_pickle(tmp_path):
    # pickle carries only a failed sample writer's error back from its child
    samples = write(tmp_path / "s.txt", "".join(f"{1.0 + i / 2**14!r}\n" for i in range(2**14)))
    code = (
        "import os, sys\n"
        "import webrely.cli\n"
        "print(sorted({'pickle'} & set(sys.modules)))\n"
        "forks = []\n"
        "fork = os.fork\n"
        "def counting():\n"
        "    forks.append(1)\n"
        "    return fork()\n"
        "os.fork = counting\n"
        "argv = ['--project-dir', sys.argv[1], 'fit', '--samples', sys.argv[2], '--label', 'x']\n"
        "assert webrely.cli.main(argv) == 0\n"
        "print(len(forks), sorted({'pickle'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "proj"), str(samples)],
                         capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    assert (lines[0], lines[-1]) == ("[]", "1 []")


def test_fit_with_zeros_warns_on_fitting_logger(tmp_path, caplog):
    samples = write(tmp_path / "s.txt", "0\n0\n1.0\n2.7182818284590451\n1.5\n")
    with caplog.at_level("WARNING", logger="webrely.stats.fitting"):
        assert run_cli("--project-dir", tmp_path / "proj", "fit", "--samples", samples,
                       "--label", "z") == 0
    warned = [r for r in caplog.records if r.name == "webrely.stats.fitting"]
    assert [r.getMessage() for r in warned] == [
        "excluding 2 zero value(s) from MLE sample 'z' (support is x > 0)"
    ]


# every documented config key set away from its default: (key, raw value,
# section of config.json, field in that section, recorded value)
SIM_KEY_PINS = [
    ("interarrival_mean", "3.5", "sim", "interarrival_mean", 3.5),
    ("service_mean", "2.5", "sim", "service_mean", 2.5),
    ("service_std", "0.5", "sim", "service_std", 0.5),
    ("capacity", "50", "sim", "capacity", 50),
    ("events_per_run", "50", "sim", "events_per_run", 50),
    ("runs", "40", "sim", "runs", 40),
    ("fault_probability", "0.05", "sim", "fault_probability", 0.05),
    ("seed", "7", "sim", "seed", 7),
]
ANALYSIS_KEY_PINS = [
    ("policy", "zscore", "analysis", "policy", "zscore"),
    ("policy_k", "4.5", "analysis", "policy_k", 4.5),
    ("bin_width", "0.5", "analysis", "bin_width", 0.5),
    ("origin", "0.25", "analysis", "origin", 0.25),
    ("gof_method", "ks", "analysis", "gof_method", "ks"),
    ("significance", "0.1", "analysis", "significance", 0.1),
]
EVAL_KEY_PINS = [
    ("evaluations", "2", "campaign", "evaluations", 2),
    ("cases", "7", "campaign", "cases_per_round", 7),
    ("walk_length", "3", "campaign", "walk_length", 3),
    ("seed", "11", "campaign", "seed", 11),
    ("duration", "30", "campaign", "duration_s", 30.0),
    ("arrival_mean", "0.002", "campaign", "arrival_mean_s", 0.002),
    ("workers", "6", "campaign", "workers", 6),
    ("request_timeout", "7.5", "campaign", "request_timeout_s", 7.5),
    ("max_depth", "4", "crawl", "max_depth", 4),
    ("max_pages", "40", "crawl", "max_pages_per_view", 40),
]


def _pin_config(path: Path, pins) -> Path:
    return write(path, "".join(f"{key} = {raw}\n" for key, raw, *_ in pins))


def _unrecorded(config: dict, pins) -> list[str]:
    return [
        key for key, _, section, field, value in pins
        if config.get(section, {}).get(field) != value
    ]


def test_simulate_config_json_records_every_key(tmp_path):
    pins = SIM_KEY_PINS + ANALYSIS_KEY_PINS
    cfg = _pin_config(tmp_path / "sim.cfg", pins)
    project = tmp_path / "proj"
    assert run_cli("--project-dir", project, "simulate", "--config", cfg) == 0
    config = json.loads((project / "phases/ideal/config.json").read_text())
    assert _unrecorded(config, pins) == []


def test_evaluate_config_json_records_every_key(tmp_path):
    faults = [
        SeededFault("/student/profile", "update", "error-marker"),
        SeededFault("/professor/students", "update", "http-500"),
        SeededFault("/professor/courses", "insert", "http-500"),
        SeededFault("/student/courses", "insert", "error-marker"),
    ]
    cfg = _pin_config(tmp_path / "eval.cfg", EVAL_KEY_PINS)
    project = tmp_path / "proj"
    with MockTarget(faults) as target:
        assert run_cli("--project-dir", project, "evaluate",
                       "--target", target.base_url, "--config", cfg) == 0
    config = json.loads((project / "phases/real/config.json").read_text())
    assert _unrecorded(config, EVAL_KEY_PINS) == []


def _readme_config_keys() -> set[str]:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config files", 1)[1].split("\n### ", 1)[0]
    return set(re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE))


def test_readme_lists_exactly_the_config_keys():
    classes = (SimConfig, CampaignConfig, HarnessConfig, CrawlLimits, Analysis)
    assert _readme_config_keys() == set().union(*map(cli.config_keys, classes))


@pytest.mark.parametrize("classes", [
    (SimConfig, Analysis),
    (CampaignConfig, HarnessConfig, CrawlLimits, Analysis),
], ids=["simulate", "evaluate"])
def test_config_classes_read_together_share_no_key(classes):
    # _read_config would give a shared key to the first class alone
    keys = [set(cli.config_keys(c)) for c in classes]
    assert sum(map(len, keys)) == len(set().union(*keys))


def _per_point_pdf(model: WeibullModel, x: float) -> float:
    """The density as weibull_pdf computed it with five logs per point."""
    if x < 0.0:
        return 0.0
    a, b = model.shape, model.scale
    if x == 0.0:
        return 0.0 if a > 1.0 else 1.0 / b if a == 1.0 else math.inf
    log_z_pow = a * (math.log(x) - math.log(b))
    if log_z_pow > 700.0:
        return 0.0
    return math.exp(math.log(a) - a * math.log(b) + (a - 1.0) * math.log(x) - math.exp(log_z_pow))


def test_curves_csv_matches_per_point_pdf_bit_for_bit():
    rng = random.Random(24)
    pairs = [tuple(WeibullModel(math.exp(rng.uniform(-1.5, 3.0)), math.exp(rng.uniform(-7.0, 7.0)))
                   for _ in range(2)) for _ in range(120)]
    # shape 1 has density 1/scale at 0; a huge scale makes the grid's step inf
    pairs += [(WeibullModel(1.0, 2.0), WeibullModel(1.0, 1e-3)),
              (WeibullModel(1.0, 1e308), WeibullModel(0.5, 1.0))]
    for a, b in pairs:
        hi = max(m.scale * math.log(1000.0) ** (1.0 / m.shape) for m in (a, b))
        xs = [i * (hi / (cli.COMPARE_CURVE_POINTS - 1)) for i in range(cli.COMPARE_CURVE_POINTS)]
        for model in (a, b):
            got = [weibull_pdf(model, x) for x in xs]
            want = [_per_point_pdf(model, x) for x in xs]
            assert [v.hex() for v in got] == [v.hex() for v in want]
        assert cli._curves_csv(a, b) == "x,pdf_a,pdf_b\n" + "".join(
            f"{x:.6g},{_per_point_pdf(a, x):.6g},{_per_point_pdf(b, x):.6g}\n" for x in xs)
