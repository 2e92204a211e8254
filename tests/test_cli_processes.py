"""Each CLI command in its own `python -S` process, which can import only
the standard library and this checkout's src.  The in-process tests of
test_cli.py see neither a command that imports a third-party package while
it runs nor a result that differs between two processes."""

import json
import os
import select
import signal
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}
CLI = [sys.executable, "-S", "-m", "webrely.cli"]

SIM_CFG = "runs = 60\nevents_per_run = 60\nseed = 5\n"
EVAL_CFG = (
    "evaluations = 2\ncases = 12\nwalk_length = 4\nduration = 30\n"
    "arrival_mean = 0.001\nworkers = 8\nseed = 4\n"
)
# a window far shorter than the walks: every tester that arrives walks its
# whole case, so two runs of one seed measure the same densities
SHORT_CFG = (
    "evaluations = 3\ncases = 40\nwalk_length = 6\nduration = 0.05\n"
    "arrival_mean = 0.001\nworkers = 2\nseed = 9\n"
)

# simulate's fitted (shape, scale, iterations, residual) per seed on its
# default config.  The fit sums with math.fsum and with += loops over the
# sorted values, whose results are the same on every Python; the built-in
# float sum is compensated from 3.12 on, so a sum through it writes other
# digits on 3.11 than on 3.12 and 3.13.
PINNED_FITS = {
    0: (1.9988141562676047, 2.838706576298929, 7, 5.995204332975845e-15),
    1: (2.0992376606461627, 2.756071324946336, 7, 2.6645352591003757e-15),
    2: (2.07133105155998, 2.971493601290857, 7, 2.220446049250313e-16),
}
# and the (statistic, dof) of its chi-square test
PINNED_GOF = {
    0: (39.732719407345314, 4),
    1: (22.40165452465254, 3),
    2: (25.67437659661159, 4),
}


def webrely(project: Path, *argv) -> None:
    proc = subprocess.run([*CLI, "--project-dir", str(project), *map(str, argv)],
                          env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def assert_same_tree(a: Path, b: Path, skip: frozenset = frozenset()) -> None:
    """a and b hold the same files and directories, byte for byte, outside
    any directory named in skip."""
    tree_a, tree_b = (
        {str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
         for path in root.rglob("*") if not skip & set(path.relative_to(root).parts)}
        for root in (a, b)
    )
    assert tree_a and sorted(tree_a) == sorted(tree_b)
    assert [name for name in sorted(tree_a) if tree_a[name] != tree_b[name]] == []


def test_rerun_in_a_fresh_project_writes_the_same_bytes(tmp_path):
    # the trace and every artifact of fit (with the ks test), compare and psp;
    # both fit one samples path because config.json records it
    sim_cfg, ks_cfg = tmp_path / "sim.cfg", tmp_path / "ks.cfg"
    sim_cfg.write_text(SIM_CFG)
    ks_cfg.write_text("gof_method = ks\n")
    samples = tmp_path / "rerun-a/phases/ideal/samples.txt"
    for project in (tmp_path / "rerun-a", tmp_path / "rerun-b"):
        webrely(project, "simulate", "--trace", "--config", sim_cfg)
        webrely(project, "fit", "--config", ks_cfg, "--samples", samples, "--label", "refit")
        webrely(project, "compare", "ideal", "refit")
        webrely(project, "psp", "--records", REPO / "tests/data/psp_records.csv")
    assert_same_tree(tmp_path / "rerun-a", tmp_path / "rerun-b")


def test_simulate_fit_is_pinned_across_python_versions(tmp_path):
    for seed, pinned in PINNED_FITS.items():
        project = tmp_path / f"seed-{seed}"
        webrely(project, "simulate", "--seed", seed)
        fit = json.loads((project / "phases/ideal/fit.json").read_text())
        assert (fit["shape"], fit["scale"], fit["iterations"], fit["residual"]) == pinned
        assert (fit["gof"]["statistic"], fit["gof"]["dof"]) == PINNED_GOF[seed]


def test_crawl_and_evaluate_against_the_faulty_mock(tmp_path):
    eval_cfg, short_cfg = tmp_path / "eval.cfg", tmp_path / "short.cfg"
    eval_cfg.write_text(EVAL_CFG)
    short_cfg.write_text(SHORT_CFG)
    project, faults = tmp_path / "proj", REPO / "bench/faults.json"
    with subprocess.Popen([*CLI, "mock-serve", "--port", "0", "--faults", str(faults)],
                          env=ENV, stdout=subprocess.PIPE, text=True) as mock:
        try:
            assert select.select([mock.stdout], [], [], 10)[0], "mock-serve printed no URL in 10 s"
            url = mock.stdout.readline().split()[4]  # "mock target serving on <url> (...)"
            # logins, redirects and cookies through the HTTP client: two crawls
            # save the same site model
            sites = [tmp_path / "site-1.json", tmp_path / "site-2.json"]
            for site in sites:
                webrely(project, "crawl", "--target", url, "--out", site)
            assert sites[0].read_bytes() == sites[1].read_bytes()
            # exit 0 is not enough: every round ran testers and every request
            # was answered
            webrely(project, "evaluate", "--target", url, "--config", eval_cfg)
            logs = sorted((project / "phases/real/logs").glob("round-*/error_log.json"))
            rounds = [json.loads(log.read_text()) for log in logs]
            tallies = [(r["testers"], r["nav_errors"]) for r in rounds]
            assert len(tallies) == 2, tallies
            assert all(testers > 0 and errors == 0 for testers, errors in tallies), tallies
            for rerun in ("short-a", "short-b"):
                webrely(tmp_path / rerun, "evaluate", "--target", url, "--config", short_cfg)
            assert_same_tree(tmp_path / "short-a/phases/real", tmp_path / "short-b/phases/real",
                             skip=frozenset({"logs"}))
        finally:
            mock.send_signal(signal.SIGINT)
            try:
                mock.wait(timeout=5)
            except subprocess.TimeoutExpired:
                mock.kill()
    assert mock.returncode == 0  # it stopped on SIGINT, within 5 s
