import http.client
import json
import math
import random
import socket
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlparse

import pytest

import webrely.harness.campaign as campaign
import webrely.harness.runner as runner
from webrely.errors import TargetDown
from webrely.harness import (
    CampaignConfig,
    Credentials,
    HarnessConfig,
    MockTarget,
    SeededFault,
    Step,
    TestCase,
    TestProfile,
    analyze_logs,
    crawl_site,
    default_profiles,
    generate_test_cases,
    parse_log_file,
    predict_density,
    predict_faults,
    run_campaign,
    run_evaluation,
)
from webrely.harness.http import Session

AUTH = {
    "public": None,
    "professor": Credentials("prof", "prof123"),
    "student": Credentials("stud", "stud123"),
}

FAST = HarnessConfig(duration_s=60.0, arrival_mean_s=0.001, workers=50)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def clean_model():
    with MockTarget() as target:
        return crawl_site(target.base_url, AUTH)


def _evaluate(target, model, count, seed, faults=None, cfg=FAST):
    cases = generate_test_cases(model, default_profiles(), count, seed=seed)
    return cases, run_evaluation(
        target.base_url, cases, default_profiles(), cfg, target.log_dir, seed
    )


class _Target(MockTarget):
    """MockTarget plus a scratch log directory for each evaluation."""

    def __init__(self, tmp_path, faults=None):
        super().__init__(faults)
        self.log_dir = tmp_path / "logs"


def test_clean_target_all_ok(tmp_path, clean_model):
    with _Target(tmp_path) as target:
        _, paths = _evaluate(target, clean_model, 30, seed=1)
        log = analyze_logs(paths)
    assert log.defect_density == 0
    assert log.nav_errors == 0
    assert log.mttf_ms is None
    assert log.steps_ok > 0


def test_three_seeded_faults_three_signatures(tmp_path, clean_model):
    faults = [
        SeededFault("/professor/courses", "insert", "http-500"),
        SeededFault("/student/profile", "update", "error-marker"),
        SeededFault("/courses", "read", "missing-marker"),
    ]
    with _Target(tmp_path, faults) as target:
        cases, paths = _evaluate(target, clean_model, 60, seed=42)
        log = analyze_logs(paths)
        predicted = predict_faults(cases, target.fault_table)
    # the case set covers all three seeded pairs and nothing else faults
    assert set(log.fault_signatures) == set(predicted)
    assert len(log.fault_signatures) == 3
    assert log.fault_signatures == predicted


def test_missing_node_is_nav_error_not_abort(tmp_path, clean_model):
    # point one generated step at a path the target does not serve
    cases = generate_test_cases(clean_model, default_profiles(), 3, seed=2)
    broken = TestCase(
        id="case-broken",
        view="public",
        seed=2,
        steps=(Step("/", "read", {}), Step("/ghost", "read", {}), Step("/about", "read", {})),
    )
    with _Target(tmp_path) as target:
        paths = run_evaluation(
            target.base_url, cases + [broken], default_profiles(), FAST, target.log_dir, 2
        )
        log = analyze_logs(paths)
    assert log.nav_errors == 1
    assert log.defect_density == 0
    # the tester carried on after the bad node
    records, _ = parse_log_file(sorted(paths)[-1])
    walked = [r.node for r in records if r.step_index >= 0]
    assert walked == ["/", "/ghost", "/about"]


class _Page(BaseHTTPRequestHandler):
    """Base of the small hand-written targets below."""

    def log_message(self, *a):
        pass

    def _send(self, code, headers, body=b""):
        self.send_response(code)
        for key, value in headers.items():
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.mark.parametrize("status,landing,outcome", [
    (303, "/healthy", "ok"),
    (303, "/broken", "fault:http-500"),
    (307, "/healthy", "nav_error"),  # urllib does not re-send a POST elsewhere
])
def test_post_step_redirect_classified_by_landing_page(tmp_path, serving, status, landing,
                                                        outcome):
    class Handler(_Page):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self._send(status, {"Location": landing})

        def do_GET(self):
            if self.path == "/broken":
                self._send(500, {})
            else:
                self._send(200, {"Content-Type": "text/html"}, b"<!-- page:/form -->")

    case = TestCase(id="case-r", view="public", seed=0,
                    steps=(Step("/form", "insert", {"name": "x"}),))
    with serving(Handler) as url:
        paths = run_evaluation(url, [case], default_profiles(), FAST, tmp_path, seed=0)
    records, _ = parse_log_file(paths[0])
    assert [r.outcome for r in records if r.step_index >= 0] == [outcome]


def test_login_answered_by_its_form_again_is_nav_error(tmp_path, serving):
    # the target answers a bad password by rendering its login form again
    # with 200, and sends anonymous requests to that form; the steps after
    # such a login would only see the form, so they must not run
    form = b"<form method=post action=/login><input name=username></form>"

    class Handler(_Page):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self._send(200, {"Content-Type": "text/html"}, form)

        def do_GET(self):
            if self.path == "/login":
                self._send(200, {"Content-Type": "text/html"}, form)
            else:
                self._send(302, {"Location": "/login"})

    case = TestCase(id="case-l", view="professor", seed=0,
                    steps=(Step("/professor", "read", {}), Step("/professor/courses", "read", {})))
    with serving(Handler) as url:
        paths = run_evaluation(url, [case], default_profiles(), FAST, tmp_path, seed=0)
    records, _ = parse_log_file(paths[0])
    assert [(r.action, r.outcome) for r in records] == [
        ("begin", "ok"), ("login", "nav_error"), ("end", "ok"),
    ]
    log = analyze_logs(paths)
    assert (log.defect_density, log.nav_errors) == (0, 1)


def test_log_isolation_and_order_independence(tmp_path, clean_model):
    with _Target(tmp_path) as target:
        _, paths = _evaluate(target, clean_model, 25, seed=9)
    assert len(set(paths)) == len(paths)
    for path in paths:
        records, _ = parse_log_file(path)
        assert len({r.tester_id for r in records}) == 1
    shuffled = list(paths)
    random.Random(0).shuffle(shuffled)
    assert analyze_logs(shuffled).to_dict() == analyze_logs(paths).to_dict()


def test_profile_safety_post_hoc(tmp_path, clean_model):
    profiles = default_profiles()
    with _Target(tmp_path) as target:
        cases, paths = _evaluate(target, clean_model, 40, seed=12)
    view_of = {c.id: c.view for c in cases}
    checked = 0
    for path in paths:
        records, _ = parse_log_file(path)
        for rec in records:
            if rec.step_index < 0:
                continue
            assert rec.action in profiles[view_of[rec.test_case_id]].permitted()
            checked += 1
    assert checked > 0


def test_summary_deterministic_across_reruns(tmp_path, clean_model):
    faults = [SeededFault("/about", "read", "http-500")]
    summaries = []
    for attempt in range(2):
        with _Target(tmp_path / str(attempt), faults) as target:
            target.log_dir = tmp_path / str(attempt)
            _, paths = _evaluate(target, clean_model, 30, seed=77)
            summaries.append(json.dumps(analyze_logs(paths).summary_dict(), sort_keys=True))
    assert summaries[0] == summaries[1]


def test_analyzer_golden_summary():
    log = analyze_logs([DATA / "activity-0.log", DATA / "activity-1.log"])
    golden = json.loads((DATA / "golden_error_log.json").read_text())
    assert log.to_dict() == golden


def test_mttf_arithmetic_from_synthetic_logs(tmp_path):
    # one tester active 400 s with 8 faults -> MTTF 50 s
    lines = ["0\t0\tcase-x\t-1\tbegin\tok\t-"]
    for i in range(8):
        lines.append(f"{(i + 1) * 1000}\t0\tcase-x\t{i}\tread\tfault:http-500\t/a")
    lines.append("400000\t0\tcase-x\t-1\tend\tok\t-")
    path = tmp_path / "t.log"
    path.write_text("\n".join(lines) + "\n")
    log = analyze_logs([path])
    assert log.total_active_ms == 400_000
    assert log.defect_density == 8
    assert log.mttf_ms == 50_000
    assert log.mttf_ms * log.defect_density == log.total_active_ms


def test_failed_login_counted_as_nav_error(tmp_path):
    # the case's steps never ran: one nav error, no step, no fault
    lines = [
        "0\t0\tcase-x\t-1\tbegin\tok\t-",
        "5\t0\tcase-x\t-1\tlogin\tnav_error\t-",
        "6\t0\tcase-x\t-1\tend\tok\t-",
    ]
    path = tmp_path / "t.log"
    path.write_text("\n".join(lines) + "\n")
    log = analyze_logs([path])
    assert log.nav_errors == 1
    assert log.defect_density == 0
    assert log.steps_ok == 0
    assert log.by_action == {}


def test_malformed_lines_skipped_and_noted(tmp_path):
    path = tmp_path / "bad.log"
    path.write_text(
        "0\t0\tcase\t-1\tbegin\tok\t-\n"
        "not a record\n"
        "xx\t0\tcase\t0\tread\tok\t/\n"
        "5\t0\tcase\t0\tread\tok\t/\n"
    )
    log = analyze_logs([path])
    assert log.steps_ok == 1
    assert len(log.skipped_lines) == 2


def test_oracle_equivalence_on_covered_faults(tmp_path, clean_model):
    faults = [
        SeededFault("/courses", "read", "error-marker"),
        SeededFault("/professor", "read", "http-500"),
        SeededFault("/student/profile", "delete", "missing-marker"),
    ]
    with _Target(tmp_path, faults) as target:
        cases, paths = _evaluate(target, clean_model, 50, seed=21)
        log = analyze_logs(paths)
        assert log.defect_density == predict_density(cases, target.fault_table)
        assert log.fault_signatures == predict_faults(cases, target.fault_table)


@pytest.mark.parametrize("workers", [4, 1])
def test_short_window_runs_every_walk_that_arrives(tmp_path, clean_model, workers):
    # the window closes long before the walks end, and with one worker most
    # testers start after it; each tester that arrives still walks its case
    faults = [
        SeededFault("/student/profile", "update", "error-marker"),
        SeededFault("/professor/courses", "insert", "http-500"),
        SeededFault("/courses", "read", "missing-marker"),
    ]
    cfg = HarnessConfig(duration_s=0.05, arrival_mean_s=0.001, workers=workers)
    densities = []
    with _Target(tmp_path, faults) as target:
        for rerun in range(2):
            target.log_dir = tmp_path / f"logs{rerun}"
            cases, paths = _evaluate(target, clean_model, 40, seed=7, cfg=cfg)
            # arrivals only increase, so the testers that arrive are a prefix
            assert [p.name for p in paths] == [f"tester-{i:05d}.log" for i in range(len(paths))]
            arrived = cases[:len(paths)]
            for case, path in zip(arrived, paths):
                records, skipped = parse_log_file(path)
                assert not skipped
                assert [r.step_index for r in records if r.step_index >= 0] == list(
                    range(len(case.steps)))
            log = analyze_logs(paths)
            assert log.defect_density == predict_density(arrived, target.fault_table) > 0
            densities.append(log.defect_density)
    assert densities[0] == densities[1]


def test_added_fault_never_lowers_density(tmp_path, clean_model):
    base_faults = [SeededFault("/courses", "read", "http-500")]
    more_faults = base_faults + [SeededFault("/student/courses", "insert", "error-marker")]
    densities = []
    for i, faults in enumerate((base_faults, more_faults)):
        with _Target(tmp_path / str(i), faults) as target:
            target.log_dir = tmp_path / f"logs{i}"
            cases, paths = _evaluate(target, clean_model, 40, seed=33)
            densities.append(analyze_logs(paths).defect_density)
    assert densities[1] >= densities[0] > 0


# how long _Paced waits between the two writes of /split
SPLIT_S = 1.0


class _Paced(socketserver.StreamRequestHandler):
    """Answers each GET on a kept-alive connection with its path's page
    marker, in one write; /split in two writes SPLIT_S apart, and /never
    not at all, until the client hangs up."""

    def handle(self):
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            head = b""
            while not head.endswith(b"\r\n\r\n"):
                line = self.rfile.readline()
                if not line:
                    return
                head += line
            path = head.split(b" ")[1].decode()
            if path == "/never":
                self.rfile.read(1)
                return
            body = f"<!-- page:{path} -->".encode()
            answer = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
            try:
                if path == "/split":
                    self.wfile.write(answer[:20])
                    time.sleep(SPLIT_S)
                    answer = answer[20:]
                self.wfile.write(answer)
            except OSError:
                return  # the client gave up on the answer


def _reads(case_id: str, *paths: str) -> TestCase:
    return TestCase(id=case_id, view="public", seed=0,
                    steps=tuple(Step(path, "read", {}) for path in paths))


def _walked(path: Path) -> list:
    records, _ = parse_log_file(path)
    return [(r.node, r.outcome) for r in records if r.step_index >= 0]


def _stamps(path: Path) -> dict:
    """(action, outcome) -> the timestamp_ms of its first record."""
    records, _ = parse_log_file(path)
    stamps: dict = {}
    for r in records:
        stamps.setdefault((r.action, r.outcome), r.timestamp_ms)
    return stamps


def test_a_slow_answer_holds_up_no_other_tester(tmp_path, serving):
    cases = [_reads("case-slow", "/split"), _reads("case-quick", *(f"/p{i}" for i in range(6)))]
    cfg = HarnessConfig(duration_s=60.0, arrival_mean_s=0.001, workers=2, request_timeout_s=5.0)
    with serving(_Paced) as url:
        slow, quick = run_evaluation(url, cases, default_profiles(), cfg, tmp_path, 0)
    assert _walked(slow) == [("/split", "ok")]
    assert _walked(quick) == [(f"/p{i}", "ok") for i in range(6)]
    slow_end = _stamps(slow)[("end", "ok")]
    assert slow_end - _stamps(slow)[("begin", "ok")] >= SPLIT_S * 1000 - 100
    # the quick walk ended well before the slow answer's second write
    assert _stamps(quick)[("end", "ok")] <= slow_end - SPLIT_S * 1000 / 2


def test_a_step_never_answered_times_out_alone(tmp_path, serving):
    # the two unanswered steps wait at the same time, and the third tester
    # walks while they wait
    cases = [_reads("case-0", "/never", "/p1"), _reads("case-1", "/p2", "/never"),
             _reads("case-2", "/p3", "/p4", "/p5")]
    timeout = 1.0
    cfg = HarnessConfig(duration_s=60.0, arrival_mean_s=0.001, workers=3,
                        request_timeout_s=timeout)
    with serving(_Paced) as url:
        started = time.monotonic()
        paths = run_evaluation(url, cases, default_profiles(), cfg, tmp_path, 0)
        took = time.monotonic() - started
    assert [_walked(path) for path in paths] == [
        [("/never", "nav_error"), ("/p1", "ok")],
        [("/p2", "ok"), ("/never", "nav_error")],
        [("/p3", "ok"), ("/p4", "ok"), ("/p5", "ok")],
    ]
    # the third walk ended well before the first wait ran out
    timed_out = min(_stamps(path)[("read", "nav_error")] for path in paths[:2])
    assert _stamps(paths[2])[("end", "ok")] <= timed_out - timeout * 1000 / 2
    assert timeout <= took < 2 * timeout  # one timeout, not one after the other


def test_a_round_starts_no_thread(tmp_path, clean_model, monkeypatch):
    caller = threading.current_thread()
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        if threading.current_thread() is caller:
            started.append(thread.name)
        start(thread)

    with _Target(tmp_path) as target, monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", recording_start)
        _, paths = _evaluate(target, clean_model, 20, seed=3)
    assert len(paths) == 20
    assert started == []


def test_an_error_in_one_tester_closes_the_others_first(tmp_path, serving, monkeypatch):
    sessions = []

    class Recorded(runner.Session):
        def __init__(self, *args):
            super().__init__(*args)
            sessions.append(self)

    classify = runner._classify

    def failing_classify(status, text, node_path):
        if node_path == "/boom":
            raise RuntimeError("classifier bug")
        return classify(status, text, node_path)

    monkeypatch.setattr(runner, "Session", Recorded)
    monkeypatch.setattr(runner, "_classify", failing_classify)
    cases = [_reads("case-slow", "/split"), _reads("case-boom", "/boom")]
    cfg = HarnessConfig(duration_s=60.0, arrival_mean_s=0.001, workers=2, request_timeout_s=5.0)
    with serving(_Paced) as url:
        started = time.monotonic()
        # the traceback holds the round's frames, so the garbage collector
        # closes no tester before the asserts below
        with pytest.raises(RuntimeError, match="classifier bug") as raised:
            run_evaluation(url, cases, default_profiles(), cfg, tmp_path, 0)
        took = time.monotonic() - started
    assert raised.traceback  # held until here
    assert took < SPLIT_S  # the slow tester was not waited for
    assert len(sessions) == 3  # the probe's and the two testers'
    assert all(session._connections == {} for session in sessions)
    # the slow tester's log was ended and closed while its step was in flight
    records, _ = parse_log_file(tmp_path / "tester-00000.log")
    assert [(r.action, r.outcome) for r in records] == [("begin", "ok"), ("end", "ok")]


def test_a_round_resolves_the_target_once(tmp_path, serving, monkeypatch):
    looked_up = []
    getaddrinfo = socket.getaddrinfo

    def recording_getaddrinfo(host, port, *args):
        looked_up.append((host, port))
        return getaddrinfo(host, port, *args)

    monkeypatch.setattr(socket, "getaddrinfo", recording_getaddrinfo)
    cases = [_reads(f"case-{i}", "/p1", "/p2") for i in range(3)]
    cfg = HarnessConfig(duration_s=60.0, arrival_mean_s=0.001, workers=3, request_timeout_s=5.0)
    with serving(_Paced) as url:
        port = urlparse(url).port
        paths = run_evaluation(f"http://localhost:{port}", cases, default_profiles(), cfg,
                               tmp_path, 0)
    assert [_walked(path) for path in paths] == [[("/p1", "ok"), ("/p2", "ok")]] * 3
    assert looked_up == [("localhost", port)]  # by the probe, before the loop


def test_no_address_connects_raises_the_last_ones_error():
    # a bound socket that does not listen refuses connections; addresses
    # already holds the host's two, so the name is never looked up
    with socket.socket() as first, socket.socket() as second:
        for sock in (first, second):
            sock.bind(("127.0.0.1", 0))
        refusing = [(socket.AF_INET, socket.SOCK_STREAM, 0, "", sock.getsockname())
                    for sock in (first, second)]
        with Session({("example.test", 80): refusing}) as session:
            with pytest.raises(ConnectionRefusedError):
                session.fetch("http://example.test/", timeout=5)


@pytest.mark.parametrize(
    "target", ["http://127.0.0.1:9", "file:///etc/hostname", "http:///nohost"]
)
def test_target_down_raises(tmp_path, clean_model, target):
    cases = generate_test_cases(clean_model, default_profiles(), 3, seed=1)
    with pytest.raises(TargetDown):
        run_evaluation(target, cases, default_profiles(), FAST, tmp_path, seed=1)


class _GateProxy:
    """Forwarding HTTP proxy that can simulate a target outage by closing
    connections without answering."""

    def __init__(self, upstream: str):
        self.up = True
        proxy = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *a):
                pass

            def handle(self):
                if not proxy.up:
                    self.connection.close()
                    return
                super().handle()

            def _forward(self, method):
                length = int(self.headers.get("Content-Length", "0"))
                body = self.rfile.read(length) if length else None
                up = urlparse(upstream)
                conn = http.client.HTTPConnection(up.hostname, up.port, timeout=10)
                try:
                    conn.request(
                        method, self.path, body,
                        headers={"Cookie": self.headers.get("Cookie", ""),
                                 "Content-Type": self.headers.get("Content-Type", "")},
                    )
                    r = conn.getresponse()
                    content = r.read()
                finally:
                    conn.close()
                self.send_response(r.status)
                for key in ("Content-Type", "Location", "Set-Cookie"):
                    if key in r.headers:
                        self.send_header(key, r.headers[key])
                self.send_header("Content-Length", str(len(content)))
                self.end_headers()
                self.wfile.write(content)

            def do_GET(self):
                self._forward("GET")

            def do_POST(self):
                self._forward("POST")

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a short poll interval, so that stop() returns at once
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.02,),
                                        daemon=True)
        self._thread.start()

    @property
    def url(self):
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self):
        self._server.shutdown()
        self._server.server_close()


def test_campaign_records_aborted_rounds_as_discards(tmp_path, clean_model):
    outage_rounds = {2, 5, 9}
    with MockTarget() as target:
        proxy = _GateProxy(target.base_url)
        try:
            cfg = CampaignConfig(
                evaluations=13, cases_per_round=3, walk_length=3, seed=8,
                harness=HarnessConfig(duration_s=30.0, arrival_mean_s=0.001, workers=8),
            )
            samples = run_campaign(
                proxy.url, clean_model, cfg, tmp_path,
                round_callback=lambda i: setattr(proxy, "up", i not in outage_rounds),
            )
        finally:
            proxy.stop()
    assert samples.n == 10
    assert len(samples.discarded) == 3
    assert all("aborted" in d.reason for d in samples.discarded)


def test_campaign_clean_rounds_all_zero(tmp_path, clean_model):
    with MockTarget() as target:
        cfg = CampaignConfig(
            evaluations=6, cases_per_round=4, walk_length=3, seed=3,
            harness=HarnessConfig(duration_s=30.0, arrival_mean_s=0.001, workers=8),
        )
        samples = run_campaign(target.base_url, clean_model, cfg, tmp_path)
    assert samples.values == (0.0,) * 6
    assert samples.source_label == "real"


def test_campaign_warns_on_round_with_nav_errors(tmp_path, clean_model, caplog):
    profiles = default_profiles()
    for view in ("professor", "student"):
        creds = profiles[view].credentials
        profiles[view] = TestProfile(
            view, Credentials(creds.username, "wrong"), profiles[view].action_mix
        )
    with MockTarget() as target:
        cfg = CampaignConfig(
            evaluations=2, cases_per_round=12, walk_length=3, seed=5,
            harness=HarnessConfig(duration_s=30.0, arrival_mean_s=0.001, workers=8),
            profiles=profiles,
        )
        with caplog.at_level("WARNING", logger="webrely.harness.campaign"):
            samples = run_campaign(target.base_url, clean_model, cfg, tmp_path)
    # rejected logins degrade the round's coverage, not its value or its fate
    assert samples.n == 2 and samples.discarded == ()
    warned = [r.getMessage() for r in caplog.records if "nav errors" in r.getMessage()]
    assert len(warned) == 2
    assert all("counts only the steps that ran" in m for m in warned)


@pytest.mark.parametrize("duration_s", [0.02, 1e-4])
def test_campaign_generates_only_the_cases_that_arrive(tmp_path, clean_model, monkeypatch,
                                                       duration_s):
    # the window admits fewer testers than the cap (in the shorter one, none);
    # the generator is asked for exactly the cases whose testers leave logs,
    # and a round that no tester reached is a discard, not a density of 0
    asked = []
    generate = campaign.generate_test_cases

    def recording(model, profiles, count, *args):
        asked.append(count)
        return generate(model, profiles, count, *args)

    monkeypatch.setattr(campaign, "generate_test_cases", recording)
    cfg = CampaignConfig(
        evaluations=3, cases_per_round=40, walk_length=3, seed=9,
        harness=HarnessConfig(duration_s=duration_s, arrival_mean_s=0.001, workers=4),
    )
    with MockTarget() as target:
        samples = run_campaign(target.base_url, clean_model, cfg, tmp_path)
    logs = [len(list((tmp_path / f"round-{i:04d}").glob("tester-*.log"))) for i in range(3)]
    empty = [i for i, n in enumerate(logs) if not n]
    assert samples.n == 3 - len(empty)
    assert [(math.isnan(d.value), d.reason) for d in samples.discarded] == [
        (True, f"round {i}: no tester arrived in the window") for i in empty
    ]
    assert all((tmp_path / f"round-{i:04d}" / "error_log.json").is_file() for i in range(3))
    assert asked == [n for n in logs if n] and max(logs) < cfg.cases_per_round
    assert (max(logs) > 0) == (duration_s > 0.001)


def test_campaign_density_matches_offline_replay(tmp_path, clean_model):
    faults = [
        SeededFault("/courses", "read", "http-500"),
        SeededFault("/professor/students", "update", "error-marker"),
    ]
    with MockTarget(faults) as target:
        cfg = CampaignConfig(
            evaluations=5, cases_per_round=12, walk_length=5, seed=14,
            harness=HarnessConfig(duration_s=60.0, arrival_mean_s=0.001, workers=16),
        )
        samples = run_campaign(target.base_url, clean_model, cfg, tmp_path)
        expected = []
        for index in range(cfg.evaluations):
            round_seed = cfg.seed * 1_000_003 + index
            cases = generate_test_cases(
                clean_model, cfg.profiles, cfg.cases_per_round, round_seed, cfg.walk_length
            )
            expected.append(float(predict_density(cases, target.fault_table)))
    assert list(samples.values) == expected
