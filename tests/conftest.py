import random
import threading
from contextlib import contextmanager
from http.server import ThreadingHTTPServer

import pytest

from webrely.stats import DefectSampleSet, WeibullModel, sample

# fixed-seed synthetic sample reused by fitting, gof and acceptance tests
FIXTURE_SEED = 5
FIXTURE_MODEL = WeibullModel(shape=1.63, scale=2.4)


@pytest.fixture(scope="session")
def fixed_sample() -> DefectSampleSet:
    rng = random.Random(FIXTURE_SEED)
    values = sample(FIXTURE_MODEL, 500, rng)
    return DefectSampleSet(tuple(values), (), "synthetic-fixture")


@pytest.fixture
def serving():
    """serving(handler) is a context manager that runs a stdlib threading
    HTTP server with handler on a free local port and yields its base URL."""

    @contextmanager
    def serve(handler):
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        # a short poll interval, so that shutdown() returns at once
        thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
        thread.start()
        try:
            yield "http://%s:%d" % server.server_address[:2]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    return serve
