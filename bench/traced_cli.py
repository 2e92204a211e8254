"""Run one webrely command with spans around its layers, then write them.

usage: python traced_cli.py SPANS_JSON [webrely arguments...]

The traced cli workload runs this instead of the webrely console script;
the untraced run calls webrely.cli.main the same way without the spans.
"""

import sys
from pathlib import Path

from tracing import Tracer, patched, project_patches

tracer = Tracer()
with tracer.span("cli.import"):
    import webrely.cli as cli
    import webrely.project as project

with patched(
    project_patches(tracer, project)
    + [
        (cli, "load_samples_text", tracer.wrap(cli.load_samples_text, "stats.load_samples")),
        (cli, "compare_models", tracer.wrap(cli.compare_models, "stats.compare_models")),
        (project.EiProject, "persist_phase",
         tracer.wrap(project.EiProject.persist_phase, "project.persist")),
    ]
):
    with tracer.span("cli.main"):
        code = cli.main(sys.argv[2:])
tracer.dump(Path(sys.argv[1]))
sys.exit(code)
