"""Start the benchmark's layer tracer in every Python process of a traced run.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one; the benchmark puts this directory on ``PYTHONPATH``
only for traced runs, and names the output directory in
``PERFBENCH_TRACE_DIR``.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import pbtrace

    pbtrace.install(os.environ["PERFBENCH_TRACE_DIR"])
