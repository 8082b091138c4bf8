"""Run one oplab CLI job with the tracer installed.

Usage: python perfbench/traced_job.py SPANS_PATH COMMAND --config ... [...]

Times ``import oplab.cli`` as its own span, wraps the layer boundaries,
calls ``oplab.cli.main`` under the root span ``cli:main``, writes the spans
to SPANS_PATH and exits with the CLI's exit code.
"""

import os
import sys
import time

if __name__ == "__main__":
    import_start = time.perf_counter()
    import oplab.cli
    import_end = time.perf_counter()

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.tracer import Tracer, install

    tracer = Tracer()
    tracer.add("import:oplab.cli", import_start, import_end)
    install(tracer)
    root = tracer.open("cli:main")
    try:
        code = oplab.cli.main(sys.argv[2:])
    finally:
        tracer.close(root)
    tracer.dump(sys.argv[1])
    sys.exit(code)
