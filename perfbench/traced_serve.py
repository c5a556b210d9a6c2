"""Run ``repro serve`` with the per-layer tracer installed::

    python perfbench/traced_serve.py --trace-out FILE serve --port P ...

Everything after ``--trace-out FILE`` goes to ``repro.cli.main``; the
tracer summary is written to FILE once the server has drained.
"""

import json
import sys


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--trace-out":
        sys.stderr.write(__doc__)
        return 2
    trace_out, repro_argv = argv[1], argv[2:]

    from layers import Tracer

    tracer = Tracer()
    tracer.install()
    from repro.cli import main as repro_main

    status = repro_main(repro_argv)
    with open(trace_out, "w") as handle:
        json.dump(tracer.summary(), handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
