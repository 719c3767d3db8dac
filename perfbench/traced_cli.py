"""Run the ``repro`` CLI with layer spans recorded (traced ``cli-cold`` runs).

``python -m perfbench.traced_cli SPANS.json ARGS...`` times ``import
repro.cli``, wraps the layer boundaries (see :mod:`perfbench.tracer`), runs
``repro.cli.main(ARGS)`` inside a ``cli.main`` span and writes the spans to
``SPANS.json`` when the command ends, however it ends.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - start
    from perfbench.tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    tracer.op = 0
    tracer.active = True
    index = tracer.begin("cli.main")
    try:
        return repro.cli.main(argv)
    finally:
        tracer.end(index)
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": tracer.spans}, handle)


if __name__ == "__main__":
    sys.exit(main())
