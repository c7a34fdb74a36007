"""``python -m repro.serve serve`` with spans recorded.

Runs the server exactly as the plain command runs it, with the block
execution timed (:func:`perfbench.layers.install_serve_timing`) or, with
``--layers``, every layer boundary wrapped (traced rounds).  On SIGINT
it stops and writes its spans to ``--spans-out``.

    python -m perfbench.serve_server --spans-out FILE [--layers] -- serve --port 0 ...
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from perfbench import layers
from perfbench.spans import END, START, Recorder


def main() -> int:
    argv = sys.argv[1:]
    traced = "--layers" in argv[:3]
    if traced:
        argv.remove("--layers")
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, serve_argv = Path(argv[1]), argv[3:]
    from repro.serve.cli import main as serve_main

    recorder = Recorder()
    if traced:
        layers.install_layers(recorder, serve=True)
    else:
        layers.install_serve_timing(recorder)
    try:
        return serve_main(serve_argv)
    finally:
        for span in recorder.spans:  # calls cut short by the shutdown
            if span[END] is None:
                span[END] = span[START]
        spans_out.write_text(json.dumps(recorder.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
