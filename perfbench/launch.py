"""Run one `sdae-ivs` CLI verb in this process, as `python -m sdae_ivs` would.

    python3 launch.py SRC STAMP TRACE -- VERB --config ... --out ...

SRC is the source tree to import the program from. STAMP receives the
CPU seconds this process had used when `runner.load_splits` first returned
(the end of set-up), or is `-`. TRACE is `-` for an untraced run, otherwise the .npz file
that receives the span tree of every traced call.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    src, stamp_path, trace_path = Path(argv[0]).resolve(), argv[1], argv[2]
    sys.path.insert(0, str(src))
    import sdae_ivs
    if Path(sdae_ivs.__file__).resolve().parent != src / "sdae_ivs":
        print(f"imported sdae_ivs from {sdae_ivs.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from sdae_ivs import cli, runner

    tracer = None
    if trace_path != "-":
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)

    loaded = []
    load_splits = runner.load_splits

    def stamped(*args, **kwargs):
        result = load_splits(*args, **kwargs)
        loaded.append(time.process_time())
        return result

    runner.load_splits = stamped
    try:
        return cli.main(argv[4:])
    finally:
        if loaded and stamp_path != "-":
            Path(stamp_path).write_text(repr(loaded[0]) + "\n")
        if tracer is not None:
            tracer.save(Path(trace_path))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
