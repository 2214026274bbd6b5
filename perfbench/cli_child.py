"""One cli-session command, run as `python -m wreathfock ARGS...` runs it:

    python3 perfbench/cli_child.py [--trace] ARGS...

Stdout and the exit code are the CLI's own.  The last line on stderr is
MARKER followed by a JSON report: the process's peak resident memory, and
with --trace the layer metrics of the library wrapped by tracer.py.

The peak is VmHWM, which starts afresh when the process image is replaced.
The parent's ru_maxrss for its children would not do: a child keeps the
high-water mark of the process it was forked from, here the worker.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

MARKER = "perfbench-child "


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    args = sys.argv[1:]
    tracer = None
    if args[:1] == ["--trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        args = args[1:]
    from wreathfock import cli
    try:
        code = cli.main(args)
    except SystemExit as e:  # argparse exits for --help and usage errors
        code = e.code
    finally:
        sys.stdout.flush()
        report = {"peak_rss_mb": peak_rss_mb()}
        if tracer is not None:
            from tracer import layer_metrics
            report["layers"] = layer_metrics(tracer.spans, tracer.counts)
        print(MARKER + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
