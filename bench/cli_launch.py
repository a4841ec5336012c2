"""Run one ``qcorr`` CLI invocation with the benchmark's span wrappers.

Usage: ``python bench/cli_launch.py SPANS_JSON ARG...``. Imports the CLI,
installs the same wrappers as the in-process traced run, calls
``qcorr.cli.main(ARG...)``, writes the spans to ``SPANS_JSON`` and exits
with the CLI's exit code. Standard output is the CLI's own.
"""

import json
import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import qcorr.cli

    recorder = tracing.Recorder()
    restore = tracing.install(recorder)
    try:
        code = qcorr.cli.main(argv)
    finally:
        tracing.uninstall(restore)
    with open(spans_path, "w", encoding="ascii") as handle:
        json.dump(recorder.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
