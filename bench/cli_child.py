"""Run one tosca CLI command under the span recorder.

Usage: python cli_child.py SPANS_JSON ARGV...

Installs the recorder, calls ``tosca.cli.main(ARGV)`` with the argv the
untraced run passes to ``python -m tosca.cli``, writes the spans to
SPANS_JSON and exits with the CLI's exit code.
"""

import sys
from pathlib import Path

import tosca.cli
from spans import Recorder


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    try:
        return tosca.cli.main(argv)
    finally:
        recorder.uninstall()
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
