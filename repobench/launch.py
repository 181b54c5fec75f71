"""Run a program CLI with the benchmark's tracing wrappers installed.

    python repobench/launch.py --ledger OUT.jsonl serve|fleet [CLI args]

Installs the server hooks of :mod:`repobench.tracing`, calls the
program's own ``repro.serve.cli.main`` with the remaining arguments,
and writes the process's spans and exit summary to ``OUT.jsonl`` once
the CLI returns (after its graceful drain).  A fleet launched this way
starts each of its workers through this launcher too, with the ledger
``OUT.<worker store name>.jsonl``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


def main(argv: list) -> int:
    from repobench.common import require_program
    from repobench.ledger import Ledger
    from repobench.tracing import install_server_hooks

    if len(argv) < 3 or argv[0] != "--ledger":
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[1])
    cli_args = argv[2:]
    require_program()

    def worker_argv(original: list, store_dir: str) -> list:
        # original: [python, -m, repro.serve, serve, ...]
        ledger_path = out.with_suffix(f".{Path(store_dir).name}.jsonl")
        return [original[0], str(Path(__file__).resolve()), "--ledger",
                str(ledger_path)] + original[3:]

    ledger = Ledger()
    probe = install_server_hooks(ledger, worker_argv=worker_argv)
    from repro.serve.cli import main as serve_main

    try:
        return serve_main(cli_args)
    finally:
        ledger.dump(out, {"summary": probe.summary(), "argv": cli_args})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
