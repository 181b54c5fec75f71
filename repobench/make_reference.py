"""Regenerate ``reference/campaign.json``: the checked outputs of every
study seed ``campaign-cold`` can use.

    python3 repobench/make_reference.py

Each seed's study runs serially in one process with the cell hooks on,
which also counts the simulator's events.  Rerun this only when the
program's outputs are meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


def reference_for(seed: int) -> dict:
    from repobench.campaign import Study
    from repobench.common import require_program
    from repobench.ledger import Ledger
    from repobench.tracing import install_cell_hooks

    require_program()
    ledger = Ledger()
    cells = install_cell_hooks(ledger)
    try:
        study = Study(workers=None).run(seed)
    finally:
        ledger.unpatch_all()
    entry = dict(study["outputs"])
    entry["simulations"] = study["simulations"]
    entry["netsim.events"] = int(cells.totals["events"])
    return entry


def main() -> int:
    from repobench.campaign import REFERENCE, REFERENCE_SEEDS
    from repobench.common import NPROC

    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(NPROC, mp_context=context) as pool:
        entries = list(pool.map(reference_for, range(REFERENCE_SEEDS)))
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(
        json.dumps(
            {"studies": {str(seed): entry for seed, entry in enumerate(entries)}},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(entries)} studies to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
