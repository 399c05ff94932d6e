"""The sweeps' outcomes, golden in the one committed document.

Each campaign row pins its sweep's outcome sha256 and digest, every
invariant ``exact(0)`` and its coverage in bands.  Each row's cells from a
fresh sanitized run must equal the committed ``BENCH_experiments.json``
cells, so a refactor that changes one simulated outcome fails in tier-1.
The crash-point rows but ``relocate`` read their session fixtures' runs.
"""

import json
from pathlib import Path

import pytest

from repro.bench import report
from repro.bench.experiments import EXPERIMENTS, sweep_cells

ROOT = Path(__file__).resolve().parents[2]
COMMITTED = json.loads((ROOT / report.DOCUMENT).read_text())["results"]
#: The invocation each campaign row runs (the netcampaign row runs it once
#: more unsanitized), and the row.
ROWS = {
    "crashpoints --preset smoke --seed 0 --sanitize": "crashpoints_smoke",
    "crashpoints --preset relocate --seed 0 --sanitize":
        "crashpoints_relocate",
    "crashpoints --preset writethrough --seed 0 --sanitize":
        "crashpoints_writethrough",
    "crashpoints --preset nfs --seed 0 --sanitize": "crashpoints_nfs",
    "crashpoints --preset mirror --seed 0 --sanitize": "crashpoints_mirror",
    "crashpoints --preset stripe --seed 0 --sanitize": "crashpoints_stripe",
    "netcampaign --seeds 5 --seed 0 --sanitize": "netcampaign",
    "scrubcampaign --seed 0 --sanitize": "scrubcampaign",
}


FIXTURES = {"crashpoints_smoke": "smoke_explorer",
            "crashpoints_writethrough": "writethrough_explorer",
            "crashpoints_nfs": "nfs_explorer",
            "crashpoints_mirror": "mirror_explorer",
            "crashpoints_stripe": "stripe_explorer"}


@pytest.mark.parametrize("command", sorted(ROWS))
def test_campaign_outcomes_match_the_golden(command, request):
    row_id = ROWS[command]
    row = EXPERIMENTS[row_id]
    if row_id in FIXTURES:
        values = sweep_cells(request.getfixturevalue(FIXTURES[row_id]))
        values = {cell.name: values[cell.name] for cell in row.cells}
    else:
        values = row.run({})
    fresh = report.entry(row, values)
    assert fresh == COMMITTED[row_id]
    assert report.failures({"results": {row_id: fresh}}) == []
