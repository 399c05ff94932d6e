"""The five sweeps' per-seed outcomes are a contract.

For each campaign invocation CI runs, ``golden/campaigns.json`` holds the
sha256 of the canonical JSON of ``[stats, records]`` and, where the parent
commit printed one, the first 16 hex digits of the digest.  The goldens
were recorded from ``--json -`` at the commit *before* the sweeps moved
onto the shared shell (``repro.faults.harness``), with the old envelopes'
record keys (``cuts`` / ``runs`` / ``injections`` / ``violations``) read
as ``records`` — so a refactor of the shell that changes one simulated
outcome fails here.  Re-record (only when an outcome is *meant* to
change) with::

    PYTHONPATH=src python -m tests.faults.test_campaign_golden
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from repro.__main__ import build_campaign, build_parser

GOLDEN = Path(__file__).parent / "golden" / "campaigns.json"
SMOKE = "crashpoints --preset smoke --seed 0 --sanitize"


def run_campaign(command: str):
    """Build the campaign ``python -m repro <command>`` would, and run it."""
    campaign = build_campaign(build_parser().parse_args(shlex.split(command)))
    campaign.run()
    return campaign


def fingerprint(campaign, with_digest: bool) -> dict:
    doc = campaign.to_json()
    text = json.dumps([doc["stats"], doc["records"]], sort_keys=True,
                      separators=(",", ":"))
    entry = {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    if with_digest:
        entry["digest"] = doc["digest"][:16]
    return entry


GOLDENS = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("command", sorted(GOLDENS))
def test_campaign_outcomes_match_the_golden(command, request):
    campaign = (request.getfixturevalue("smoke_explorer")
                if command == SMOKE else run_campaign(command))
    want = GOLDENS[command]
    assert campaign.stats.ok
    assert fingerprint(campaign, "digest" in want) == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {command: fingerprint(run_campaign(command), "digest" in entry)
         for command, entry in GOLDENS.items()},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
