"""The experiment table against its committed document.

``python -m repro report`` runs every row of
:mod:`repro.bench.experiments` into ``BENCH_experiments.json`` and renders
RESULTS.md and EXPERIMENTS.md's generated blocks from it.  All but the last
five tests here read files only (one pins how many paper values lie
outside their band): the docs must be that rendering byte for
byte, every committed value must sit in its band, and the committed cells
must be the registry's — so a hand-edited digit, a band changed without a
re-run or a stale document fails without a simulated second.  The last
five show a band catching a model change: a doubled page-fault cost fails
figure 12, an fsync leaving its inode delayed fails the write-through
crash points, a COMMIT that does not fsync and a WRITE that does not push
its pages fail the NFS server's crash points, and a tracer counting span
ids across machines fails the ``determinism`` row.
"""

import json
from pathlib import Path

from repro.bench import report
from repro.bench.experiments import EXPERIMENTS, fig10_11_cells
from repro.bench.iobench import PHASES, IObenchResult

ROOT = Path(__file__).resolve().parents[2]
DOCUMENT = json.loads((ROOT / report.DOCUMENT).read_text())


def test_results_and_experiments_md_are_the_documents_rendering():
    assert report.render_results(DOCUMENT) == (
        ROOT / "RESULTS.md").read_text()
    text = (ROOT / "EXPERIMENTS.md").read_text()
    assert report.splice(text, DOCUMENT) == text
    rendered = {m.group(2) for m in report.BLOCK.finditer(text)}
    assert rendered == set(EXPERIMENTS), "every row has one block"


def test_every_committed_cell_is_inside_its_band():
    assert report.failures(DOCUMENT) == []


def test_ten_of_the_45_paper_values_lie_outside_their_band():
    """The fidelity count, pinned by cell: closing a gap to the paper (or
    opening one) edits this test on purpose."""
    assert report.outside_paper(DOCUMENT) == [
        ("alloc_extents", "fresh: average extent (KB)"),
        ("alloc_extents", "aged: average extent (KB)"),
        *(("fig10_11", f"{c} FRR") for c in "ABCD"),
        ("fig10_11", "D FRU"),
        *(("fig10_11", f"A/D {p}") for p in ("FSU", "FSW", "FRU")),
    ]
    assert report.fidelity_line(DOCUMENT) == (
        "paper values outside their band: 10 of 45")


def test_the_committed_rows_are_the_registrys():
    assert DOCUMENT["run"]["rows"] == list(EXPERIMENTS)
    for row_id, row in EXPERIMENTS.items():
        entry = DOCUMENT["results"][row_id]
        assert (entry["paper_section"], entry["workload"]) == (
            row.paper_section, row.workload), row_id
        assert [(c["name"], c["paper"], c["band"], c["reason"])
                for c in entry["cells"]] == [
            (c.name, c.paper, list(c.band), c.reason) for c in row.cells], (
            f"{row_id}: re-run python -m repro report")


def test_iobench_prints_the_fig10_11_rows_cells_of_the_configs_it_ran():
    """One cell function for the row and for ``iobench``: from the
    committed rates it gives the row's cells and its committed ratios;
    from config A alone, A's five rates and nothing else."""
    cells = {c["name"]: c["value"]
             for c in DOCUMENT["results"]["fig10_11"]["cells"]}
    runs = {c: IObenchResult(c, {p: cells[f"{c} {p}"] for p in PHASES},
                             {"FSR": 0.5}) for c in "ABCD"}
    values = fig10_11_cells(runs)
    row = EXPERIMENTS["fig10_11"]
    assert set(values) == {cell.name for cell in row.cells}
    for name, value in values.items():
        if name.startswith("A/") and "CPU" not in name:
            assert value == cells[name], name
    only_a = report.entry(row, fig10_11_cells({"A": runs["A"]}))
    assert [c["name"] for c in only_a["cells"]] == [f"A {p}" for p in PHASES]


def test_every_band_is_two_sided_with_a_reason_and_catches_a_30pct_drift():
    for row_id, entry in DOCUMENT["results"].items():
        for c in entry["cells"]:
            where, (lo, hi), value = (row_id, c["name"]), c["band"], c["value"]
            assert c["reason"], where
            if lo == hi:  # a trace, a digest, or a count that must be zero
                assert isinstance(value, str) or value in (0, 1), where
                continue
            assert lo < hi, where
            for drifted in (value * 0.7, value * 1.3):
                assert not lo <= drifted <= hi, where


def test_a_doubled_fault_cost_fails_figure_12_by_row_and_cell(
        monkeypatch, capsys):
    from repro.__main__ import main
    from repro.cpu.costs import CostTable

    init = CostTable.__init__

    def doubled_fault(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.fault *= 2

    monkeypatch.setattr(CostTable, "__init__", doubled_fault)
    assert main(["report", "--id", "fig12"]) == 1
    out = capsys.readouterr().out
    assert "| new CPU (s) | 4 | 2.6 | 2.4 – 2.95 | OUT |" in out
    assert "FAILED: fig12 / new CPU (s): 4 outside 2.4 – 2.95 (" in out


def test_a_delayed_fsync_inode_fails_the_writethrough_row_by_cell(
        monkeypatch, capsys):
    """An fsync that leaves the inode delayed acknowledges bytes the
    paper's write-through drive does not hold: crash states lose them."""
    from repro.__main__ import main
    from repro.ufs.vnode import UfsVnode
    from tests.faults.test_crashpoints import _fsync_async_inode

    monkeypatch.setattr(UfsVnode, "fsync", _fsync_async_inode)
    assert main(["report", "--id", "crashpoints_writethrough"]) == 1
    out = capsys.readouterr().out
    assert ("\nFAILED: crashpoints_writethrough / violations: 5 outside exact "
            "(every distinct crash state repairs") in out


def test_a_commit_without_fsync_fails_the_nfs_row_by_cell(monkeypatch,
                                                          capsys):
    """A COMMIT that pushes the pages but never fsyncs leaves the inode
    delayed and the server drive's cache unflushed: crash states of that
    drive lose bytes the client's fsync acknowledged."""
    from repro.__main__ import main
    from repro.nfs.server import NfsServer
    from tests.faults.test_crashpoints import _commit_without_fsync

    monkeypatch.setattr(NfsServer, "_op_commit", _commit_without_fsync)
    assert main(["report", "--id", "crashpoints_nfs"]) == 1
    out = capsys.readouterr().out
    assert ("\nFAILED: crashpoints_nfs / violations: 351 outside exact "
            "(every distinct crash state repairs") in out


def test_a_write_without_putpage_fails_the_nfs_row_by_coverage(monkeypatch,
                                                               capsys):
    """A WRITE that leaves its pages dirty breaks no promise, since COMMIT
    pushes them, but the server's drive then sees one burst per fsync:
    the crash states it explores collapse below the row's band."""
    from repro.__main__ import main
    from repro.nfs.server import NfsServer
    from tests.faults.test_crashpoints import _write_without_putpage

    monkeypatch.setattr(NfsServer, "_op_write", _write_without_putpage)
    assert main(["report", "--id", "crashpoints_nfs"]) == 1
    out = capsys.readouterr().out
    assert "| violations | 0 | - | exact | ok |" in out
    assert ("\nFAILED: crashpoints_nfs / distinct states: 28 outside "
            "172 – 210 (") in out


def test_a_tracer_sharing_span_ids_fails_the_determinism_row_by_cell(
        monkeypatch, capsys):
    """Span ids from one counter every tracer shares (how they once were):
    the second run's trace numbers its spans on from the first's."""
    from itertools import count

    from repro.__main__ import main
    from repro.sim.trace import Tracer

    shared = count(1)
    init = Tracer.__init__

    def leaky(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._span_ids = shared

    monkeypatch.setattr(Tracer, "__init__", leaky)
    assert main(["report", "--id", "determinism"]) == 1
    out = capsys.readouterr().out
    assert "| traces differing | 1 | - | exact | OUT |" in out
    assert "| rates differing | 0 | - | exact | ok |" in out
    assert "FAILED: determinism / traces differing: 1 outside exact (" in out
