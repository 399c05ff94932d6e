"""Documentation consistency: the docs reference things that exist."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [
    "README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE", "pyproject.toml",
])
def test_top_level_files_exist(name):
    assert (ROOT / name).is_file(), f"missing {name}"


def design_index_ids():
    """The experiment ids in the first column of DESIGN.md's §4 index."""
    text = (ROOT / "DESIGN.md").read_text()
    index = text.split("## 4. Per-experiment index")[1].split("\n## ")[0]
    return re.findall(r"^\| `([a-z0-9_]+)` \|", index, re.M)


def test_design_references_real_benchmarks():
    """Every experiment DESIGN.md's index names is a registry row."""
    from repro.bench.experiments import EXPERIMENTS

    ids = design_index_ids()
    assert ids, "DESIGN.md's experiment index names no experiment"
    for row_id in ids:
        assert row_id in EXPERIMENTS, (
            f"DESIGN.md indexes unknown experiment {row_id}")


def test_experiments_references_real_benchmarks():
    """Every generated block of EXPERIMENTS.md names a registry row."""
    from repro.bench.experiments import EXPERIMENTS
    from repro.bench.report import BLOCK

    ids = [m.group(2) for m in BLOCK.finditer(
        (ROOT / "EXPERIMENTS.md").read_text())]
    assert ids, "EXPERIMENTS.md has no generated block"
    for row_id in ids:
        assert row_id in EXPERIMENTS, (
            f"EXPERIMENTS.md renders unknown experiment {row_id}")


def test_readme_references_real_examples():
    text = (ROOT / "README.md").read_text()
    for match in set(re.findall(r"examples/([a-z0-9_]+\.py)", text)):
        assert (ROOT / "examples" / match).is_file(), (
            f"README.md references missing example {match}"
        )


def test_every_benchmark_is_indexed_in_design():
    """Every registry row has a line in DESIGN.md's experiment index."""
    from repro.bench.experiments import EXPERIMENTS

    indexed = set(design_index_ids())
    for row_id in EXPERIMENTS:
        assert row_id in indexed, f"{row_id} is not indexed in DESIGN.md"


def test_every_sanitizer_check_is_in_design():
    """DESIGN.md §8's check table and the sanitizer's docstring name every
    entry of ``Sanitizer.CHECKS``, the table in the order they run."""
    from repro.sim import invariants

    names = [name for name, _, _ in invariants.Sanitizer.CHECKS]
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 8. Invariants")[1].split("\n## ")[0]
    assert re.findall(r"^\| `([a-z_]+)` \|", section, re.M) == names
    for name in names:
        assert f"``{name}``" in invariants.__doc__, name


def test_every_example_is_listed_in_readme():
    readme = (ROOT / "README.md").read_text()
    for example in sorted((ROOT / "examples").glob("*.py")):
        assert example.name in readme, (
            f"{example.name} is not listed in README.md"
        )


def test_paper_config_presets_match_figure9_table():
    """The figure 9 values quoted in EXPERIMENTS.md match the code."""
    from repro.kernel import SystemConfig

    a = SystemConfig.config_a()
    assert a.fs_params.maxcontig * a.fs_params.bsize == 120 * 1024
    assert a.fs_params.rotdelay_ms == 0
    assert a.tuning.freebehind and a.tuning.write_limit == 240 * 1024
    d = SystemConfig.config_d()
    assert d.fs_params.rotdelay_ms == 4.0
    assert not d.tuning.freebehind and d.tuning.write_limit == 0


def test_changes_entries_are_short_logs():
    """Every top-level ``- `` entry of CHANGES.md is a log, not an essay:
    at most 15 lines, none over 100 characters."""
    entries = []
    for line in (ROOT / "CHANGES.md").read_text().splitlines():
        if line.startswith("- "):
            entries.append([line])
        elif entries:
            entries[-1].append(line)
    assert entries, "CHANGES.md has no entry"
    for entry in entries:
        assert len(entry) <= 15, f"{entry[0][:60]}: {len(entry)} lines"
        for line in entry:
            assert len(line) <= 100, f"{entry[0][:60]}: {line[:60]}..."
