"""The iobench command's pipeline lines, rendered from the metrics registry.

A volume member that served no I/O (a concat tail the workload never
reached, a mirror member the read policy skipped) has an undefined
average I/O size: its line shows ``-`` instead of raising
ZeroDivisionError.
"""

from repro.bench.iobench import IObench, pipeline_lines
from repro.kernel import System, SystemConfig
from repro.units import KB


def member_lines(metrics):
    lines = pipeline_lines(metrics)
    return lines[[line.split()[0] for line in lines].index("member") + 1:]


def test_idle_member_reports_none_not_zero_division():
    system = System.booted(SystemConfig.config_a().with_(layout="concat:2"))
    metrics = system.metrics.snapshot()
    # Boot I/O (root inode) lands entirely on the first member; the
    # concat tail is untouched — exactly the zero-count case.
    assert metrics["disk.m1.driver"].get("requests", 0) == 0
    busy, idle = member_lines(metrics)
    requests = metrics["disk.m0.driver"]["requests"]
    assert busy.split() == [
        "m0", f"{requests:.0f}", f"{metrics['disk.m0.driver']['bytes']:.0f}",
        f"{metrics['disk.m0.driver']['bytes'] / requests / KB:.1f}K",
        f"{metrics['disk.m0.driver.queue_depth']['avg']:.2f}"]
    assert idle.split() == ["m1", "0", "0", "-", "0.00"]


def test_format_member_table_renders_dash_for_idle_member():
    metrics = System.booted(
        SystemConfig.config_a().with_(layout="concat:2")).metrics.snapshot()
    lines = pipeline_lines(metrics)
    header = [line.split()[0] for line in lines].index("member")
    assert len(lines) - header == 3  # header + two members
    assert lines[header].split() == [
        "member", "requests", "bytes", "avg", "io", "qdepth"]
    idle_line = next(line for line in lines[header + 1:]
                     if line.split()[0] == "m1")
    assert idle_line.split()[3] == "-"


def test_busy_members_still_report_averages():
    bench = IObench(SystemConfig.config_a().with_(layout="mirror:2"),
                    file_size=256 * KB, random_ops=16)
    bench.run()
    metrics = bench.system.metrics.snapshot()
    lines = member_lines(metrics)
    assert [line.split()[0] for line in lines] == ["m0", "m1"]
    for i, line in enumerate(lines):
        # Mirror writes hit both members: averages defined on each.
        driver = metrics[f"disk.m{i}.driver"]
        assert driver["requests"] > 0
        assert line.split()[3] == (
            f"{driver['bytes'] / driver['requests'] / KB:.1f}K")
    # The latency lines come first, one per request kind.
    assert [line.split()[0] for line in pipeline_lines(metrics)[:3]] == [
        "fsync", "read", "write"]
