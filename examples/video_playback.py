#!/usr/bin/env python3
"""Video playback: the paper's motivating workload.

"Applications such as video and sound require much higher data rates than
are available today through UFS."  A video player must read frames at a
fixed rate; if the file system cannot sustain the rate, frames drop.

We play a 12 MB "video" (30 frames/s, 40 KB per frame = 1.2 MB/s — just
under the disk's media rate, far above half of it) on the old and the
clustered system and count dropped frames.

Run:  python examples/video_playback.py
"""

from repro.kernel import Proc, System, SystemConfig
from repro.units import KB, MB

FRAME_SIZE = 40 * KB
FRAME_RATE = 30.0  # frames per second
VIDEO_SIZE = 12 * MB


def play(config_name: str) -> dict:
    system = System.booted(SystemConfig.by_name(config_name))
    proc = Proc(system)

    def record_video():
        fd = yield from proc.creat("/video.mjpg")
        chunk = bytes(64 * KB)
        for _ in range(VIDEO_SIZE // len(chunk)):
            yield from proc.write(fd, chunk)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(record_video())
    vn = system.run(system.mount.namei("/video.mjpg"))
    system.pagecache.vnode_drop_clean(vn)
    vn.inode.readahead.reset()

    nframes = VIDEO_SIZE // FRAME_SIZE
    period = 1.0 / FRAME_RATE
    stats = {"frames": nframes, "dropped": 0, "max_lag": 0.0}

    def player():
        fd = yield from proc.open("/video.mjpg")
        # Any real player prebuffers ~half a second before starting the
        # clock; the question is whether the fs can *sustain* the rate.
        start = system.now + 0.5
        for frame in range(nframes):
            yield from proc.read(fd, FRAME_SIZE)
            deadline = start + (frame + 1) * period
            lag = system.now - deadline
            stats["max_lag"] = max(stats["max_lag"], lag)
            if lag > period:
                # More than a frame period late: visibly dropped.
                stats["dropped"] += 1
            if deadline > system.now:
                # Early: idle until the next frame is due (the player
                # renders; the file system reads ahead underneath).
                yield system.engine.timeout(deadline - system.now)
        yield from proc.close(fd)

    system.run(player())
    return stats


def main() -> None:
    rate_kb = FRAME_SIZE * FRAME_RATE / KB
    print(f"playing {VIDEO_SIZE // MB} MB at {FRAME_RATE:.0f} frames/s "
          f"({rate_kb:.0f} KB/s needed)\n")
    for name, label in (("D", "old system (SunOS 4.1)"),
                        ("A", "clustered (SunOS 4.1.1)")):
        stats = play(name)
        # Under 3% of frames dropped reads as smooth playback; the old
        # system drops nearly every frame.
        verdict = ("smooth" if stats["dropped"] <= stats["frames"] * 0.03
                   else "unwatchable")
        print(f"  config {name} ({label}):")
        print(f"    late frames: {stats['dropped']}/{stats['frames']}"
              f"   worst lag: {max(0.0, stats['max_lag']) * 1000:.0f} ms"
              f"   -> {verdict}")


if __name__ == "__main__":
    main()
