"""Byte-level regression: every command of the golden manifest gives the
exit code, stdout and stderr it was recorded with."""

import golden_manifest


def test_golden_manifest_replays_byte_identically():
    entries = golden_manifest.load()
    assert len(entries) == 147
    changed = []
    for want in entries:
        got = golden_manifest.entry(want["argv"], want.get("env"))
        if got != want:
            changed.append(" ".join(want["argv"])[:120])
    assert not changed, f"{len(changed)} commands changed: {changed}"
