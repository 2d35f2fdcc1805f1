"""Byte-level regression: every command of the golden manifest gives the
exit code, stdout and stderr it was recorded with."""

import golden_manifest


def test_golden_manifest_replays_byte_identically():
    assert len(golden_manifest.load()) == 160
    changed = golden_manifest.changed()
    assert not changed, f"{len(changed)} commands changed: {changed}"
