"""Every golden case renders the bytes whose digest digests.json records."""
import json

from golden_cases import DIGESTS, compute


def test_golden_digests_unchanged():
    expected = json.loads(DIGESTS.read_text())
    got = compute()
    differ = sorted(name for name in expected.keys() | got.keys() if expected.get(name) != got.get(name))
    assert not differ, f"golden cases differ: {', '.join(differ)}"
