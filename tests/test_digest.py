"""The behaviour digest of ``tests/digest.py`` against its pin.

A change that alters any public result, error class or message, CLI
output or exit code changes the hash.  A PR that changes behaviour on
purpose updates the pin and says which calls changed."""

import digest

PIN = "deb64d30e39f5f34f2299981ab3b872db9f3ce86e00aea16c672d2c5492704b1"


def test_behaviour_digest_is_pinned():
    assert digest.digest() == PIN
