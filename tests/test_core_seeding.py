"""Tests for stable seed derivation (``repro.core.seeding``)."""

from repro.core.seeding import derive_seed


def test_derive_seed_is_stable_and_name_sensitive():
    assert derive_seed(42, "vehicle-1") == derive_seed(42, "vehicle-1")
    assert derive_seed(42, "vehicle-1") != derive_seed(42, "vehicle-2")
    assert derive_seed(42, "vehicle-1") != derive_seed(43, "vehicle-1")


def test_derived_seeds_are_pinned_64_bit_values():
    # SHA-256 based, so the value never depends on the process, the
    # platform or string-hash randomisation: literals pin it.
    assert derive_seed(42, "vehicle-1") == 1398435992017174640
    assert derive_seed(2018, "fuzz") == 14926903703041314553
    assert 0 <= derive_seed(0, "") < 2**64

