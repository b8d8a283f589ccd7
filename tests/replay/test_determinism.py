"""Tests for the centralized randomness policy (repro.determinism)."""

import pathlib
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.determinism import (
    EntropyError,
    derive_seed,
    forbid_entropy,
    mixed_seed,
    random_bytes,
    rng_state_restore,
    rng_state_snapshot,
    seeded_rng,
)

SRC_ROOT = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


class TestStreams:
    def test_seeded_rng_is_reproducible_and_private(self):
        a, b = seeded_rng(42), seeded_rng(42)
        draws = [a.random() for _ in range(10)]
        assert draws == [b.random() for _ in range(10)]
        # Private instances: the global stream is untouched.
        random.seed(0)
        before = random.getstate()
        seeded_rng(42).random()
        assert random.getstate() == before

    def test_mixed_seed_preserves_historical_derivation(self):
        # Producers derived their stream as seed ^ (port * GOLDEN32);
        # recordings made before the refactor depend on this staying
        # bit-identical.
        assert mixed_seed(12345, 0) == 12345
        assert mixed_seed(12345, 3) == 12345 ^ (3 * 0x9E3779B9)
        stream = seeded_rng(mixed_seed(7, 2))
        legacy = random.Random(7 ^ (2 * 0x9E3779B9))
        assert [stream.random() for _ in range(5)] == \
            [legacy.random() for _ in range(5)]

    def test_derive_seed_is_stable_and_namespace_sensitive(self):
        assert derive_seed(1, "producer", 0) == derive_seed(1, "producer", 0)
        assert derive_seed(1, "producer", 0) != derive_seed(1, "producer", 1)
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")
        assert 0 <= derive_seed(99, "x") < 2 ** 63

    def test_rng_state_round_trip_is_json_safe(self):
        import json

        rng = seeded_rng(5)
        rng.random()
        state = json.loads(json.dumps(rng_state_snapshot(rng)))
        expected = [rng.random() for _ in range(5)]
        fresh = seeded_rng(0)
        rng_state_restore(fresh, state)
        assert [fresh.random() for _ in range(5)] == expected


class TestRandomBytes:
    """``random_bytes`` is an exact fast path for the per-byte draw loop
    the producers used to run."""

    @given(st.integers(min_value=0, max_value=2**63),
           st.integers(min_value=0, max_value=2048))
    def test_same_bytes_and_rng_state_as_per_byte_draws(self, seed, n):
        fast, slow = seeded_rng(seed), seeded_rng(seed)
        expected = bytes(slow.getrandbits(8) for _ in range(n))
        assert random_bytes(fast, n) == expected
        assert fast.getstate() == slow.getstate()
        assert fast.random() == slow.random()

    def test_empty(self):
        rng = seeded_rng(3)
        before = rng.getstate()
        assert random_bytes(rng, 0) == b""
        assert rng.getstate() == before


class TestForbidEntropy:
    def test_global_random_is_banned(self):
        with forbid_entropy():
            with pytest.raises(EntropyError):
                random.random()
            with pytest.raises(EntropyError):
                random.randint(0, 10)

    def test_wall_clock_is_banned(self):
        with forbid_entropy():
            with pytest.raises(EntropyError):
                time.time()

    def test_monotonic_allowed_by_default(self):
        with forbid_entropy():
            assert time.monotonic() > 0
        with forbid_entropy(allow_monotonic=False):
            with pytest.raises(EntropyError):
                time.monotonic()

    def test_private_streams_stay_usable(self):
        with forbid_entropy():
            assert isinstance(seeded_rng(3).random(), float)

    def test_originals_are_restored(self):
        with forbid_entropy():
            pass
        assert isinstance(random.random(), float)
        assert time.time() > 0


class TestPolicyEnforcement:
    """Grep-level audit: randomness and wall-clock use stay centralized."""

    def source_files(self):
        return [path for path in SRC_ROOT.rglob("*.py")
                if path.name != "determinism.py"]

    def test_only_determinism_module_constructs_rng(self):
        offenders = []
        for path in self.source_files():
            text = path.read_text(encoding="utf-8")
            if "random.Random(" in text or "import random" in text:
                offenders.append(str(path))
        assert not offenders, (
            "stray randomness outside repro.determinism: "
            f"{offenders} — use seeded_rng()/mixed_seed() instead")

    def test_no_wall_clock_time_on_any_path(self):
        offenders = []
        for path in self.source_files():
            text = path.read_text(encoding="utf-8")
            if "time.time(" in text:
                offenders.append(str(path))
        assert not offenders, (
            f"wall-clock time.time() in {offenders} — use "
            "time.monotonic() for deadlines; simulated time for models")
