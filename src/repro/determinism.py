"""Centralized, seeded randomness for reproducible runs.

Every stochastic knob in the framework — producer traffic shaping,
the optimistic baseline's arrival process, fuzz campaigns —
draws from a :class:`random.Random` instance obtained through this
module.  Nothing on a recorded or replayed path may read the global
:mod:`random` state or the wall clock: recordings would stop being
reproducible the moment an unseeded draw sneaks in.  The test-suite
enforces the policy by grepping the source tree (only this module may
construct ``random.Random``) and by running replays under
:func:`forbid_entropy`, which turns stray global-random/wall-clock
reads into hard errors.

Two derivation styles are provided:

* :func:`seeded_rng` — a stream from one integer seed (the historical
  derivations are preserved bit-for-bit so seeds recorded by earlier
  versions keep producing identical traffic);
* :func:`derive_seed` — a stable SHA-256 mix of a base seed and a
  namespace path, for new components that need independent streams
  without manual XOR constants.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import time
from typing import Iterator, List, Tuple, Union

#: Weyl-sequence constant used by the historical per-port derivation.
GOLDEN32 = 0x9E3779B9


def seeded_rng(seed: int) -> random.Random:
    """A private RNG stream for *seed* (never the global instance)."""
    return random.Random(seed)


def random_bytes(rng: random.Random, n: int) -> bytes:
    """*n* bytes equal to ``bytes(rng.getrandbits(8) for _ in range(n))``,
    leaving *rng* in the same state, in one draw.

    ``getrandbits(8)`` keeps the top byte of one 32-bit output, and
    ``getrandbits(32 * n)`` packs *n* outputs least-significant first,
    so byte ``4 * i + 3`` of its little-endian form is draw *i*.
    """
    if n == 0:
        return b""
    return rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]


def mixed_seed(seed: int, index: int, salt: int = GOLDEN32) -> int:
    """The historical per-index stream derivation (``seed ^ i*salt``)."""
    return seed ^ (index * salt)


def derive_seed(base_seed: int, *namespace: Union[str, int]) -> int:
    """A stable 63-bit seed for ``(base_seed, *namespace)``.

    SHA-256 based: collision-free in practice, independent of
    ``PYTHONHASHSEED``, and identical across processes and platforms —
    the property checkpoints and recordings rely on.
    """
    digest = hashlib.sha256()
    digest.update(str(int(base_seed)).encode("ascii"))
    for part in namespace:
        digest.update(b"\x00")
        digest.update(str(part).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") >> 1


def derive_token(base_seed: int, *namespace: Union[str, int],
                 width: int = 16) -> str:
    """A stable hex identifier for ``(base_seed, *namespace)``.

    The :func:`derive_seed` mix rendered as a fixed-width hex string —
    used for deterministic, collision-resistant ids (farm job ids)
    that must be identical across processes and platforms.
    """
    return format(derive_seed(base_seed, *namespace), f"0{width}x")[-width:]


def rng_state_snapshot(rng: random.Random) -> list:
    """The RNG's internal state as JSON-able nested lists."""
    return _listify(rng.getstate())


def rng_state_restore(rng: random.Random, state: list) -> None:
    """Restore a state captured by :func:`rng_state_snapshot`."""
    rng.setstate(_tuplify(state))


def _listify(value):
    if isinstance(value, tuple):
        return [_listify(item) for item in value]
    return value


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


class EntropyError(RuntimeError):
    """A replayed path read unseeded randomness or the wall clock."""


@contextlib.contextmanager
def forbid_entropy(allow_monotonic: bool = True) -> Iterator[None]:
    """Fail hard on global-random or wall-clock reads inside the block.

    Used by replay tests to prove a path is deterministic: any call to
    the module-level :mod:`random` functions or :func:`time.time`
    raises :class:`EntropyError`.  ``time.monotonic`` stays usable by
    default — transport deadlines may consult it without affecting
    simulated behaviour; pass ``allow_monotonic=False`` to forbid it
    too.  Private ``random.Random`` instances are unaffected.
    """
    def banned(name):
        def _raise(*_args, **_kwargs):
            raise EntropyError(
                f"{name}() called on a replayed path; route randomness "
                "through repro.determinism and clocks through the "
                "simulation"
            )
        return _raise

    patches: List[Tuple[object, str, object]] = [
        (random, "random", random.random),
        (random, "randint", random.randint),
        (random, "randrange", random.randrange),
        (random, "choice", random.choice),
        (random, "getrandbits", random.getrandbits),
        (random, "shuffle", random.shuffle),
        (random, "uniform", random.uniform),
        (time, "time", time.time),
    ]
    if not allow_monotonic:
        patches.append((time, "monotonic", time.monotonic))
    try:
        for module, name, _original in patches:
            setattr(module, name, banned(f"{module.__name__}.{name}"))
        yield
    finally:
        for module, name, original in patches:
            setattr(module, name, original)
