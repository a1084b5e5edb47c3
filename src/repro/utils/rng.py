"""Deterministic random-number streams.

Reproducibility across thousands of concurrently simulated replicas requires
that each consumer (replica integrator, exchange decision, failure injector)
owns an independent stream whose state does not depend on scheduling order.
We use NumPy's ``SeedSequence.spawn`` mechanism, which guarantees
statistically independent child streams from one root seed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np


def key_digest(text: str) -> int:
    """Stable 32-bit digest of a string key (base 131, mod 2**32), the
    same in every process whatever ``PYTHONHASHSEED`` is."""
    acc = 0
    for ch in text:
        acc = (acc * 131 + ord(ch)) % (2**32)
    return acc


def spawn_streams(seed: int, n: int) -> List[np.random.Generator]:
    """Spawn ``n`` independent generators from a root seed."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(n)]


class RNGRegistry:
    """Named, lazily created, independent RNG streams from one root seed.

    The stream for a given key is created on first access and is a
    deterministic function of ``(seed, key)`` alone — the order in which
    streams are first requested does not matter.

    Examples
    --------
    >>> reg = RNGRegistry(42)
    >>> r1 = reg.stream("replica", 7)
    >>> r2 = RNGRegistry(42).stream("replica", 7)
    >>> float(r1.random()) == float(r2.random())
    True
    """

    def __init__(self, seed: int):
        self._seed = int(seed)
        self._streams: Dict[Tuple, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was built from."""
        return self._seed

    def stream(self, *key) -> np.random.Generator:
        """Return the generator for ``key``, creating it deterministically.

        Key components must be hashable; strings and integers are hashed into
        the seed material so that distinct keys yield independent streams.
        """
        if key not in self._streams:
            self._streams[key] = self.transient(*key)
        return self._streams[key]

    def transient(self, *key) -> np.random.Generator:
        """A fresh generator for ``key`` that the registry does not keep.

        For one-shot consumers (a replica's initial coordinates and
        equilibration, one exchange sweep, one replica's protonation
        draw) that request their key once and finish drawing before the
        next quiet point: a checkpoint never needs their state, so the
        run neither holds nor snapshots it.  Draws equal those of
        :meth:`stream` for a key requested once.
        """
        entropy = [self._seed]
        for part in key:
            if isinstance(part, str):
                entropy.append(key_digest(part))
            elif isinstance(part, (int, np.integer)):
                entropy.append(int(part) % (2**32))
            else:
                raise TypeError(
                    f"RNG key components must be str or int, got {type(part).__name__}"
                )
        seq = np.random.SeedSequence(entropy)
        # Generator(PCG64(seq)) == default_rng(seq); PCG64(seq) itself
        # enters np.errstate, so neither spelling is cheaper.
        return np.random.Generator(np.random.PCG64(seq))

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot of every stream created so far.

        Keys are serialized as JSON lists (streams are keyed by tuples);
        values are the ``bit_generator.state`` dicts, which contain only
        Python ints/strings and round-trip exactly through JSON.
        """
        import json

        return {
            "seed": self._seed,
            "streams": {
                json.dumps(list(key)): gen.bit_generator.state
                for key, gen in self._streams.items()
            },
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore stream states captured by :meth:`state_dict`.

        Streams are recreated lazily (creation is order-independent) and
        their generator state overwritten, so a resumed run continues the
        exact random sequences of the interrupted one.
        """
        import json

        if int(state["seed"]) != self._seed:
            raise ValueError(
                f"checkpoint seed {state['seed']} != registry seed {self._seed}"
            )
        for raw_key, gen_state in state["streams"].items():
            key = tuple(json.loads(raw_key))
            self.stream(*key).bit_generator.state = gen_state

    def __len__(self) -> int:
        return len(self._streams)
