"""The one table of random streams: every generator in fedsim is
``stream(seed, name, *ids)``, the seed's ``SeedSequence`` at the spawn key
of the name's prefix followed by the ids, so a draw depends on its own
coordinate only, never on how many draws came before it elsewhere.

The ids each stream takes: ``test_split`` and ``eval`` a client;
``sampling`` and ``server`` a round; ``client`` a round and a client, plus
1 for Ditto's personal track. Under an empty key a stream is
``default_rng(seed)`` itself. Some streams coincide today: ``data``,
``partition`` and ``init`` are one stream, ``server_pool`` is client 2's
``test_split`` and ``centralized`` client 9's (ROADMAP item 22).
"""

from __future__ import annotations

import numpy as np

STREAMS = {
    "data": (), "partition": (), "init": (), "test_split": (),
    "sampling": (0,), "client": (1,), "server_pool": (2,), "server": (3,), "eval": (4,),
    "centralized": (9,),
}


def stream(seed: int, name: str, *ids: int) -> np.random.Generator:
    """The generator of stream ``name`` at ``ids`` for ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=STREAMS[name] + ids))
