from __future__ import annotations

import random

from siotsim.rng import DrawTable, token_hex, unit_draw

# ids of every shape a scenario may hold: plain, non-ASCII, integers (which
# hash as their text) and ids holding the key separator itself
IDS = ("u001", "c00n003_m", "ünïcødé", "用户", "", 7, 0, -3,
       "a\x1fb", "\x1f", "x\x1f\x1fy")


def test_draw_table_entries_equal_the_keyed_draws():
    rnd = random.Random(77)
    for _ in range(40):
        seed, replicate = rnd.randrange(-5, 10**9), rnd.randrange(100)
        table = DrawTable(seed, replicate)
        for entity in IDS + (f"n{rnd.randrange(10**6)}",):
            assert table.auth[entity] == unit_draw(seed, replicate, "auth", entity)
            assert table.spread[entity] == unit_draw(seed, replicate, "spread", entity)
            assert table.tokens[entity] == token_hex(seed, replicate, "token", entity)

