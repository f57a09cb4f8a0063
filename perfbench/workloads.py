"""Workload definitions and the seeded input generator.

Each workload has fixed `verify-lemma` invocations (the verdict phase), a
fixed warm-up, and an endless stream of single operations (the batch
phase) drawn from a seed.  The stream is stratified: it comes in blocks
that hold every cell of the workload's mix exactly once, in a seeded order,
so two seeds run the same share of every (operation, genus) cell and differ
only in the inputs inside each cell.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from hashlib import sha256
from itertools import islice

from checker import q_value, standard_labels, thm41_words


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    verdicts: tuple[tuple[str, ...], ...]
    genera: tuple[int, ...]
    # operations the traced run times untraced and traced; a fixed number, so
    # that its counts repeat exactly
    trace_ops: int
    # worker processes of an untraced run, each with one cold verdict phase:
    # more where the verdict is short
    processes: int


DECIDE_GENERA = (8, 12, 16, 18, 20, 24, 32, 64)
# preserves_q scans all 2^g classes up to genus 20, so the decide warm-up
# builds those form tables
DECIDE_TABLE_GENERA = tuple(g for g in DECIDE_GENERA if g <= 20)
GROUP_GENERA = (8, 9)
RSEQ_GENUS = 14
REDUCE_GENERA = (16, 24, 32, 48, 64)
_POWERS = (1, 1, 1, -1, 2, -2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decide",
            why=(
                "parse_word, decide_extendable and act over g in {8,12,16,18,20,24,32,64}; "
                "half random words, half Thm 4.1 products: words and gmform, no groupops"
            ),
            verdicts=(("verify-lemma", "4.6", "-g", "24"),),
            genera=DECIDE_GENERA,
            trace_ops=160,
            processes=9,
        ),
        Workload(
            name="group",
            why=(
                "verify-lemma 4.8 -g 7, then factorize products of 3-8 standard "
                "generators at g in {8,9}: closure, enumeration, bidirectional search"
            ),
            verdicts=(("verify-lemma", "4.8", "-g", "7", "--workers", "1"),),
            genera=GROUP_GENERA,
            trace_ops=480,
            processes=7,
        ),
        Workload(
            name="reduce",
            why=(
                "verify-lemma 4.4 -g 12 and 4.10 -g 16, then reduce_rseq at g 14 and "
                "alpha, q2, pair reductions at g in {16..64}: long certificate replay"
            ),
            verdicts=(
                ("verify-lemma", "4.4", "-g", "12"),
                ("verify-lemma", "4.10", "-g", "16"),
            ),
            genera=(RSEQ_GENUS,) + REDUCE_GENERA,
            trace_ops=200,
            processes=5,
        ),
    )
}


def _cells(name: str) -> list[tuple]:
    if name == "decide":
        return [
            (g, family)
            for g in DECIDE_GENERA
            for family in ("random", "generator")
        ]
    if name == "group":
        return [(g, length) for g in GROUP_GENERA for length in range(3, 9)]
    if name == "reduce":
        cells: list[tuple] = [("rseq", RSEQ_GENUS)] * len(REDUCE_GENERA)
        for kind in ("alpha", "q2", "pair"):
            cells += [(kind, g) for g in REDUCE_GENERA]
        return cells
    raise KeyError(name)


def _random_letter(rng: random.Random, g: int) -> str:
    kind = rng.choice("acdy")
    if kind == "a":
        base = f"t_{{a_{rng.randint(1, g - 1)}}}"
    elif kind == "c":
        base = f"t_{{c_{rng.randint(1, g - 3)}}}"
    elif kind == "d":
        base = f"t_{{d_{rng.randint(1, g - 2)}}}"
    else:
        i, j = rng.sample(range(1, g + 1), 2)
        base = f"Y_{{{i},{j}}}"
    power = rng.choice(_POWERS)
    return base if power == 1 else base + f"^{{{power}}}"


@lru_cache(maxsize=None)
def _generator_families(g: int) -> tuple[tuple[str, ...], ...]:
    """Thm 4.1 generator words split into their five families."""
    words = thm41_words(g)
    return (
        tuple(w for w in words if w.startswith("Y")),
        tuple(w for w in words if w.startswith("t_{a") and w.endswith("^{2}")),
        tuple(w for w in words if w.startswith("t_{c")),
        tuple(w for w in words if w.startswith("t_{d")),
        tuple(w for w in words if " " in w),
    )


def _generator_product(rng: random.Random, g: int) -> str:
    families = _generator_families(g)
    return " ".join(rng.choice(rng.choice(families)) for _ in range(rng.randint(2, 8)))


def _nonzero_with_q(rng: random.Random, g: int, value: int) -> int:
    while True:
        v = rng.getrandbits(g)
        if v and q_value(g, v) == value:
            return v


def _make_op(rng: random.Random, name: str, cell: tuple) -> dict:
    if name == "decide":
        g, family = cell
        if family == "random":
            word = " ".join(_random_letter(rng, g) for _ in range(rng.randint(4, 12)))
        else:
            word = _generator_product(rng, g)
        return {
            "kind": "decide",
            "g": g,
            "family": family,
            "word": word,
            "vector": rng.getrandbits(g),
        }
    if name == "group":
        g, length = cell
        labels = standard_labels(g)
        word = " ".join(rng.choice(labels) for _ in range(length))
        return {"kind": "factorize", "g": g, "length": length, "word": word}
    kind, g = cell
    if kind == "rseq":
        return {"kind": "rseq", "g": g, "bits": rng.getrandbits(g)}
    if kind == "alpha":
        return {"kind": "alpha", "g": g, "triple": sorted(rng.sample(range(1, g + 1), 3))}
    if kind == "q2":
        return {"kind": "q2", "g": g, "bits": _nonzero_with_q(rng, g, 2)}
    a = _nonzero_with_q(rng, g, 0)
    while True:
        # q(a+b) = q(a) + q(b) + 2 a.b, so an isotropic pair needs a.b = 0
        b = _nonzero_with_q(rng, g, 0)
        if b != a and (a & b).bit_count() % 2 == 0:
            return {"kind": "pair", "g": g, "a": a, "b": b}


def op_stream(name: str, seed: int, part: int = 0):
    """Endless deterministic stream of batch operations for one workload.
    Parts 1, 2, ... are further independent streams of the same seed, one
    for each worker process of a run."""
    rng = random.Random(f"{name}:{seed}" if part == 0 else f"{name}:{seed}:{part}")
    cells = _cells(name)
    while True:
        order = list(cells)
        rng.shuffle(order)
        for cell in order:
            yield _make_op(rng, name, cell)


def ops(name: str, seed: int, count: int, part: int = 0) -> list[dict]:
    return list(islice(op_stream(name, seed, part), count))


def input_digest(name: str, seed: int, count: int, part: int = 0) -> str:
    """sha256 of the canonical bytes of the first `count` operations."""
    text = "\n".join(json.dumps(op, sort_keys=True) for op in ops(name, seed, count, part))
    return sha256(text.encode()).hexdigest()


def block_size(name: str) -> int:
    return len(_cells(name))
