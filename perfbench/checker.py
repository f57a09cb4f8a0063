"""Independent output checker for the crosscap benchmark.

Nothing here imports crosscap: words are parsed, transvections applied and
the form evaluated by this file's own code, so a change to the library's
F2 kernels or word layer cannot certify its own output.

Conventions shared with the library's public output: a class is an int bit
mask over x1..xg (x1 is bit 0), a matrix is a tuple of column masks (column
j is the image of x_{j+1}), and the rightmost letter of a word acts first.

Every check function returns None when the output is correct and a short
reason string when it is not.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb

_LETTER = re.compile(
    r"(?:t_\{([acd])_(?:(\d+)|\{(\d+)\})\}|Y_\{[^{}]*(?:\{[^{}]*\}[^{}]*)*\})"
    r"(?:\^(?:\{(-?\d+)\}|(-?\d+)))?"
)

# isometry-group orders and closure diameters of the standard generating set
GOLDEN_ORDERS = {2: 1, 3: 2, 4: 8, 5: 72, 6: 1152, 7: 40320}
GOLDEN_DIAMETERS = {2: 0, 3: 1, 4: 3, 5: 5, 6: 7, 7: 9}

# terminal triples of the index-shift system and the form value of each class
ALPHA_TERMINALS = {
    (1, 3, 4): "alpha_1",
    (1, 2, 3): "alpha_1",
    (2, 3, 5): "alpha_1",
    (2, 4, 6): "alpha_1",
    (1, 3, 5): "alpha_2",
    (1, 2, 4): "alpha_2",
    (2, 3, 4): "alpha_2",
    (2, 4, 5): "alpha_2",
}
_ALPHA_LABEL_BY_Q = {1: "alpha_1", 3: "alpha_2"}


class CheckError(ValueError):
    """The checker could not read an output it was given."""


# ---------------------------------------------------------------------------
# F2 / Z4 arithmetic
# ---------------------------------------------------------------------------


def mask(indices) -> int:
    """Bit mask of the 1-based indices."""
    out = 0
    for i in indices:
        out |= 1 << (i - 1)
    return out


@lru_cache(maxsize=None)
def _odd_mask(g: int) -> int:
    # odd 1-based indices sit on even bit positions
    return sum(1 << b for b in range(0, g, 2))


def q_value(g: int, v: int) -> int:
    """The form l_odd - l_even (mod 4) of the class v."""
    odd = _odd_mask(g)
    return ((v & odd).bit_count() - (v & ~odd).bit_count()) % 4


def basis_q(j: int) -> int:
    """q(x_{j+1}) for the 0-based column index j: +1 on odd x, -1 on even."""
    return 1 if j % 2 == 0 else 3


def parse_axes(text: str, g: int) -> list[int]:
    """Transvection axes of a word, in product order, one per odd power.

    Twists about even-weight axes are involutions, so a letter acts as its
    axis when its power is odd and as the identity otherwise; Y letters act
    as the identity on mod-2 homology.
    """
    axes = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _LETTER.match(text, pos)
        if m is None:
            raise CheckError(f"unreadable letter at {pos}: {text[pos:pos + 16]!r}")
        pos = m.end()
        power_text = m.group(4) if m.group(4) is not None else m.group(5)
        power = int(power_text) if power_text is not None else 1
        if power == 0:
            raise CheckError("zero exponent")
        kind = m.group(1)
        if kind is None or power % 2 == 0:
            continue
        i = int(m.group(2) if m.group(2) is not None else m.group(3))
        span = {"a": (i, i + 1), "c": (i, i + 1, i + 2, i + 3), "d": (i, i + 2)}[kind]
        if i < 1 or span[-1] > g:
            raise CheckError(f"letter index {i} out of range at genus {g}")
        axes.append(mask(span))
    return axes


def act(axes: list[int], v: int) -> int:
    """Image of v under the product of transvections, rightmost first."""
    for a in reversed(axes):
        if (v & a).bit_count() & 1:
            v ^= a
    return v


def matrix(axes: list[int], g: int) -> tuple[int, ...]:
    return tuple(act(axes, 1 << j) for j in range(g))


def apply_cols(cols, v: int) -> int:
    out = 0
    j = 0
    while v:
        if v & 1:
            out ^= cols[j]
        v >>= 1
        j += 1
    return out


def preserves_form(cols, g: int) -> bool:
    """The O(g^2) basis criterion: q on every column and orthonormal columns."""
    for j in range(g):
        if q_value(g, cols[j]) != basis_q(j):
            return False
        for i in range(j):
            if (cols[i] & cols[j]).bit_count() & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# generating sets known from the paper
# ---------------------------------------------------------------------------


def thm41_words(g: int) -> list[str]:
    """The generator words of the form-preserving family (Thm 4.1)."""
    out = [f"Y_{{{i},{j}}}" for i in range(1, g + 1) for j in range(1, g + 1) if i != j]
    out += [f"t_{{a_{i}}}^{{2}}" for i in range(1, g)]
    out += [f"t_{{c_{i}}}^{{2}}" for i in range(1, g - 2)]
    out += [f"t_{{d_{i}}}" for i in range(1, g - 1)]
    out += [f"t_{{a_{i}}} t_{{a_{i + 2}}} t_{{c_{i}}}" for i in range(1, g - 2)]
    return out


def standard_labels(g: int) -> list[str]:
    """Labels of the standard transvection generators, each a twist word."""
    out = [f"t_{{d_{i}}}" for i in range(1, g - 1)]
    out += [f"t_{{a_{i}}} t_{{a_{i + 2}}} t_{{c_{i}}}" for i in range(1, g - 2)]
    return out


def canonical_masks(g: int) -> set[int]:
    """Normal forms of symbol sequences at genus g >= 3."""
    supports = [(), (1,), (2,), (1, 2), (1, 3), tuple(range(1, g + 1))]
    return {mask(s) for s in supports}


# ---------------------------------------------------------------------------
# batch operation outputs
# ---------------------------------------------------------------------------


def check_decide(op: dict, out: dict) -> str | None:
    g = op["g"]
    axes = parse_axes(op["word"], g)
    cols = matrix(axes, g)
    if tuple(out["matrix"]) != cols:
        return "induced matrix differs from the independent replay"
    extendable = preserves_form(cols, g)
    if out["extendable"] != extendable:
        return f"verdict {out['extendable']} contradicts the basis criterion"
    if op["family"] == "generator" and not extendable:
        return "a product of Thm 4.1 generator words must extend"
    w = out["witness"]
    if extendable and w is not None:
        return "extendable verdict carries a witness"
    if not extendable:
        if not w:
            return "negative verdict without a nonzero witness"
        if q_value(g, w) == q_value(g, apply_cols(cols, w)):
            return "witness keeps its form value"
    if out["image"] != apply_cols(cols, op["vector"]):
        return "act image differs from the independent replay"
    return None


def check_factorize(op: dict, out: dict) -> str | None:
    g = op["g"]
    if out["status"] != "found":
        return f"status {out['status']} for a product of standard generators"
    labels = set(standard_labels(g))
    if any(label not in labels for label in out["labels"]):
        return "factorization uses a letter outside the standard generators"
    if len(out["labels"]) > op["length"]:
        return "factorization is longer than the known product"
    target = matrix(parse_axes(op["word"], g), g)
    if matrix(parse_axes(" ".join(out["labels"]), g), g) != target:
        return "factorization word does not replay to the target"
    return None


def check_rseq(op: dict, out: dict) -> str | None:
    g, start = op["g"], op["bits"]
    end, states = out["end"], out["states"]
    if out["start"] != start or states[0] != start or states[-1] != end:
        return "path endpoints disagree with the input"
    if len(states) != out["steps"] + 1:
        return "state count does not match step count"
    if end not in canonical_masks(g):
        return "path ends outside the normal forms"
    if q_value(g, start) != q_value(g, end) or start.bit_count() % 2 != end.bit_count() % 2:
        return "path changes an invariant"
    if act(parse_axes(out["word"], g), start) != end:
        return "path certificate does not replay"
    return None


def check_alpha(op: dict, out: dict) -> str | None:
    g = op["g"]
    start, terminal = tuple(op["triple"]), tuple(out["terminal"])
    if terminal not in ALPHA_TERMINALS:
        return f"terminal {terminal} is not listed"
    if out["label"] != ALPHA_TERMINALS[terminal]:
        return "terminal carries the wrong label"
    if out["label"] != _ALPHA_LABEL_BY_Q.get(q_value(g, mask(start))):
        return "label disagrees with the form value of the start class"
    if act(parse_axes(out["word"], g), mask(start)) != mask(terminal):
        return "index-shift certificate does not replay"
    return None


def _words_over_generators(moves, word: str, g: int) -> str | None:
    labels = set(standard_labels(g))
    if any(m not in labels for m in moves):
        return "reduction uses a move outside the standard generators"
    if " ".join(reversed(moves)) != word:
        return "reduction word does not match its moves"
    return None


def check_q2(op: dict, out: dict) -> str | None:
    g, a = op["g"], op["bits"]
    bad = _words_over_generators(out["moves"], out["word"], g)
    if bad:
        return bad
    if out["end"] != mask((1, 3)):
        return "reduction does not end at x1+x3"
    if act(parse_axes(out["word"], g), a) != out["end"]:
        return "q2 certificate does not replay"
    return None


def check_pair(op: dict, out: dict) -> str | None:
    g, a, b = op["g"], op["a"], op["b"]
    bad = _words_over_generators(out["moves"], out["word"], g)
    if bad:
        return bad
    sources = {"a": a, "b": b, "a+b": a ^ b}
    try:
        src = [sources[name] for name in out["tracked_pair"]]
    except KeyError:
        return "unknown tracked pair"
    final = out["final_pair"]
    axes = parse_axes(out["word"], g)
    if act(axes, src[0]) != final[0] or act(axes, src[1]) != final[1]:
        return "pair certificate does not replay"
    branch = out["branch"]
    if branch == "generic":
        want = [mask((1, 2)), mask((3, 4))]
    elif branch == "full_support":
        want = [mask((1, 2)), mask(range(3, g + 1))]
    elif branch == "degenerate_pair":
        return None if a == b else "distinct classes reported as degenerate"
    else:
        return f"unknown branch {branch!r}"
    if list(final) != want:
        return f"{branch} branch ends at the wrong pair"
    return None


CHECKS = {
    "decide": check_decide,
    "factorize": check_factorize,
    "rseq": check_rseq,
    "alpha": check_alpha,
    "q2": check_q2,
    "pair": check_pair,
}


def check_op(op: dict, out: dict) -> str | None:
    try:
        return CHECKS[op["kind"]](op, out)
    except (CheckError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


# ---------------------------------------------------------------------------
# verify-lemma reports
# ---------------------------------------------------------------------------


def check_lemma(argv: list[str], code: int, payload: dict | None) -> str | None:
    """Check one `verify-lemma <id> -g <g>` report against known answers."""
    if code != 0:
        return f"exit code {code}"
    if not payload or payload.get("ok") is not True:
        return "report is not ok"
    lemma, g = argv[1], int(argv[argv.index("-g") + 1])
    detail = payload.get("detail", {})
    try:
        if lemma == "4.4":
            return _check_44(g, detail)
        if lemma == "4.6":
            return _check_46(g, detail)
        if lemma == "4.8":
            return _check_48(g, detail)
        if lemma == "4.10":
            return _check_410(g, detail)
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable report: {exc!r}"
    return f"no known answers for lemma {lemma}"


def _check_44(g: int, detail: dict) -> str | None:
    if detail["sequences"] != 1 << g:
        return "not every sequence was reduced"
    comps = detail["components"]
    if sum(c["size"] for c in comps) != 1 << g:
        return "components do not partition the sequences"
    canon = canonical_masks(g)
    for c in comps:
        rep = _rseq_mask(c["representative"])
        if not c["ok"] or not c["canonical"]:
            return "a component lacks a normal form"
        if any(_rseq_mask(s) not in canon for s in c["canonical"]):
            return "a component lists a non-normal form"
        if c["form_value"] != q_value(g, rep) or c["support_parity"] != rep.bit_count() % 2:
            return "component invariants disagree with the representative"
    return None


def _rseq_mask(ascii_symbols: str) -> int:
    return sum(1 << k for k, ch in enumerate(ascii_symbols) if ch in "PM")


def _check_46(g: int, detail: dict) -> str | None:
    want = {f"TA.{k}": g - 1 for k in (1, 2)}
    want.update({f"TC.{k}": g - 3 for k in range(1, 16)})
    got = {r["id"]: r["instances"] for r in detail["rules"] if r["ok"]}
    if got != want:
        return "twist case tables are incomplete or inconsistent"
    return None


def _check_48(g: int, detail: dict) -> str | None:
    order = GOLDEN_ORDERS.get(g)
    if not (detail["equal"] and detail["complete"]):
        return "closure differs from enumeration"
    if detail["closure_order"] != detail["enumerated_order"]:
        return "closure and enumeration orders differ"
    if order is not None and detail["closure_order"] != order:
        return f"order {detail['closure_order']} differs from the known {order}"
    if g in GOLDEN_DIAMETERS and detail["diameter"] != GOLDEN_DIAMETERS[g]:
        return f"diameter {detail['diameter']} differs from the known {GOLDEN_DIAMETERS[g]}"
    return None


def _check_410(g: int, detail: dict) -> str | None:
    triples = comb(g, 3)
    if detail["triples"] != triples:
        return "not every triple was reduced"
    counts = detail["terminal_counts"]
    if sum(counts.values()) != triples:
        return "terminal counts do not add up"
    listed = {str(t) for t in ALPHA_TERMINALS}
    if any(k not in listed for k in counts):
        return "a triple stopped at an unlisted terminal"
    if not all(r["ok"] for r in detail["shift_rules"]):
        return "a shift rule is inconsistent"
    return None
