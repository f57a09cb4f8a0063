"""The mod-4 quadratic form of the standardly embedded surface.

Basis values are +1 on odd-index circles and -1 on even-index circles, and
the refinement rule q(u + v) = q(u) + q(v) + 2 (u . v) extends them to the
whole group.  In closed form, a class whose support has l_o odd and l_e even
indices takes the value l_o - l_e (mod 4).

A note on the transvection criterion: a transvection about a class a is an
isometry of q exactly when q(a) = 2.  (If q(a) = 0 then any x pairing to 1
with a has q(x + a) = q(x) + 2.)  This is verified exhaustively in the test
suite for every even-weight axis up to genus 8.

A note on the isometry test: for a matrix M put D(v) = q(Mv) - q(v) and
B(u, w) = Mu . Mw + u . w.  The refinement rule applied on both sides gives

    D(u + w) = D(u) + D(w) + 2 B(u, w)   (mod 4),

so by induction on support size D vanishes on span(x_1..x_{k-1}) exactly
when D(x_i) = 0 for every i < k and B(x_i, x_j) = 0 for every i < j < k.
Let k be the first index where that fails.  Every mask below x_k lies in
that span, so the smallest failing mask (the first one an increasing scan
over all 2^g masks meets) is x_k itself when D(x_k) != 0.  Otherwise
D(x_k + u) = 2 B(u, x_k) for u in the span, and B(., x_k) is linear, so the
smallest failing mask is x_i + x_k with i the smallest index whose column
pairs oddly with column k.  Both cases read off the columns in O(g^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .f2core import Genus, H1Matrix, H1Vector, _odd_mask, _require_genus_budget, intersection

# q_table holds 2^g entries; nothing reads it above genus 20 (preserves_q
# reads the columns instead), and genus 40 would ask for 2^40 entries.
FORM_TABLE_GENUS_CAP = 20

_SIGNED = {0: "0", 1: "+1", 2: "2", 3: "-1"}


def basis_value(index: int) -> int:
    """q on the basis class x_index: +1 for odd index, -1 (= 3) for even."""
    return 1 if index % 2 else 3


def _q_mask(v: int, odd: int) -> int:
    """q on a raw mask: l_odd - l_even = 2 l_odd - weight (mod 4)."""
    return (2 * (v & odd).bit_count() - v.bit_count()) % 4


def q_eval(v: H1Vector) -> int:
    """Value of the form on v, via the closed form l_odd - l_even mod 4."""
    return _q_mask(v.bits, _odd_mask(v.genus.g))


def q_eval_recursive(v: H1Vector) -> int:
    """Independent evaluation peeling one support index at a time.

    Uses only the basis values, the refinement rule and the intersection
    pairing; serves as an oracle for q_eval.
    """
    total = 0
    acc = H1Vector.zero(v.genus)
    for i in v.support:
        e = H1Vector.basis(v.genus, i)
        total = (total + basis_value(i) + 2 * intersection(e, acc)) % 4
        acc = acc + e
    return total


def z4_str(value: int, signed: bool = False) -> str:
    """Render a mod-4 value, optionally in +1/-1 display style."""
    v = value % 4
    return _SIGNED[v] if signed else str(v)


# byte translations adding a basis value mod 4, by that value
_ADD_MOD4 = {b: bytes((t + b) % 4 for t in range(256)) for b in (1, 3)}


@lru_cache(maxsize=4)
def q_table(genus: Genus) -> bytes:
    """q over all 2^g bit masks, one byte each, indexed by mask; the tables
    of the last four genera stay cached.  Refused above FORM_TABLE_GENUS_CAP.

    Built by doubling: a mask v below x_i pairs evenly with x_i, so
    q(v + x_i) = q(v) + q(x_i), and the masks with top bit x_i are the
    table so far shifted by basis_value(i)."""
    g = genus.g
    _require_genus_budget("form table", g, FORM_TABLE_GENUS_CAP)
    table = bytes(1)
    for i in range(1, g + 1):
        table += table.translate(_ADD_MOD4[basis_value(i)])
    return table


@dataclass(frozen=True)
class QPreservationVerdict:
    preserves: bool
    # always "exhaustive" (the witness is the smallest failing class); the
    # benchmark tracer counts calls by it
    mode: str
    witness: H1Vector | None = None

    def __bool__(self) -> bool:
        return self.preserves


def _smallest_failing(cols: tuple[int, ...], odd: int) -> int | None:
    """The smallest mask whose form value M changes, or None (see the
    module docstring for the proof).

    `union` is the OR of the columns already passed: a column that misses
    it pairs evenly with each of them, so only a column that meets it is
    scanned against them.  A word's matrix is nearly a permutation, so few
    columns are.  Form values are computed inline, as in `_q_mask`: column
    k keeps its value exactly when 2 |ck & odd| - |ck| equals
    basis_value(k + 1) = 1 + 2 (k & 1), mod 4."""
    union = 0
    for k, ck in enumerate(cols):
        if (2 * ((ck & odd).bit_count() - (k & 1)) - ck.bit_count() - 1) % 4:
            return 1 << k
        if ck & union:
            for i in range(k):
                if (cols[i] & ck).bit_count() & 1:
                    return (1 << i) | (1 << k)
        union |= ck
    return None


def preserves_q(m: H1Matrix) -> QPreservationVerdict:
    """Decide whether a matrix is an isometry of the form.

    M preserves q exactly when it preserves q on every basis class and the
    intersection pairing on every pair of basis classes: the refinement rule
    then propagates preservation by induction on support size (see the
    module docstring).  This is decided from the columns in O(g^2) at every
    genus, and in near O(g) on a word's matrix, whose columns mostly miss
    the columns before them.  A failure's witness is the smallest failing
    class, the first class an increasing scan over all 2^g classes meets:
    x_k for the first column k that changes its form value or pairs oddly
    with an earlier column, or x_i + x_k in the second case with i the
    first such earlier column.
    """
    witness = _smallest_failing(m.cols, _odd_mask(m.genus.g))
    if witness is None:
        return QPreservationVerdict(True, "exhaustive")
    return QPreservationVerdict(False, "exhaustive", H1Vector(m.genus, witness))
