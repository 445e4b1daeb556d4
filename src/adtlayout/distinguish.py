"""Runtime distinguishability of variants: checking, tag interval search
and decision-tree derivation over per-variant bit patterns.

A pattern is the content of one scalar in one variant, held as a
`BitPattern` of integer masks in which bit i stands for 2**i, counted from
the LSB: constant bits with their values, and field bits, which hold data
and never discriminate. Every other bit is free: its value is chosen here
or by the solver. Bit positions in trees and tag intervals count from the
LSB.

Patterns print as strings, MSB first, over '0', '1', 'x' (field) and 'u'
(free). The JSON report and this module's public functions that take
`Patterns` use that view, through `parse_pattern` and `print_pattern`.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple, Optional, Union

Patterns = list[list[str]]  # [variant][scalar] -> MSB-first pattern string


class BitPattern(NamedTuple):
    width: int
    const: int = 0  # bits with a fixed value
    ones: int = 0  # the constant bits that are 1
    field: int = 0  # field data bits

    @property
    def free(self) -> int:
        return ((1 << self.width) - 1) & ~(self.const | self.field)

    @property
    def nonzero(self) -> int:
        """Bits that are not constant 0."""
        return ((1 << self.width) - 1) & ~(self.const & ~self.ones)

    def fix(self, mask: int, value: int) -> BitPattern:
        """The bits in `mask` made constant, with their values from `value`."""
        return BitPattern(
            self.width, self.const | mask, (self.ones & ~mask) | (value & mask), self.field
        )


def parse_pattern(text: str) -> BitPattern:
    const = ones = field = 0
    for ch in text:
        const, ones, field = const << 1, ones << 1, field << 1
        if ch in "01":
            const |= 1
            if ch == "1":
                ones |= 1
        elif ch == "x":
            field |= 1
    return BitPattern(len(text), const, ones, field)


_DIGITS = str.maketrans("0123", "ux01")


def print_pattern(p: BitPattern) -> str:
    """Binary digits read as decimal keep their places, so each position's
    digit of 2·const + (ones | field) is 0 free, 1 field, 2 or 3 constant."""
    if not p.width:
        return ""
    digits = 2 * int(f"{p.const:b}") + int(f"{p.ones | p.field:b}")
    return str(digits).zfill(p.width).translate(_DIGITS)


class Leaf(NamedTuple):
    variant: int

    def to_json(self) -> dict:
        return {"variant": self.variant}


class Node(NamedTuple):
    scalar: int
    bit: int  # position from the LSB
    zero: "DecisionTree"
    one: "DecisionTree"

    def to_json(self) -> dict:
        return {
            "scalar": self.scalar,
            "bit": self.bit,
            "zero": self.zero.to_json(),
            "one": self.one.to_json(),
        }


DecisionTree = Union[Leaf, Node]


def tree_depth(tree: DecisionTree) -> int:
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(tree_depth(tree.zero), tree_depth(tree.one))


def classify(tree: DecisionTree, scalars: list[int]) -> int:
    """Recover the variant index from encoded scalar values."""
    node = tree
    while isinstance(node, Node):
        bit = (scalars[node.scalar] >> node.bit) & 1
        node = node.one if bit else node.zero
    return node.variant


def _parse_rows(patterns: Patterns) -> list[list[BitPattern]]:
    rows = [[parse_pattern(s) for s in p] for p in patterns]
    for row in rows:
        assert [p.width for p in row] == [p.width for p in rows[0]], (
            "patterns must share one shape"
        )
    return rows


def join_patterns(row: list[BitPattern]) -> BitPattern:
    """The patterns of `row` as one, the first lowest: a variant's scalars
    joined so that ascending bit index is (scalar, bit) order."""
    width = const = ones = field = 0
    for p in row:
        const |= p.const << width
        ones |= p.ones << width
        field |= p.field << width
        width += p.width
    return BitPattern(width, const, ones, field)


def _split(p: BitPattern, widths: list[int]) -> list[BitPattern]:
    out = []
    for w in widths:
        mask = (1 << w) - 1
        out.append(BitPattern(w, p.const & mask, p.ones & mask, p.field & mask))
        p = BitPattern(p.width - w, p.const >> w, p.ones >> w, p.field >> w)
    return out


def _viable(a: BitPattern, c: BitPattern) -> Optional[int]:
    """The positions where `a` and `c` could still be made to differ, held
    by no field and not equal constants in both; None when they already
    differ at a constant."""
    if (a.ones ^ c.ones) & a.const & c.const:
        return None
    return (a.free | c.free) & ~(a.field | c.field)


def _resolve_free_bits(
    rows: list[BitPattern], charge: Optional[Callable[[], bool]] = None
) -> Optional[bool]:
    """Complete search for an assignment of free bits making every pair of
    variants differ at a position that is constant in both. Fixes the chosen
    bits in `rows` (one joined pattern per variant) and returns True, or
    returns False when no assignment exists. Each node taken after the first
    backtrack calls `charge`; when it returns False the search stops and
    returns None.

    Branches on the unseparated pair with the fewest viable positions, the
    first such pair in (u, v) order; a pair with none is unsatisfiable
    outright, which keeps refutations from re-enumerating the other pairs'
    choices. The search is depth-first over an explicit stack, and a table
    holds every pair's viable positions: a step that fixes rows u and v
    recomputes only the pairs that touch u or v, and backtracking restores
    them."""
    n = len(rows)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    touching: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        touching[u].append(i)
        touching[v].append(i)

    def choices(a: BitPattern, c: BitPattern, cands: int):
        """The (a, c) pairs that separate them at one viable position, in
        ascending bit order, a's 0 first."""
        while cands:
            bit = cands & -cands
            cands ^= bit
            for bit_u, bit_v in ((0, bit), (bit, 0)):
                if a.const & bit and a.ones & bit != bit_u:
                    continue
                if c.const & bit and c.ones & bit != bit_v:
                    continue
                yield a.fix(bit, bit_u), c.fix(bit, bit_v)

    table = [_viable(rows[u], rows[v]) for u, v in pairs]
    # one frame per branching pair: [u, v, its rows before the step, the
    # remaining choices, the table entries the current step replaced]
    stack: list[list] = []
    first = True  # on the first descent, which is free
    while True:
        tightest: Optional[tuple[int, int]] = None  # (count, pair index)
        dead = False
        for i, cands in enumerate(table):
            if cands is None:
                continue
            if not cands:
                dead = True
                break
            count = cands.bit_count()
            if tightest is None or count < tightest[0]:
                tightest = (count, i)
        if not dead:
            if tightest is None:
                return True
            u, v = pairs[tightest[1]]
            a, c = rows[u], rows[v]
            stack.append([u, v, a, c, choices(a, c, table[tightest[1]]), None])
        # take the next choice, backtracking out of exhausted frames
        while True:
            if not stack:
                return False
            frame = stack[-1]
            u, v, a, c, pending, saved = frame
            if saved is not None:
                first = False
                rows[u], rows[v] = a, c
                for i, cands in saved:
                    table[i] = cands
            step = next(pending, None)
            if step is None:
                stack.pop()
                continue
            if not first and charge is not None and not charge():
                return None
            rows[u], rows[v] = step
            affected = touching[u] + [i for i in touching[v] if pairs[i][0] != u]
            frame[5] = [(i, table[i]) for i in affected]
            for i in affected:
                table[i] = _viable(rows[pairs[i][0]], rows[pairs[i][1]])
            break


def _inseparable_pair(rows: list[BitPattern]) -> bool:
    """True when some pair of rows has no position where they can differ:
    at each one a row holds a field or both hold the same constant. Equal
    rows are compared once; a row that occurs twice needs a free bit."""
    counts = Counter(rows)
    distinct = list(counts)
    for i, a in enumerate(distinct):
        for c in distinct[i if counts[a] > 1 else i + 1 :]:
            if _viable(a, c) == 0:
                return True
    return False


def derive_decision_tree(patterns: Patterns) -> Optional[tuple[DecisionTree, Patterns]]:
    """Choose values for unassigned bits and build a classifying tree.

    Returns (tree, patterns with the chosen bits made constant), or None
    exactly when no choice of the unassigned bits makes every pair of
    variants differ at a bit that is constant within each. Field ('x') bits route to
    both branches and are never tested while present in the live set.
    """
    derived = derive_tree(_parse_rows(patterns))
    if derived is None:
        return None
    tree, rows = derived
    return tree, [[print_pattern(p) for p in row] for row in rows]


def derive_tree(
    rows: list[list[BitPattern]], charge: Optional[Callable[[], bool]] = None
) -> Optional[tuple[DecisionTree, list[list[BitPattern]]]]:
    """`derive_decision_tree` over patterns held as masks: (tree, the rows
    with the chosen free bits made constant), or None.

    One top-down pass splits the variants and fixes free bits as it goes
    (`_build`). Where it finds no admissible split, the complete free-bit
    search runs, charging `charge` as `_resolve_free_bits` says, and the
    same pass builds the tree over its assignment; a refused charge gives
    None as well. Rows of one scalar are their own joined patterns."""
    widths = [p.width for p in rows[0]]
    one = len(widths) == 1
    joined = [row[0] for row in rows] if one else [join_patterns(row) for row in rows]
    if _inseparable_pair(joined):
        return None
    tree = _build(joined, widths)
    if tree is None:
        if not _resolve_free_bits(joined, charge):
            return None
        tree = _build(joined, widths)
        assert tree is not None, "no admissible split despite resolved free bits"
    return tree, [[p] for p in joined] if one else [_split(row, widths) for row in joined]


def _lowest(mask: int, k: int) -> int:
    """The lowest `k` set bits of `mask` (all of them when it has fewer)."""
    out = 0
    for _ in range(k):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


def _build(rows: list[BitPattern], widths: list[int]) -> Optional[DecisionTree]:
    """A tree separating `rows` (joined patterns), built top down, fixing
    in `rows` the free bits it routes; None, leaving `rows` as they were,
    when some node has no admissible split.

    At each node the untested positions fall into columns, positions of
    one scalar that look the same in every live member, and only the
    lowest position of each column is tried. A member goes where its
    constant sends it, to both sides where it holds a field, and where it
    is free, to whichever side balances the split; a 1 goes only to a
    member that it costs nothing, and members holding fields take 0 first.
    A member with no other untested position left where it can differ must
    end up alone on its side, and takes a 1 at any cost if it must. A split
    is admissible when each side is smaller than the node; the chosen one
    has the smallest larger side, then the fewest members on both sides,
    then the lowest position.

    A set of members is an int with bit m set for row m, so ascending bit
    order is row order. Each tried position keeps three member sets, its
    constant, constant-one and field rows, built on first use from the
    marked rows (those holding a constant or field bit) and updated when a
    node fixes the position; a route is then a few mask operations and
    popcounts, and its `take` members routed to 1 are the lowest free
    field-less members, then the free members holding fields that a 1 costs
    nothing, in row order. Only the marked rows keep masks of their own as
    they are fixed, and only they are walked for cuts and lone members. An
    unmarked row gets a constant only at the position of a node it is live
    in, and is live only below that node, where the position is tested: so
    it cuts no column, it is lone only where one position is left, and its
    fixed bits are written back from the position sets once a tree is
    found.

    A plain node, whose k members hold no field bit anywhere and no
    constant at an untested position, is split in closed form, with no
    columns or routes. Under the rule above its columns are whole scalars,
    every member is free at each column's lowest position, and a 1 costs
    a member without fields nothing. With two or more positions left no
    member is lone, so every route sends the first ⌊k/2⌋ members to 1, a
    larger side of ⌈k/2⌉ < k with none duplicated, and the lowest untested
    position wins. With one position left every member is lone there: the
    first member alone on the 0 side leaves k - 1 on the 1 side, alone on
    the 1 side it leaves k - 1 on the 0 side, so only two members split,
    the first taking 0. With more, or no position left, there is no tree.
    Every node under a plain node is plain."""
    scalars = []  # (first position, mask) per scalar
    scalar_at: list[int] = []  # scalar index per position
    lo = 0
    for s, w in enumerate(widths):
        scalars.append((lo, ((1 << w) - 1) << lo))
        scalar_at += [s] * w
        lo += w
    full = (1 << lo) - 1
    # the rows as masks, kept as fixed for marked rows, written back once a
    # tree is found
    const = [p.const for p in rows]
    ones = [p.ones for p in rows]
    field = [p.field for p in rows]
    marked_rows = [m for m, p in enumerate(rows) if p.const | p.field]
    marked = sum(1 << m for m in marked_rows)
    fields = sum(1 << m for m, p in enumerate(rows) if p.field)
    at: dict[int, list[int]] = {}  # bit -> [constant, constant-one, field] members

    def members_at(bit: int) -> list[int]:
        sets = at.get(bit)
        if sets is None:
            c = o = f = 0
            for m in marked_rows:
                if const[m] & bit:
                    c |= 1 << m
                    if ones[m] & bit:
                        o |= 1 << m
                elif field[m] & bit:
                    f |= 1 << m
            sets = at[bit] = [c, o, f]
        return sets

    def cheap_one(m: int, bit: int) -> bool:
        """Whether a 1 at `bit` leaves the access cost of member `m` unchanged:
        its field at offset 0 of that scalar, if any, has set bits above it."""
        lo, mask = scalars[scalar_at[bit.bit_length() - 1]]
        here = (field[m] & mask) >> lo
        run = (here ^ (here + 1)).bit_length() - 1  # the offset-0 field run
        return not here & 1 or bool(((ones[m] | field[m]) & mask) >> lo >> run)

    def route(live: int, k: int, bit: int, lone: int) -> Optional[tuple]:
        """(key, the free members routed to 1) of the best routing of the
        `k` members `live` at `bit`, or None when no routing there is
        admissible. `lone` holds the members whose last usable position is
        `bit`."""
        c, o, f = members_at(bit)
        c, o, f = c & live, o & live, f & live
        free = live & ~(c | f)
        const_ones, dup, n_free = o.bit_count(), f.bit_count(), free.bit_count()
        const_zeros = c.bit_count() - const_ones
        if not lone:
            take = (const_zeros + n_free - const_ones) // 2
            to_one = 0
            if take > 0:
                # field-less members first, then those a 1 costs nothing
                plain = free & ~fields
                to_one = _lowest(plain, take)
                short, held = take - plain.bit_count(), free & fields
                while short > 0 and held:
                    m = held & -held
                    held ^= m
                    if cheap_one(m.bit_length() - 1, bit):
                        to_one |= m
                        short -= 1
            n_one = to_one.bit_count()
            larger = max(const_zeros + dup + n_free - n_one, const_ones + dup + n_one)
            return ((larger, dup, bit), to_one) if larger < k else None
        # the first lone member alone on the zero side, or on the one side;
        # every lone member must end up alone on its side
        first = lone & -lone
        for to_one in (free & ~first, 0 if c & first else first):
            n_one = to_one.bit_count()
            zero_n = const_zeros + dup + n_free - n_one
            one_n = const_ones + dup + n_one
            larger = max(zero_n, one_n)
            up = o | to_one
            if larger >= k or (lone & up and one_n != 1) or (lone & ~up and zero_n != 1):
                continue
            held = to_one & fields & ~lone
            while held:
                m = held & -held
                held ^= m
                if not cheap_one(m.bit_length() - 1, bit):
                    break
            else:
                return (larger, dup, bit), to_one
        return None

    def fix(live: int, bit: int, to_one: int) -> None:
        """Make the free members of `live` constant at `bit`, 1 in `to_one`."""
        sets = members_at(bit)
        c, o, f = sets
        free = live & ~(c | f)
        sets[0], sets[1] = c | free, o | to_one
        walk = free & marked
        while walk:
            low = walk & -walk
            walk ^= low
            m = low.bit_length() - 1
            const[m] |= bit
            if to_one & low:
                ones[m] |= bit

    def plain_tree(live: int, k: int, avail: int) -> Optional[DecisionTree]:
        """The subtree over a plain node's `k` members `live`, with the
        positions `avail` untested; every node under it is plain too."""
        if k == 1:
            return Leaf(live.bit_length() - 1)
        half = k // 2
        if avail & (avail - 1):
            bit, to_one = avail & -avail, _lowest(live, half)
        elif avail and k == 2:
            bit, to_one = avail, live & (live - 1)
        else:
            return None
        fix(live, bit, to_one)
        avail ^= bit
        zero = plain_tree(live ^ to_one, k - half, avail)
        one = plain_tree(to_one, half, avail) if zero is not None else None
        if one is None:
            return None
        s = scalar_at[bit.bit_length() - 1]
        return Node(s, bit.bit_length() - 1 - scalars[s][0], zero, one)

    def node(live: int, used: int) -> Optional[DecisionTree]:
        """The subtree over the members `live`, with the positions `used`
        tested."""
        if not live & (live - 1):
            return Leaf(live.bit_length() - 1)
        k = live.bit_count()
        avail = full & ~used
        # among the untested positions, each marked member's constants and
        # fields, its ones and its fields cut the columns into its four
        # kinds of position; a cut made twice changes nothing
        cuts = set()
        lone: dict[int, int] = {}
        walk = live & marked
        while walk:
            low = walk & -walk
            walk ^= low
            m = low.bit_length() - 1
            fixed = (const[m] | field[m]) & avail
            if fixed:
                cuts.update((fixed, ones[m] & avail, field[m] & avail))
            left = avail & ~field[m]
            if not left & (left - 1):
                lone[left] = lone.get(left, 0) | low
        if not cuts and not live & fields:
            return plain_tree(live, k, avail)
        if not avail & (avail - 1):  # unmarked members are lone there too
            lone[avail] = lone.get(avail, 0) | (live & ~marked)
        columns = [c for c in (mask & avail for _, mask in scalars) if c]
        for cut in cuts:
            if cut:
                columns = [c for col in columns for c in (col & cut, col & ~cut) if c]
        best = None
        for col in columns:
            bit = col & -col
            found = route(live, k, bit, lone.get(bit, 0))
            if found is not None and (best is None or found[0] < best[0]):
                best = found
        if best is None:
            return None
        (_, _, bit), to_one = best
        _, o, f = members_at(bit)
        up, both = o & live | to_one, f & live
        fix(live, bit, to_one)
        zero = node(live & ~up, used | bit)
        one = node(up | both, used | bit) if zero is not None else None
        if one is None:
            return None
        s = scalar_at[bit.bit_length() - 1]
        return Node(s, bit.bit_length() - 1 - scalars[s][0], zero, one)

    tree = node((1 << len(rows)) - 1, 0)
    if tree is not None:
        for bit, (c, o, _) in at.items():
            for masks, members in ((const, c), (ones, o)):
                members &= ~marked
                while members:
                    low = members & -members
                    members ^= low
                    masks[low.bit_length() - 1] |= bit
        rows[:] = [BitPattern(p.width, c, o, p.field) for p, c, o in zip(rows, const, ones)]
    return tree


def shared_free_run(rows: list[list[BitPattern]], s: int, width: int) -> Optional[int]:
    """LSB offset of the lowest run of `width` bits of scalar `s` that is free
    in every variant, or None."""
    runs = -1
    for row in rows:
        runs &= row[s].free
    for _ in range(width - 1):
        runs &= runs >> 1
    return (runs & -runs).bit_length() - 1 if runs else None


def tag_width_for(n_variants: int) -> int:
    """The bits that number `n_variants` variants: ceil(log2 n), or 0."""
    return max(0, n_variants - 1).bit_length()
