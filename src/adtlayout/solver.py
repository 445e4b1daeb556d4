"""Joint scalar and interval assignment for unboxed ADTs.

The solver backtracks over assignments of search items to scalar slots.
Each item is a unit: fields at fixed offsets from its LSB plus constant and
wildcard bits; a plain field is a unit of one field, a #solve item a unit
of its own. One routine places a unit in a slot, at the offset its #packing
pins or else at the lowest offset where it fits, so fields never split
across scalars. Scoring is lexicographic: fewer scalars first, then summed
access cost plus the dedicated-tag penalty. Two exact prunings keep the
search small: equal fields of a variant are tried in one order only, and a
node is cut when a lower bound on its completions' cost, which counts the
offset-0 positions left to each variant, cannot beat the best layout.

Patterns are `distinguish.BitPattern` mask values, one per variant and
scalar; a solution's patterns have every free bit made constant 0, and its
`pretag_patterns` keep them free. During the search each slot keeps, per
variant, masks of constant bits, of their one bits and of annotation
wildcards: bits that may hold tag bits or chosen constants but never field
data.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield, replace
from typing import Optional, Union

from . import distinguish
from .distinguish import (
    BitPattern,
    DecisionTree,
    print_pattern,
    shared_free_run,
    tag_width_for,
    tree_depth,
)
from .flatten import AnnotationEntry, FlattenedPacking
from .targets import (
    REF_NONE,
    REF_PLAIN,
    REF_TAGGED_WORD,
    FieldSlot,
    KindSet,
    MonoAdt,
    MonoVariant,
    ScalarKind,
    Target,
)

_KIND_PREFERENCE = [
    ScalarKind.B32,
    ScalarKind.B64,
    ScalarKind.F32,
    ScalarKind.F64,
    ScalarKind.R32,
    ScalarKind.R64,
    ScalarKind.REF,
]


class AnnotationInfeasible(Exception):
    def __init__(self, adt_name: str, fields: list[str], detail: str = ""):
        msg = f"packing annotation on {adt_name} admits no layout"
        if fields:
            msg += ": conflicting fields " + ", ".join(sorted(set(fields)))
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.fields = sorted(set(fields))


# ---------------------------------------------------------------------------
# Solution model


@dataclass(frozen=True)
class Score:
    num_scalars: int
    access_cost: int
    explicit_tag_cost: int

    def key(self) -> tuple[int, int]:
        return (self.num_scalars, self.access_cost + self.explicit_tag_cost)


@dataclass(frozen=True)
class SingleVariant:
    kind_name = "single-variant"


@dataclass(frozen=True)
class BareTag:
    slot: int
    width: int
    kind_name = "bare-tag"


@dataclass(frozen=True)
class ExplicitTag:
    slot: int
    offset: int
    width: int
    dedicated: bool
    kind_name = "explicit-tag"


@dataclass(frozen=True)
class TreeTag:
    tree: DecisionTree
    kind_name = "decision-tree"


TagScheme = Union[SingleVariant, BareTag, ExplicitTag, TreeTag]


@dataclass(frozen=True)
class ScalarSlot:
    index: int
    kind: ScalarKind
    kinds: KindSet
    width: int
    ref_bearing: bool = False
    dedicated_tag: bool = False

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "width": self.width, "ref": self.ref_bearing}


@dataclass(frozen=True)
class Placement:
    slot: int
    offset: int
    width: int  # occupied interval width; a tagged reference spans word-free bits
    field: FieldSlot


@dataclass
class LayoutSolution:
    adt: MonoAdt
    target: Target
    slots: list[ScalarSlot]
    placements: dict[tuple[int, str], Placement]  # (variant, field name)
    patterns: list[list[BitPattern]]  # [variant][slot]
    tag_scheme: TagScheme
    score: Score
    steps_used: int = 0
    # False when the step budget cut the search short, so a better layout
    # may exist; True when the search ran out of nodes to try
    finished: bool = True
    # patterns before tag placement, free bits intact; lets tagging be
    # re-derived on a finished solution
    pretag_patterns: Optional[list[list[BitPattern]]] = None

    def pattern_strings(self, variant: int) -> list[str]:
        return [print_pattern(p) for p in self.patterns[variant]]

    def used_width(self, slot_index: int) -> int:
        return max([1] + [row[slot_index].nonzero.bit_length() for row in self.patterns])

    def placement_of(self, variant: int, name: str) -> Placement:
        return self.placements[(variant, name)]

    def to_json(self) -> dict:
        variants = []
        for i, v in enumerate(self.adt.variants):
            fields = {}
            for f in v.fields:
                pl = self.placements[(i, f.name)]
                fields[f.name] = {"scalar": pl.slot, "offset": pl.offset, "width": pl.width}
            variants.append(
                {"name": v.name, "patterns": self.pattern_strings(i), "fields": fields}
            )
        scheme: dict[str, object] = {"kind": self.tag_scheme.kind_name}
        if isinstance(self.tag_scheme, (ExplicitTag, BareTag)):
            scheme["scalar"] = self.tag_scheme.slot
            scheme["width"] = self.tag_scheme.width
            scheme["offset"] = (
                self.tag_scheme.offset if isinstance(self.tag_scheme, ExplicitTag) else 0
            )
        if isinstance(self.tag_scheme, TreeTag):
            scheme["tree"] = self.tag_scheme.tree.to_json()
        return {
            "adt": self.adt.name,
            "scalars": [s.to_json() for s in self.slots],
            "variants": variants,
            "tag_scheme": scheme,
            "score": {
                "scalars": self.score.num_scalars,
                "access_cost": self.score.access_cost,
                "explicit_tag_cost": self.score.explicit_tag_cost,
            },
            "steps": self.steps_used,
        }


# ---------------------------------------------------------------------------
# Mutable search state


class _Slot:
    def __init__(
        self,
        index: int,
        width: int,
        kinds: Optional[KindSet],
        n_variants: int,
        tags: Optional[tuple[BitPattern, BitPattern]],
    ):
        self.index = index
        self.width = width
        self.kinds = kinds  # None until the first field constrains it
        # per variant: constant bits, their one bits, annotation wildcards
        # and field bits
        self.const = [0] * n_variants
        self.ones = [0] * n_variants
        self.wild = [0] * n_variants
        self.field = [0] * n_variants
        self.ref_variants: set[int] = set()
        self.tags = tags  # (reference, value) low-bit patterns, or None
        self.tagged = False

    def reserved(self, v: int) -> int:
        out = self.const[v] | self.wild[v] | self.field[v]
        if self.tagged:
            ref, value = self.tags
            out |= (ref if v in self.ref_variants else value).const
        return out

    def clashes(self, v: int, const: int, ones: int) -> bool:
        """True when a bit of `const` holds a field or a different constant."""
        return bool(const & (self.field[v] | (self.const[v] & (self.ones[v] ^ ones))))

    def add_consts(self, v: int, const: int, ones: int, wild: int = 0) -> None:
        """Make the bits of `const` constant, valued as in `ones`, and mark
        the bits of `wild` that are not constant as wildcards."""
        self.const[v] |= const
        self.ones[v] = (self.ones[v] & ~const) | ones
        self.wild[v] = (self.wild[v] | wild) & ~self.const[v]

    def add_field(self, v: int, pl: Placement) -> None:
        self.field[v] |= ((1 << pl.width) - 1) << pl.offset

    def offsets(self, v: int, unit: _Unit) -> int:
        """The offsets at which `unit` fits variant `v`, as a mask with bit i
        set for offset i: its field bits meet no reserved bit, its wildcards
        no field bit, and its constants no field bit and no constant of the
        other value."""
        room = self.width - unit.pattern.width
        if room < 0:
            return 0
        blocked = _overlaps(self.reserved(v), unit.field_runs)
        if unit.other_runs is not None:
            wild_runs, one_runs, zero_runs = unit.other_runs
            field, const = self.field[v], self.const[v]
            ones = self.ones[v] & const
            blocked |= (
                _overlaps(field, wild_runs)
                | _overlaps(field | (const & ~ones), one_runs)
                | _overlaps(field | ones, zero_runs)
            )
        return ~blocked & ((2 << room) - 1)


def _runs(bits: int) -> tuple[tuple[int, int], ...]:
    """The (lsb, length) of each run of set bits, from the LSB."""
    out = []
    while bits:
        low = (bits & -bits).bit_length() - 1
        run = bits >> low
        n = (run ^ (run + 1)).bit_length() - 1
        out.append((low, n))
        bits ^= ((1 << n) - 1) << low
    return tuple(out)


def _overlaps(mask: int, runs: tuple[tuple[int, int], ...]) -> int:
    """The offsets, as a mask, at which bits in `runs` shifted left meet
    `mask`: the OR of `mask >> b` over the bits b, by doubling shifts."""
    out = 0
    for low, n in runs:
        smear, covered = mask, 1
        while covered * 2 <= n:
            smear |= smear >> covered
            covered *= 2
        if covered < n:
            smear |= smear >> (n - covered)
        out |= smear >> low
    return out


@dataclass
class _Undo:
    """What one placement can change, as it was before: the slot's kinds and
    tagging, the variant's masks and reference membership, and the state's
    shift cost; plus the placements it added."""

    slot: _Slot
    variant: int
    kinds: Optional[KindSet]
    masks: tuple[int, int, int, int]
    is_ref: bool
    tagged: bool
    shift_cost: int
    placements: list[Placement] = dfield(default_factory=list)


@dataclass
class _Unit:
    """One search item, placed contiguously in one slot: fields at fixed
    relative offsets plus constant and wildcard bits. A #solve item may
    hold several fields or none; a plain field is a unit of its own."""

    fields: tuple[tuple[int, FieldSlot], ...]  # (relative offset, field)
    pattern: BitPattern  # its free bits are wildcards
    kinds: KindSet
    ref: Optional[FieldSlot] = None  # the field, when a lone reference

    def __post_init__(self):
        # what the offset search shifts: the runs of the pattern's field
        # bits, and of its wildcards, constant ones and constant zeros, or
        # None when it has neither wildcards nor constants
        p = self.pattern
        self.field_runs = _runs(p.field)
        self.other_runs = (
            (_runs(p.free), _runs(p.ones), _runs(p.const & ~p.ones))
            if p.const or p.free else None
        )

    @staticmethod
    def of(f: FieldSlot) -> _Unit:
        return _Unit(
            ((0, f),),
            BitPattern(f.width, field=(1 << f.width) - 1),
            f.kinds,
            None if f.ref_mode == REF_NONE else f,
        )

    def names(self) -> list[str]:
        return [f.name for _, f in self.fields]


class _State:
    def __init__(self, adt: MonoAdt, target: Target):
        self.adt = adt
        self.target = target
        self.n = len(adt.variants)
        self.slots: list[_Slot] = []
        self.placements: dict[tuple[int, str], Placement] = {}
        self.steps = 0
        self.shift_cost = 0  # 2 per shifted placement; a completion lower bound
        tagging = target.ref_tagging
        self.tags = None if tagging is None else (tagging.ref_pattern, tagging.value_pattern)

    def new_slot(self, width: int, kinds: Optional[KindSet]) -> _Slot:
        s = _Slot(len(self.slots), width, kinds, self.n, self.tags)
        self.slots.append(s)
        return s

    def pop_slot(self, s: _Slot) -> None:
        assert self.slots[-1] is s
        self.slots.pop()

    def place(
        self, v: int, unit: _Unit, slot: _Slot, offset: Optional[int] = None
    ) -> Optional[_Undo]:
        """Place `unit` for variant `v` in `slot`, at `offset` when given and
        else at the lowest offset where it fits. A lone reference goes where
        the target's tagging puts references, whatever `offset` says. Returns
        how to undo it, or None when it does not fit."""
        if slot.kinds is None:
            new_kinds = unit.kinds
            if self.target.kind_width(new_kinds) != slot.width:
                return None
        else:
            new_kinds = slot.kinds & unit.kinds
            if not new_kinds:
                return None
        masks = (slot.const[v], slot.ones[v], slot.wild[v], slot.field[v])
        undo = _Undo(
            slot, v, slot.kinds, masks, v in slot.ref_variants, slot.tagged, self.shift_cost
        )
        if unit.ref is not None:
            # the tagging fixes a reference's offset and width
            placed = self._place_ref(slot, v, unit.ref)
            if placed is None:
                return None
            offset, ref_width = placed
        else:
            if slot.ref_variants and self.tags is None:
                return None  # a reference-only scalar
            fits = slot.offsets(v, unit)
            if offset is not None:
                fits &= 1 << offset
            if not fits:
                return None
            offset, ref_width = (fits & -fits).bit_length() - 1, None
            if unit.other_runs is not None:
                p = unit.pattern
                slot.add_consts(v, p.const << offset, p.ones << offset, p.free << offset)
        for rel, f in unit.fields:
            pl = Placement(slot.index, offset + rel, ref_width or f.width, f)
            slot.add_field(v, pl)
            self.placements[(v, f.name)] = pl
            undo.placements.append(pl)
            if pl.offset > 0:
                self.shift_cost += 2
        slot.kinds = new_kinds
        return undo

    def _place_ref(self, slot: _Slot, v: int, f: FieldSlot) -> Optional[tuple[int, int]]:
        tagging = self.target.ref_tagging
        if v in slot.ref_variants or f.width != slot.width:
            return None
        if tagging is None:
            if f.ref_mode == REF_TAGGED_WORD:
                return None  # mixed words need tagged pointers
            # a reference-only scalar: no constants, wildcards or fields
            # outside the variants that already hold a reference here
            if any(slot.const) or any(slot.wild) or any(
                m for w, m in enumerate(slot.field) if w not in slot.ref_variants
            ):
                return None
            slot.ref_variants.add(v)
            return (0, slot.width)
        ref, value = self.tags
        free = tagging.free_low_bits
        if f.ref_mode == REF_TAGGED_WORD:
            offset, width = 0, slot.width
        else:
            offset, width = free, slot.width - free
        if slot.reserved(v) & (((1 << width) - 1) << offset):
            return None
        if f.ref_mode == REF_PLAIN and slot.clashes(v, ref.const, ref.ones):
            return None
        # other variants' content must stay value-tagged
        for w in range(self.n):
            if w == v or w in slot.ref_variants:
                continue
            if slot.clashes(w, value.const, value.ones):
                return None
        slot.tagged = True
        slot.ref_variants.add(v)
        if f.ref_mode == REF_PLAIN:
            slot.add_consts(v, ref.const, ref.ones)
        return (offset, width)

    def cost_bound(self, plain_left: list[int]) -> int:
        """A lower bound on the cost part of the score key of every completion
        of this state that opens no further scalar: 2 per shifted placement,
        1 per placement at offset 0 with a field bit or constant one of its
        variant above it, and 2 per plain field of a variant still to place
        (`plain_left`, per variant) beyond the scalars whose bit 0 that
        variant leaves free: two of a variant's fields cannot both sit at
        offset 0 of one scalar."""
        bound = self.shift_cost
        for (v, _), pl in self.placements.items():
            if pl.offset == 0:
                s = self.slots[pl.slot]
                if (s.field[v] | s.ones[v]) >> pl.width:
                    bound += 1
        for v, left in enumerate(plain_left):
            if left:
                free = sum(1 for s in self.slots if not s.reserved(v) & 1)
                bound += 2 * max(0, left - free)
        return bound

    def unplace(self, undo: _Undo) -> None:
        slot = undo.slot
        v = undo.variant
        for pl in undo.placements:
            del self.placements[(v, pl.field.name)]
        slot.kinds = undo.kinds
        slot.const[v], slot.ones[v], slot.wild[v], slot.field[v] = undo.masks
        if not undo.is_ref:
            slot.ref_variants.discard(v)
        slot.tagged = undo.tagged
        self.shift_cost = undo.shift_cost

    # -- pattern assembly --

    def build_patterns(self) -> list[list[BitPattern]]:
        out: list[list[BitPattern]] = []
        for v in range(self.n):
            row: list[BitPattern] = []
            for slot in self.slots:
                if slot.ref_variants and self.tags is None:
                    # reference-only scalar: opaque pointer or null
                    full = (1 << slot.width) - 1
                    if v in slot.ref_variants:
                        row.append(BitPattern(slot.width, field=full))
                    else:
                        row.append(BitPattern(slot.width, const=full))
                    continue
                p = BitPattern(slot.width, slot.const[v], slot.ones[v], slot.field[v])
                if slot.tagged and v not in slot.ref_variants:
                    value = self.tags[1]
                    p = p.fix(value.const, value.ones)
                row.append(p)
            out.append(row)
        return out


# ---------------------------------------------------------------------------
# Completion and scoring


def _pick_kind(kinds: Optional[KindSet], ref_bearing: bool, target: Target) -> ScalarKind:
    if kinds is None:
        kinds = target.kinds_for_int(32)
    order = [k for k in _KIND_PREFERENCE if k in kinds]
    if ref_bearing:
        refs = [k for k in order if k.ref_capable]
        if refs:
            return refs[0]
    return order[0]


def _freeze_slots(state: _State) -> list[ScalarSlot]:
    return [
        ScalarSlot(
            index=s.index,
            kind=_pick_kind(s.kinds, bool(s.ref_variants), state.target),
            kinds=s.kinds if s.kinds is not None else state.target.kinds_for_int(32),
            width=s.width,
            ref_bearing=bool(s.ref_variants),
        )
        for s in state.slots
    ]


def _dedicated(scheme: TagScheme) -> bool:
    """True when the scheme keeps the tag in a scalar of its own."""
    return isinstance(scheme, BareTag) or (
        isinstance(scheme, ExplicitTag) and scheme.dedicated
    )


def _access_cost(
    placements: dict[tuple[int, str], Placement],
    patterns: list[list[BitPattern]],
    scheme: TagScheme,
) -> int:
    """Summed access cost: 2 for each field or tag at a shifted offset, 1 for
    each at offset 0 with bits set above it in its scalar (for a tag, in any
    variant), and 2 per decision-tree level. A bit counts as set when it is a
    constant one or a field bit, so free bits read as 0 and the patterns may
    be taken before or after their free bits are fixed."""
    access = 0
    for (v, _), pl in placements.items():
        if pl.offset > 0:
            access += 2
        else:
            p = patterns[v][pl.slot]
            if (p.ones | p.field) >> pl.width:
                access += 1
    if isinstance(scheme, (ExplicitTag, BareTag)):
        if isinstance(scheme, ExplicitTag) and scheme.offset > 0:
            access += 2
        elif any((row[scheme.slot].ones | row[scheme.slot].field) >> scheme.width
                 for row in patterns):
            access += 1
    elif isinstance(scheme, TreeTag):
        access += 2 * tree_depth(scheme.tree)
    return access


def score_layout(sol: LayoutSolution, target: Target) -> Score:
    access = _access_cost(sol.placements, sol.patterns, sol.tag_scheme)
    explicit = 1 if any(s.dedicated_tag for s in sol.slots) else 0
    return Score(len(sol.slots), access, explicit)


def _tag_in_place(rows: list[list[BitPattern]], s: int, offset: int, width: int):
    """Explicit tagging that writes the variant index into `width` bits of
    scalar `s` at `offset`: (patterns, scheme)."""
    mask = ((1 << width) - 1) << offset
    tagged = [
        row[:s] + [row[s].fix(mask, v << offset)] + row[s + 1 :] for v, row in enumerate(rows)
    ]
    return tagged, ExplicitTag(s, offset, width, dedicated=False)


def _tag_appended(rows: list[list[BitPattern]], width: int):
    """Explicit tagging in a fresh minimal-width integer scalar appended to
    each row: (patterns, scheme)."""
    full = (1 << width) - 1
    tagged = [row + [BitPattern(width, full, v & full)] for v, row in enumerate(rows)]
    return tagged, ExplicitTag(len(rows[0]), 0, width, dedicated=True)


def _solution(adt, target, placements, steps, base, slots, patterns, scheme) -> LayoutSolution:
    """A scored solution over the data scalars `slots`, plus the tag scalar
    when `scheme` is dedicated. Its free bits are made constant 0, and `base`
    is kept as its pre-tag patterns."""
    if _dedicated(scheme):
        kinds = target.kinds_for_int(scheme.width)
        slots = slots + [
            ScalarSlot(
                index=len(slots),
                kind=_pick_kind(kinds, False, target),
                kinds=kinds,
                width=scheme.width,
                dedicated_tag=True,
            )
        ]
    sol = LayoutSolution(
        adt=adt,
        target=target,
        slots=slots,
        placements=dict(placements),
        patterns=[[p.fix(p.free, 0) for p in row] for row in patterns],
        tag_scheme=scheme,
        score=Score(0, 0, 0),
        steps_used=steps,
        pretag_patterns=base,
    )
    sol.score = score_layout(sol, target)
    return sol


# a tagging completion: (score key, patterns, scheme)
Candidate = tuple[tuple[int, int], list[list[BitPattern]], TagScheme]


def _candidates(
    state: _State, best_key=None
) -> tuple[list[list[BitPattern]], list[Candidate]]:
    """The pre-tag patterns of a fully-assigned state and its tagging
    completions, each with its score key, ordered by preference: in-place
    explicit tag, decision tree, appended tag scalar. Candidates provably
    unable to beat `best_key` may be omitted."""
    n = state.n
    base = state.build_patterns()
    results: list[Candidate] = []

    def add(patterns: list[list[BitPattern]], scheme: TagScheme) -> None:
        access = _access_cost(state.placements, patterns, scheme)
        key = (len(patterns[0]), access + _dedicated(scheme))
        results.append((key, patterns, scheme))

    if n == 1:
        add(base, SingleVariant())
        return base, results

    tw = tag_width_for(n)
    if not state.slots:
        # all variants nullary: a single bare tag integer
        add(_tag_appended(base, tw)[0], BareTag(0, tw))
        return base, results

    for s in range(len(state.slots)):
        found = shared_free_run(base, s, tw)
        if found is not None:
            add(*_tag_in_place(base, s, found, tw))

    # A classification tree costs at least 2 per level and needs ceil(log2 n)
    # levels. With two variants any shared free bit already admits an
    # in-place 1-bit tag at the same position with identical masking and
    # cost 2 <= 2*depth, so a tree is dominated whenever one was found.
    tree_bound = (len(state.slots), state.shift_cost + 2 * tw)
    have = min(
        [key for key, _, _ in results] + ([best_key] if best_key is not None else []),
        default=None,
    )
    dominated = (n == 2 and results) or (have is not None and have <= tree_bound)
    if not dominated:
        derived = distinguish.derive_tree(base)
        if derived is not None:
            tree, resolved = derived
            add(resolved, TreeTag(tree))

    # an appended tag costs an extra scalar, so any same-slot-count candidate
    # beats it; build it only as the fallback
    appended_bound = (len(state.slots) + 1, state.shift_cost + 1)
    if not results and (best_key is None or best_key > appended_bound):
        add(*_tag_appended(base, tw))
    return base, results


def _complete(state: _State, best_key=None) -> Optional[LayoutSolution]:
    """The solution for the first candidate with the smallest key, or None
    when no candidate's key is below `best_key`. Only that candidate is
    built; the others are judged by key alone."""
    base, results = _candidates(state, best_key)
    pick: Optional[Candidate] = None
    for cand in results:
        if best_key is None or cand[0] < best_key:
            best_key, pick = cand[0], cand
    if pick is None:
        return None
    _, patterns, scheme = pick
    return _solution(
        state.adt, state.target, state.placements, state.steps, base,
        _freeze_slots(state), patterns, scheme,
    )


def place_explicit_tag(sol: LayoutSolution) -> LayoutSolution:
    """Re-derive explicit tagging on a finished layout: the variant index is
    written into the first aligned run of bits unassigned in every variant,
    or into a fresh minimal-width integer scalar when no shared run exists.
    Single-variant solutions come back unchanged."""
    n = len(sol.adt.variants)
    if n <= 1:
        assert isinstance(sol.tag_scheme, SingleVariant)
        return sol
    tw = tag_width_for(n)
    base = sol.pretag_patterns
    assert base is not None, "solution lacks pre-tag patterns"
    data_slots = [s for s in sol.slots if not s.dedicated_tag]
    for s in range(len(data_slots)):
        found = shared_free_run(base, s, tw)
        if found is not None:
            tagged = _tag_in_place(base, s, found, tw)
            break
    else:
        tagged = _tag_appended(base, tw)
    again = _solution(
        sol.adt, sol.target, sol.placements, sol.steps_used, base, data_slots, *tagged
    )
    again.finished = sol.finished
    return again


# ---------------------------------------------------------------------------
# Annotation preprocessing


def _annotation_width_class(target: Target, pattern_width: int) -> int:
    if pattern_width <= 32 and target.kind_width(target.kinds_for_int(32)) == 32:
        return 32
    return 64


def _apply_annotations(state: _State) -> list[tuple[int, int, _Unit]]:
    """Open a slot per #packing entry, write the entries' constants and
    wildcards, and place the fields they pin. Returns the #solve units as
    (variant, slot index, unit)."""
    adt = state.adt
    units: list[tuple[int, int, _Unit]] = []
    if adt.packing is None:
        return units
    pins: dict[tuple[int, str], tuple[int, int]] = {}  # field -> (slot, offset)
    n_entries = max(
        (len(entries) for entries in adt.packing if entries is not None), default=0
    )
    widths = [32] * n_entries
    for entries in adt.packing:
        if entries is None:
            continue
        for j, e in enumerate(entries):
            w = e.width if isinstance(e, FlattenedPacking) else e.min_width
            widths[j] = max(widths[j], _annotation_width_class(state.target, w))
    for j in range(n_entries):
        state.new_slot(widths[j], None)
    for v, entries in enumerate(adt.packing):
        if entries is None:
            continue
        variant = adt.variants[v]
        for j, entry in enumerate(entries):
            slot = state.slots[j]
            if isinstance(entry, FlattenedPacking):
                if entry.width > slot.width:
                    raise AnnotationInfeasible(
                        adt.name, list(entry.assignments), "pattern wider than any scalar"
                    )
                p = entry.pattern
                slot.add_consts(v, p.const, p.ones, p.free)
                for fname, off in entry.assignments.items():
                    pins[(v, fname)] = (j, off)
            else:
                for item in entry.items:
                    fields = [(rel, variant.field_named(name)) for name, rel in item.assignments.items()]
                    kinds = None if fields else state.target.kinds_for_int(32)
                    for _, f in fields:
                        if f.ref_mode != REF_NONE:
                            raise AnnotationInfeasible(
                                adt.name, [f.name], "reference fields cannot be packed by #solve"
                            )
                        kinds = f.kinds if kinds is None else (kinds & f.kinds)
                    if not kinds:
                        raise AnnotationInfeasible(
                            adt.name, list(item.assignments), "no common scalar kind"
                        )
                    fields.sort(key=lambda rf: rf[0])
                    units.append((v, j, _Unit(tuple(fields), item.pattern, kinds)))
    for i, variant in enumerate(adt.variants):
        for f in variant.fields:
            pin = pins.get((i, f.name))
            if pin is None:
                continue
            j, off = pin
            if state.place(i, _Unit.of(f), state.slots[j], off) is None:
                raise AnnotationInfeasible(adt.name, [f.name], f"pinned at scalar {j} bit {off}")
    return units


# ---------------------------------------------------------------------------
# Entry points


def trivial_layout(adt: MonoAdt, target: Target) -> LayoutSolution:
    """One scalar per field per variant plus a dedicated tag scalar (for
    more than one variant). Fallback and score baseline; ignores packings."""
    bare = replace(adt, packing=None)
    state = _State(bare, target)
    for i, variant in enumerate(bare.variants):
        for f in variant.fields:
            slot = state.new_slot(target.kind_width(f.kinds), None)
            undo = state.place(i, _Unit.of(f), slot)
            assert undo is not None, f"trivial placement failed for {f.name}"
    base = state.build_patterns()
    if state.n == 1:
        patterns, scheme = base, SingleVariant()
    else:
        patterns, scheme = _tag_appended(base, tag_width_for(state.n))
        if not state.slots:
            scheme = BareTag(0, scheme.width)
    return _solution(
        bare, target, state.placements, state.steps, base, _freeze_slots(state),
        patterns, scheme,
    )


def solve_layout(adt: MonoAdt, target: Target, budget: int = 10_000) -> LayoutSolution:
    """Best-scoring layout found within the step budget.

    Deterministic in (adt, target, budget). Unannotated ADTs always have a
    solution (the trivial layout is admissible in any budget); an annotated
    ADT with no feasible completion raises AnnotationInfeasible.
    """
    state = _State(adt, target)
    units = _apply_annotations(state)

    best: Optional[LayoutSolution] = None
    if adt.packing is None:
        best = trivial_layout(adt, target)

    # search items: variants in declaration order, widths descending, and
    # at equal width the #solve units (they are slot-restricted) first, then
    # the free fields in declaration order
    in_units = {(v, name) for v, _, unit in units for name in unit.names()}
    items: list[tuple[int, _Unit, Optional[int]]] = []
    for i, variant in enumerate(adt.variants):
        per_variant = [(unit, j) for v, j, unit in units if v == i] + [
            (_Unit.of(f), None) for f in variant.fields
            if (i, f.name) not in state.placements and (i, f.name) not in in_units
        ]
        per_variant.sort(key=lambda uj: -uj[0].pattern.width)  # stable
        items.extend((i, unit, j) for unit, j in per_variant)

    # An unrestricted plain field that equals the unrestricted plain field
    # before it (same variant, pattern and kinds) starts its slot scan at that
    # field's slot: swapping two equal fields gives the same masks, and of the
    # two orders the one with the lower slot first is searched first, so the
    # first best layout found is unchanged. follows[i] names the field that
    # item i follows, or is None.
    follows: list[Optional[str]] = [None]
    for (v0, u0, j0), (v1, u1, j1) in zip(items, items[1:]):
        plain = j0 is None and j1 is None and u0.ref is None and u1.ref is None
        same = (v0, u0.pattern, u0.kinds) == (v1, u1.pattern, u1.kinds)
        follows.append(u0.names()[0] if plain and same else None)
    # plain_left[i][v]: unrestricted plain fields of variant v in items[i:],
    # for the cost bound
    plain_left = [[0] * state.n]
    for v, unit, j in reversed(items):
        row = list(plain_left[-1])
        row[v] += j is None and unit.ref is None
        plain_left.append(row)
    plain_left.reverse()

    failures: list[str] = []

    # Depth-first over items, one frame per item being placed: [next
    # candidate slot, end of its candidates, whether any placement fit, the
    # current placement's undo, whether its slot is fresh]. An item tries
    # the existing slots in order and then a fresh one (the slot at index
    # len(state.slots)), or just its restricted slot. A node is entered only
    # when a lower bound on its completions' keys is below the best key: a
    # completion never costs less than its assignment, and with as many
    # scalars as the best only the cost part can improve.
    stack: list[list] = []
    entering = True  # at the node below the top frame's current placement
    finished = True
    while True:
        if entering:
            key = (len(state.slots), 0)
            if best is not None and key[0] == best.score.num_scalars:
                key = (key[0], state.cost_bound(plain_left[len(stack)]))
            if best is None or key < best.score.key():
                if best is not None and state.steps >= budget:
                    finished = False
                elif len(stack) < len(items):
                    v, _, restriction = items[len(stack)]
                    if restriction is None:
                        after = follows[len(stack)]
                        start = 0 if after is None else state.placements[(v, after)].slot
                        stack.append([start, len(state.slots) + 1, False, None, False])
                    else:
                        stack.append([restriction, restriction + 1, False, None, False])
                else:
                    sol = _complete(state, best.score.key() if best is not None else None)
                    if sol is not None:
                        best = sol
        if not stack:
            break
        frame = stack[-1]
        pos, end, placed_any, undo, fresh = frame
        if undo is not None:
            state.unplace(undo)
            if fresh:
                state.pop_slot(state.slots[-1])
            if best is not None and state.steps >= budget and pos < end:
                pos, finished = end, False  # the budget is spent: try no further slot
        v, unit, _ = items[len(stack) - 1]
        undo = None
        while undo is None and pos < end:
            fresh = pos == len(state.slots)
            if fresh:
                slot = state.new_slot(state.target.kind_width(unit.kinds), None)
            else:
                slot = state.slots[pos]
            pos += 1
            undo = state.place(v, unit, slot)
            if undo is None and fresh:
                state.pop_slot(slot)
        if undo is not None:
            state.steps += 1
            frame[:] = [pos, end, True, undo, fresh]
            entering = True
        else:
            if not placed_any:
                failures.extend(unit.names())
            stack.pop()
            entering = False

    if best is None:
        raise AnnotationInfeasible(
            adt.name, failures or [n for _, unit, _ in items for n in unit.names()]
        )
    best.finished = finished
    return best


def assign_intervals(
    variant_fields: list[FieldSlot],
    target: Target,
    constraints: Optional[list[AnnotationEntry]] = None,
    name: str = "variant",
) -> Optional[dict[str, tuple[int, int]]]:
    """Deterministic interval assignment for one variant: pinned fields keep
    their flattened offsets, the rest first-fit from the LSB in descending
    width order. Returns field -> (scalar index, offset), or None when a
    field does not fit."""
    adt = MonoAdt(
        name=name,
        variants=(MonoVariant("v", (), tuple(variant_fields)),),
        packing=((tuple(constraints),) if constraints else None),
    )
    state = _State(adt, target)
    try:
        units = _apply_annotations(state)
    except AnnotationInfeasible:
        return None
    for v, j, unit in units:
        if state.place(v, unit, state.slots[j]) is None:
            return None
    for f in sorted(variant_fields, key=lambda f: -f.width):
        if (0, f.name) in state.placements:
            continue
        unit = _Unit.of(f)
        if not any(state.place(0, unit, slot) for slot in state.slots):
            slot = state.new_slot(target.kind_width(f.kinds), None)
            if state.place(0, unit, slot) is None:
                return None
    return {
        name_: (pl.slot, pl.offset)
        for (_, name_), pl in sorted(state.placements.items(), key=lambda kv: kv[0][1])
    }
