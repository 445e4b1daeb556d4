"""Joint scalar and interval assignment for unboxed ADTs.

The solver backtracks over assignments of normalized fields to scalar
slots; interval placement inside a slot is deterministic first-fit from
the least-significant bit, so fields never split across scalars. Scoring
is lexicographic: fewer scalars first, then summed access cost plus the
dedicated-tag penalty.

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
    lowest_run,
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
    mixes_refs_and_bits: bool = False
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
        self.mixes = False

    def masks(self, v: int) -> tuple[int, int, int, int]:
        return (self.const[v], self.ones[v], self.wild[v], self.field[v])

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

    def first_fit(self, v: int, width: int) -> Optional[int]:
        if width > self.width:
            return None
        return lowest_run(~self.reserved(v) & ((1 << self.width) - 1), width)

    def fits_exact(self, v: int, offset: int, width: int) -> bool:
        if offset < 0 or offset + width > self.width:
            return False
        return not self.reserved(v) & (((1 << width) - 1) << offset)


@dataclass
class _Undo:
    """What one placement can change, as it was before: the slot's kinds,
    tagging and mixing, the variant's masks and reference membership, and
    the state's shift cost; plus the placements it added."""

    slot: _Slot
    variant: int
    kinds: Optional[KindSet]
    masks: tuple[int, int, int, int]
    is_ref: bool
    tagged: bool
    mixes: bool
    shift_cost: int
    placements: list[Placement] = dfield(default_factory=list)


@dataclass(frozen=True)
class _Unit:
    """One atomic block from a #solve item: sub-fields at fixed relative
    offsets plus constant and wildcard bits, placed contiguously."""

    fields: tuple[tuple[int, FieldSlot], ...]  # (relative offset, field)
    pattern: BitPattern  # its free bits are wildcards
    kinds: KindSet

    @property
    def width(self) -> int:
        return self.pattern.width

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

    def snapshot(self, slot: _Slot, v: int) -> _Undo:
        return _Undo(
            slot, v, slot.kinds, slot.masks(v), v in slot.ref_variants,
            slot.tagged, slot.mixes, self.shift_cost,
        )

    # -- single-field placement --

    def try_place(
        self, v: int, f: FieldSlot, slot: _Slot, pinned_offset: Optional[int] = None
    ) -> Optional[_Undo]:
        tagging = self.target.ref_tagging
        if slot.kinds is None:
            new_kinds = f.kinds
            if self.target.kind_width(new_kinds) != slot.width:
                return None
        else:
            new_kinds = slot.kinds & f.kinds
            if not new_kinds:
                return None
        undo = self.snapshot(slot, v)

        if f.ref_mode == REF_NONE:
            if slot.ref_variants and tagging is None:
                return None
            if pinned_offset is None:
                offset = slot.first_fit(v, f.width)
            else:
                offset = (
                    pinned_offset if slot.fits_exact(v, pinned_offset, f.width) else None
                )
            if offset is None:
                return None
            width = f.width
        else:
            placed = self._place_ref(slot, v, f, pinned_offset)
            if placed is None:
                return None
            offset, width = placed

        pl = Placement(slot.index, offset, width, f)
        slot.add_field(v, pl)
        slot.kinds = new_kinds
        self.placements[(v, f.name)] = pl
        undo.placements.append(pl)
        if offset > 0:
            self.shift_cost += 2
        return undo

    def _place_ref(
        self, slot: _Slot, v: int, f: FieldSlot, pinned: Optional[int]
    ) -> Optional[tuple[int, int]]:
        tagging = self.target.ref_tagging
        if v in slot.ref_variants:
            return None
        if f.width != slot.width:
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
            if pinned not in (None, 0):
                return None
            slot.ref_variants.add(v)
            return (0, slot.width)
        ref, value = self.tags
        free = tagging.free_low_bits
        if f.ref_mode == REF_TAGGED_WORD:
            offset, width = 0, slot.width
        else:
            offset, width = free, slot.width - free
        if pinned not in (None, 0, offset):
            return None
        if not slot.fits_exact(v, offset, width):
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
        if f.ref_mode == REF_TAGGED_WORD:
            slot.mixes = True
        slot.ref_variants.add(v)
        if f.ref_mode == REF_PLAIN:
            slot.add_consts(v, ref.const, ref.ones)
        return (offset, width)

    # -- unit placement (#solve blocks) --

    def try_place_unit(self, v: int, unit: _Unit, slot: _Slot) -> Optional[_Undo]:
        tagging = self.target.ref_tagging
        if slot.kinds is None:
            new_kinds = unit.kinds
            if self.target.kind_width(new_kinds) != slot.width:
                return None
        else:
            new_kinds = slot.kinds & unit.kinds
            if not new_kinds:
                return None
        if slot.ref_variants and tagging is None:
            return None
        up = unit.pattern
        base = None
        reserved = slot.reserved(v)
        for off in range(0, slot.width - unit.width + 1):
            if (
                not (up.field << off) & reserved
                and not (up.free << off) & slot.field[v]
                and not slot.clashes(v, up.const << off, up.ones << off)
            ):
                base = off
                break
        if base is None:
            return None
        undo = self.snapshot(slot, v)
        slot.add_consts(v, up.const << base, up.ones << base, up.free << base)
        for rel, f in unit.fields:
            pl = Placement(slot.index, base + rel, f.width, f)
            slot.add_field(v, pl)
            self.placements[(v, f.name)] = pl
            undo.placements.append(pl)
            if pl.offset > 0:
                self.shift_cost += 2
        slot.kinds = new_kinds
        return undo

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
        slot.mixes = undo.mixes
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
            mixes_refs_and_bits=s.mixes,
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
    return _solution(
        sol.adt, sol.target, sol.placements, sol.steps_used, base, data_slots, *tagged
    )


# ---------------------------------------------------------------------------
# Annotation preprocessing


def _annotation_width_class(target: Target, pattern_width: int) -> int:
    if pattern_width <= 32 and target.kind_width(target.kinds_for_int(32)) == 32:
        return 32
    return 64


@dataclass
class _Prepared:
    pins: dict[tuple[int, str], tuple[int, int]]  # field -> (slot, exact offset)
    units: list[tuple[int, int, _Unit]]  # (variant, slot index, unit)


def _apply_annotations(state: _State) -> _Prepared:
    adt = state.adt
    prepared = _Prepared(pins={}, units=[])
    if adt.packing is None:
        return prepared
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
                    prepared.pins[(v, fname)] = (j, off)
            else:
                for item in entry.items:
                    fields = []
                    kinds: Optional[KindSet] = None
                    for fname in item.assignments:
                        f = variant.field_named(fname)
                        if f.ref_mode != REF_NONE:
                            raise AnnotationInfeasible(
                                adt.name, [fname], "reference fields cannot be packed by #solve"
                            )
                        kinds = f.kinds if kinds is None else (kinds & f.kinds)
                    if kinds is not None and not kinds:
                        raise AnnotationInfeasible(
                            adt.name, list(item.assignments), "no common scalar kind"
                        )
                    for fname, rel in item.assignments.items():
                        fields.append((rel, variant.field_named(fname)))
                    fields.sort(key=lambda rf: rf[0])
                    unit = _Unit(
                        fields=tuple(fields),
                        pattern=item.pattern,
                        kinds=kinds if kinds is not None else state.target.kinds_for_int(32),
                    )
                    prepared.units.append((v, j, unit))
    return prepared


def _place_pinned(state: _State, prepared: _Prepared) -> None:
    for i, variant in enumerate(state.adt.variants):
        for f in variant.fields:
            pin = prepared.pins.get((i, f.name))
            if pin is None:
                continue
            slot_idx, off = pin
            if f.ref_mode != REF_NONE:
                undo = state.try_place(i, f, state.slots[slot_idx], pinned_offset=0)
            else:
                undo = state.try_place(i, f, state.slots[slot_idx], pinned_offset=off)
            if undo is None:
                raise AnnotationInfeasible(
                    state.adt.name, [f.name], f"pinned at scalar {slot_idx} bit {off}"
                )


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
            undo = state.try_place(i, f, slot)
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
    prepared = _apply_annotations(state)
    _place_pinned(state, prepared)

    best: Optional[LayoutSolution] = None
    if adt.packing is None:
        best = trivial_layout(adt, target)

    # search items: #solve units first (they are slot-restricted), then the
    # free fields; variants in declaration order, widths descending
    unit_field_names = {
        (v, name) for v, _, unit in prepared.units for name in unit.names()
    }
    items: list[tuple[int, object, Optional[int]]] = []
    for i, variant in enumerate(adt.variants):
        per_variant: list[tuple[int, int, object, Optional[int]]] = []
        for v, j, unit in prepared.units:
            if v == i:
                per_variant.append((unit.width, len(per_variant), unit, j))
        for k, f in enumerate(variant.fields):
            if (i, f.name) in state.placements or (i, f.name) in unit_field_names:
                continue
            per_variant.append((f.width, 100 + k, f, None))
        per_variant.sort(key=lambda t: (-t[0], t[1]))
        items.extend((i, obj, restriction) for _, _, obj, restriction in per_variant)

    failures: list[str] = []

    # Depth-first over items, one frame per item being placed: [next
    # candidate slot, end of its candidates, whether any placement fit, the
    # current placement's undo, whether its slot is fresh]. An item tries
    # the existing slots in order and then a fresh one (the slot at index
    # len(state.slots)), or just its restricted slot.
    stack: list[list] = []
    entering = True  # at the node below the top frame's current placement
    while True:
        if entering:
            key = (len(state.slots), state.shift_cost)
            if best is None or (key <= best.score.key() and state.steps < budget):
                if len(stack) < len(items):
                    restriction = items[len(stack)][2]
                    if restriction is None:
                        stack.append([0, len(state.slots) + 1, False, None, False])
                    else:
                        stack.append([restriction, restriction + 1, False, None, False])
                elif best is None or key < best.score.key():
                    # a completion never costs less than its assignment
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
            if best is not None and state.steps >= budget:
                pos = end  # the budget is spent: try no further slot
        v, obj, _ = items[len(stack) - 1]
        undo = None
        while undo is None and pos < end:
            fresh = pos == len(state.slots)
            if fresh:
                slot = state.new_slot(state.target.kind_width(obj.kinds), None)
            else:
                slot = state.slots[pos]
            pos += 1
            if isinstance(obj, _Unit):
                undo = state.try_place_unit(v, obj, slot)
            else:
                undo = state.try_place(v, obj, slot)
            if undo is None and fresh:
                state.pop_slot(slot)
        if undo is not None:
            state.steps += 1
            frame[:] = [pos, end, True, undo, fresh]
            entering = True
        else:
            if not placed_any:
                failures.extend(obj.names() if isinstance(obj, _Unit) else [obj.name])
            stack.pop()
            entering = False

    if best is None:
        raise AnnotationInfeasible(
            adt.name, failures or [n for (_, o, _) in items for n in
                                   (o.names() if isinstance(o, _Unit) else [o.name])]
        )
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
        prepared = _apply_annotations(state)
        _place_pinned(state, prepared)
    except AnnotationInfeasible:
        return None
    for v, j, unit in prepared.units:
        if state.try_place_unit(v, unit, state.slots[j]) is None:
            return None
    ranked = sorted(enumerate(variant_fields), key=lambda kv: (-kv[1].width, kv[0]))
    for _, f in ranked:
        if (0, f.name) in state.placements:
            continue
        placed = False
        for slot in state.slots:
            if state.try_place(0, f, slot) is not None:
                placed = True
                break
        if not placed:
            slot = state.new_slot(target.kind_width(f.kinds), None)
            if state.try_place(0, f, slot) is None:
                return None
    return {
        name_: (pl.slot, pl.offset)
        for (_, name_), pl in sorted(state.placements.items(), key=lambda kv: kv[0][1])
    }
