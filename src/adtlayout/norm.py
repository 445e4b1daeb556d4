"""SSA normalization: rewrites ADT operations over the boxed representation
into operations over the flattened scalar representation chosen by the
solver.

Multi-scalar values flow as separate names; only returns pack them into a
tuple, unpacked again at call sites. Allocation of an unboxed case becomes
bitwise assembly of its scalar words; equality on unboxed values becomes a
call to a generated per-ADT equality function. A field or tag read is
shifted down and masked only where a set bit of the case read (for a tag,
of any case) lies above it; a plain reference is masked in place only where
one lies outside it. `solver.read_mask` decides. Field reads follow the
`bad-case` check, and equality switches on the tag, so the scalars then hold
that case's encoding. Where a source field spreads over several normalized
fields (a tuple, an embedded unboxed ADT), field reads, default values and
generated equality take its fields as `Program.spread` walks them."""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .distinguish import Leaf, Node
from .ir import (
    BOOL,
    TAG_TYPE,
    Alloc,
    BinOp,
    Bitcast,
    Block,
    Branch,
    Call,
    Const,
    Eq,
    Function,
    GetContents,
    GetField,
    GetTag,
    IrType,
    IrTypeError,
    IsNull,
    Program,
    Project,
    ReplaceNull,
    Return,
    SExt,
    ShiftOp,
    Switch,
    TAdt,
    TInt,
    TIntRep,
    Trap,
    TTuple,
    TupleMake,
    normalized_field_type,
)
from .solver import ExplicitTag, SingleVariant, TreeTag, read_mask, tag_read_mask
from .targets import REF_PLAIN


class _NullMarker(NamedTuple):
    key: str


def _mangle(prefix: str, key: str) -> str:
    safe = "".join(ch if ch.isalnum() else "_" for ch in key)
    return f"{prefix}${safe}"


class Normalizer:
    def __init__(self, pre: Program):
        assert not pre.normalized
        self.pre = pre
        self.post = Program(
            adts=pre.adts,
            layouts=pre.layouts,
            functions={},
            target=pre.target,
            normalized=True,
        )
        self._made_helpers: set[str] = set()

    # -- program -------------------------------------------------------------

    def run(self) -> Program:
        for name in sorted(self.pre.functions):
            self.post.functions[name] = _FunctionNormalizer(self).run(self.pre.functions[name])
        return self.post

    # -- generated helpers -----------------------------------------------------

    def _helper(self, prefix: str, key: str, build) -> str:
        """The name of a generated helper, built by `build(name, key)` on
        first use; the name is taken before building, so a helper may call
        itself."""
        name = _mangle(prefix, key)
        if name not in self._made_helpers:
            self._made_helpers.add(name)
            self.post.functions[name] = build(name, key)
        return name

    def classify_fn(self, key: str) -> str:
        return self._helper("classify", key, self._build_classify)

    def equality_fn(self, key: str) -> str:
        return self._helper("eq", key, lambda name, key: _build_equality(self, name, key))

    def or_default_fn(self, key: str) -> str:
        return self._helper("rn", key, self._build_or_default)

    def _build_classify(self, name: str, key: str) -> Function:
        layout = self.pre.layouts[key]
        scheme = layout.tag_scheme
        assert isinstance(scheme, TreeTag)
        params = tuple(
            (f"s{i}", TIntRep(s.width, s.kind.value)) for i, s in enumerate(layout.slots)
        )
        w = _FunctionNormalizer(self)
        fn = Function(name, params, TAG_TYPE, "entry", w.blocks)
        bit_type = TIntRep(1, "B64")

        def emit_node(node, label: str) -> None:
            blk = w.start_block(label)
            if isinstance(node, Leaf):
                blk.term = Return(w.const(TAG_TYPE, node.variant))
                return
            assert isinstance(node, Node)
            src, src_type = params[node.scalar]
            if node.bit > 0:
                src = w.emit_typed(ShiftOp(w.fresh("sh"), "shr", src, node.bit), src_type)
            one = w.const(bit_type, 1)
            bit = w.emit_typed(BinOp(w.fresh("b"), "and", src, one), bit_type)
            cmp = w.emit_typed(Eq(w.fresh("c"), bit_type, bit, one), BOOL)
            lz, lo = f"{label}z", f"{label}o"
            blk.term = Branch(cmp, lo, lz)
            emit_node(node.zero, lz)
            emit_node(node.one, lo)

        emit_node(scheme.tree, "entry")
        return fn

    def _build_or_default(self, name: str, key: str) -> Function:
        w = _FunctionNormalizer(self)
        fn = Function(name, (("x", TAdt(key)),), TAdt(key), "entry", w.blocks)
        w.types["x"] = TAdt(key)
        entry = w.start_block("entry")
        w.emit_typed(IsNull(w.fresh("n"), "x"), BOOL)
        cond = entry.instrs[-1].dst
        entry.term = Branch(cond, "build", "keep")
        fn.blocks["keep"] = Block("keep", [], Return("x"))
        w.start_block("build")
        variant = self.pre.adts[key].variants[0]
        args = w.default_flat_args(variant)
        rec = w.emit_typed(Alloc(w.fresh("r"), key, 0, tuple(args)), TAdt(key))
        w.current.term = Return(rec)
        return fn


# ---------------------------------------------------------------------------
# Per-function rewriting


class _FunctionNormalizer:
    """Emits post-normalization code into `blocks`: a normalized copy of a
    function through `run`, or a generated helper block by block."""

    def __init__(self, ctx: Normalizer):
        self.ctx = ctx
        self.env: dict[str, list[str] | _NullMarker] = {}
        self.types: dict[str, IrType] = {}  # post types of post names
        self.tmp = 0
        self.blocks: dict[str, Block] = {}
        self.current: Optional[Block] = None

    def fresh(self, hint: str = "t") -> str:
        self.tmp += 1
        return f"_{hint}{self.tmp}"

    def emit(self, ins) -> None:
        assert self.current is not None
        self.current.instrs.append(ins)

    def emit_typed(self, ins, t: IrType) -> str:
        self.emit(ins)
        self.types[ins.dst] = t
        return ins.dst

    def const(self, t: IrType, value) -> str:
        return self.emit_typed(Const(self.fresh("k"), t, value), t)

    def start_block(self, label: str) -> Block:
        blk = Block(label)
        self.blocks[label] = blk
        self.current = blk
        return blk

    def split_for_check(self, cond: str, trap_kind: str) -> None:
        """End the current block with: if cond continue else trap."""
        assert self.current is not None
        cont = f"{self.current.label}.c{self.tmp}"
        trap = f"{self.current.label}.x{self.tmp}"
        self.tmp += 1
        self.current.term = Branch(cond, cont, trap)
        self.blocks[trap] = Block(trap, [], Trap(trap_kind))
        self.start_block(cont)

    # -- top level -----------------------------------------------------------

    def run(self, pre: Function) -> Function:
        ctx = self.ctx
        params: list[tuple[str, IrType]] = []
        for name, t in pre.params:
            leaves = ctx.pre.expand(t)
            names = self.expanded_names(name, len(leaves))
            self.env[name] = names
            for n, lt in zip(names, leaves):
                params.append((n, lt))
                self.types[n] = lt
        ret_leaves = ctx.pre.expand(pre.ret)
        if len(ret_leaves) == 1:
            post_ret = ret_leaves[0]
        else:
            post_ret = TTuple(tuple(ret_leaves))
        out = Function(
            pre.name, tuple(params), post_ret, pre.entry, {},
            semantic_ret=pre.semantic_ret or pre.ret,
        )

        for label in pre.block_order():
            blk = pre.blocks[label]
            self.start_block(label)
            for ins in blk.instrs:
                self.instr(ins)
            self.finish(blk.term, post_ret)
        out.blocks = self.blocks
        return out

    def expanded_names(self, base: str, count: int) -> list[str]:
        if count == 1:
            return [base]
        return [f"{base}.{i}" for i in range(count)]

    def names_of(self, pre_name: str) -> list[str]:
        v = self.env[pre_name]
        if isinstance(v, _NullMarker):
            raise IrTypeError("null constant used outside replace-null")
        return v

    # -- terminators -----------------------------------------------------------

    def finish(self, term, post_ret: IrType) -> None:
        assert self.current is not None
        if isinstance(term, Return):
            leaves = self.names_of(term.value)
            if len(leaves) == 1:
                self.current.term = Return(leaves[0])
            else:
                t = self.fresh("ret")
                self.emit_typed(TupleMake(t, tuple(leaves)), post_ret)
                self.current.term = Return(t)
            return
        if isinstance(term, Branch):
            self.current.term = Branch(self.names_of(term.cond)[0], term.then_label, term.else_label)
            return
        if isinstance(term, Switch):
            self.current.term = Switch(self.names_of(term.value)[0], term.cases, term.default)
            return
        self.current.term = term  # Jump or Trap

    # -- instructions ------------------------------------------------------------

    def instr(self, ins) -> None:
        ctx = self.ctx
        if isinstance(ins, Const):
            if isinstance(ins.type, TAdt) and ins.value is None:
                if ctx.pre.is_unboxed(ins.type.key):
                    self.env[ins.dst] = _NullMarker(ins.type.key)
                    return
                name = self.emit_typed(Const(ins.dst, ins.type, None), ins.type)
                self.env[ins.dst] = [name]
                return
            self.env[ins.dst] = [self.emit_typed(ins, ins.type)]
            return
        if isinstance(ins, Alloc):
            flat = [n for a in ins.args for n in self.names_of(a)]
            if ctx.pre.is_unboxed(ins.adt):
                self.env[ins.dst] = self._assemble(ins.adt, ins.case, flat)
            else:
                t = TAdt(ins.adt)
                self.emit_typed(Alloc(ins.dst, ins.adt, ins.case, tuple(flat)), t)
                self.env[ins.dst] = [ins.dst]
            return
        if isinstance(ins, (GetField, GetContents)):
            self._get(ins)
            return
        if isinstance(ins, GetTag):
            if ctx.pre.is_unboxed(ins.adt):
                scalars = self.names_of(ins.src)
                tag = self.extract_tag(ins.adt, scalars)
                self.env[ins.dst] = [tag]
            else:
                self.emit_typed(GetTag(ins.dst, ins.adt, self.names_of(ins.src)[0]), TAG_TYPE)
                self.env[ins.dst] = [ins.dst]
            return
        if isinstance(ins, ReplaceNull):
            if ctx.pre.is_unboxed(ins.adt):
                src = self.env[ins.src]
                if isinstance(src, _NullMarker):
                    self.env[ins.dst] = self.default_value_names(ins.adt)
                else:
                    self.env[ins.dst] = list(src)
            else:
                helper = ctx.or_default_fn(ins.adt)
                src = self.names_of(ins.src)[0]
                self.emit_typed(Call(ins.dst, helper, (src,)), TAdt(ins.adt))
                self.env[ins.dst] = [ins.dst]
            return
        if isinstance(ins, Eq):
            result = self._equality(ins.type, self.names_of(ins.a), self.names_of(ins.b))
            self.env[ins.dst] = [result]
            return
        if isinstance(ins, Call):
            callee_pre = self.ctx.pre.functions[ins.fn]
            flat = [n for a in ins.args for n in self.names_of(a)]
            ret_leaves = ctx.pre.expand(callee_pre.ret)
            if len(ret_leaves) == 1:
                self.emit_typed(Call(ins.dst, ins.fn, tuple(flat)), ret_leaves[0])
                self.env[ins.dst] = [ins.dst]
            else:
                t = TTuple(tuple(ret_leaves))
                packed = self.emit_typed(Call(self.fresh("call"), ins.fn, tuple(flat)), t)
                names = []
                for i, lt in enumerate(ret_leaves):
                    names.append(self.emit_typed(Project(self.fresh("p"), packed, i), lt))
                self.env[ins.dst] = names
            return
        raise IrTypeError(f"instruction {type(ins).__name__} is not part of the source grammar")

    # -- defaults ------------------------------------------------------------

    def default_value_names(self, key: str) -> list[str]:
        """Emit code building the default value (first variant, defaulted
        fields): scalar assembly for unboxed ADTs, a replace-null helper call
        for boxed ones. Returns the value's post names."""
        ctx = self.ctx
        if not ctx.pre.is_unboxed(key):
            null = self.const(TAdt(key), None)
            helper = ctx.or_default_fn(key)
            name = self.emit_typed(Call(self.fresh("d"), helper, (null,)), TAdt(key))
            return [name]
        variant = ctx.pre.adts[key].variants[0]
        args = self.default_flat_args(variant)
        return self._assemble(key, 0, args)

    def default_flat_args(self, variant) -> list[str]:
        """Default value for every normalized field of a variant, in order:
        the defaults of the ADTs its parts name, and zeros."""
        ctx = self.ctx
        args: list[str] = []

        def part(t, key, fields) -> None:
            if key is None:
                args.append(self.const(normalized_field_type(ctx.post, fields[0]), 0))
            else:
                args.extend(self.default_value_names(key))

        fields = iter(variant.fields)
        for _, t in variant.source_fields:
            ctx.pre.spread(t, fields, part)
        return args

    # -- packing helpers ---------------------------------------------------------

    def _assemble(self, key: str, case: int, flat_args: list[str]) -> list[str]:
        """Bit-assembly of the scalars of one unboxed variant value."""
        layout = self.ctx.pre.layouts[key]
        mono = self.ctx.pre.adts[key]
        variant = mono.variants[case]
        out: list[str] = []
        for s, slot in enumerate(layout.slots):
            t = TIntRep(slot.width, slot.kind.value)
            acc = self.const(t, layout.patterns[case][s].ones)
            for k, f in enumerate(variant.fields):
                pl = layout.placements[(case, f.name)]
                if pl.slot != s:
                    continue
                bits = self._as_bits(flat_args[k], f)
                if f.signed:
                    m = self.const(t, (1 << pl.width) - 1)
                    bits = self.emit_typed(BinOp(self.fresh("m"), "and", bits, m), t)
                if pl.offset > 0 and f.ref_mode != REF_PLAIN:
                    bits = self.emit_typed(
                        ShiftOp(self.fresh("s"), "shl", bits, pl.offset), t
                    )
                acc = self.emit_typed(BinOp(self.fresh("w"), "or", acc, bits), t)
            out.append(acc)
        return out

    def _as_bits(self, name: str, f) -> str:
        have = self.types[name]
        if isinstance(have, (TInt, TIntRep)):
            return name
        return self.emit_typed(Bitcast(self.fresh("b"), name, TInt(f.width, False)), TInt(f.width, False))

    def read_bits(self, v: str, shift: int, mask: int) -> str:
        """`v` shifted right by `shift`, then ANDed with `mask`; each only if nonzero."""
        t = self.types[v]
        if shift:
            v = self.emit_typed(ShiftOp(self.fresh("s"), "shr", v, shift), t)
        if mask:
            m = self.const(t, mask)
            v = self.emit_typed(BinOp(self.fresh("m"), "and", v, m), t)
        return v

    def extract_tag(self, key: str, scalars: list[str]) -> str:
        layout = self.ctx.pre.layouts[key]
        scheme = layout.tag_scheme
        if isinstance(scheme, SingleVariant):
            return self.const(TAG_TYPE, 0)
        if isinstance(scheme, ExplicitTag):
            v = self.read_bits(scalars[scheme.slot], scheme.offset, tag_read_mask(layout.patterns, scheme))
            return self.emit_typed(Bitcast(self.fresh("tag"), v, TAG_TYPE), TAG_TYPE)
        assert isinstance(scheme, TreeTag)
        fname = self.ctx.classify_fn(key)
        return self.emit_typed(Call(self.fresh("tag"), fname, tuple(scalars)), TAG_TYPE)

    def decode_field(self, key: str, case: int, f, scalars: list[str]) -> str:
        """Bit extraction of one normalized field from the scalar words."""
        layout = self.ctx.pre.layouts[key]
        pl = layout.placements[(case, f.name)]
        p = layout.patterns[case][pl.slot]
        plain = f.ref_mode == REF_PLAIN
        mask = read_mask(p.ones | p.field, pl.offset, pl.width, plain)
        v = self.read_bits(scalars[pl.slot], 0 if plain else pl.offset, mask)
        if f.signed:
            v = self.emit_typed(SExt(self.fresh("x"), v, pl.width), self.types[v])
        want = normalized_field_type(self.ctx.post, f)
        if self.types[v] != want:
            v = self.emit_typed(Bitcast(self.fresh("f"), v, want), want)
        return v

    def _get(self, ins) -> None:
        ctx = self.ctx
        variant = ctx.pre.adts[ins.adt].variants[ins.case]
        indices = range(len(variant.fields))
        if isinstance(ins, GetField):
            # the fields that the walk of source field `ins.field` takes,
            # after the walks of the source fields before it
            ks = iter(indices)
            for _, t in variant.source_fields[: ins.field + 1]:
                indices = []
                ctx.pre.spread(t, ks, lambda t, key, taken: indices.extend(taken))
        if ctx.pre.is_unboxed(ins.adt):
            scalars = self.names_of(ins.src)
            tag = self.extract_tag(ins.adt, scalars)
            want = self.const(TAG_TYPE, ins.case)
            cond = self.emit_typed(Eq(self.fresh("c"), TAG_TYPE, tag, want), BOOL)
            self.split_for_check(cond, "bad-case")
            names = [
                self.decode_field(ins.adt, ins.case, variant.fields[k], scalars)
                for k in indices
            ]
        else:
            src = self.names_of(ins.src)[0]
            names = []
            if not indices:
                # the selected contents need no scalars (e.g. a unit-like
                # embedded ADT), but the null and case checks must survive
                tag = self.emit_typed(GetTag(self.fresh("t"), ins.adt, src), TAG_TYPE)
                want = self.const(TAG_TYPE, ins.case)
                cond = self.emit_typed(Eq(self.fresh("c"), TAG_TYPE, tag, want), BOOL)
                self.split_for_check(cond, "bad-case")
            for k in indices:
                f = variant.fields[k]
                t = normalized_field_type(ctx.post, f)
                names.append(
                    self.emit_typed(GetField(self.fresh("g"), ins.adt, ins.case, k, src), t)
                )
        self.env[ins.dst] = names

    # -- equality ------------------------------------------------------------------

    def _equality(self, t: IrType, a: list[str], b: list[str]) -> str:
        ctx = self.ctx
        if isinstance(t, TAdt) and ctx.pre.is_unboxed(t.key):
            fname = ctx.equality_fn(t.key)
            return self.emit_typed(
                Call(self.fresh("eq"), fname, tuple(a + b)), BOOL
            )
        if isinstance(t, TTuple):
            parts = []
            pos = 0
            for e in t.elems:
                n = len(ctx.pre.expand(e))
                parts.append(self._equality(e, a[pos : pos + n], b[pos : pos + n]))
                pos += n
            acc = parts[0]
            for p in parts[1:]:
                acc = self.emit_typed(BinOp(self.fresh("a"), "and", acc, p), BOOL)
            return acc
        return self.emit_typed(Eq(self.fresh("eq"), t, a[0], b[0]), BOOL)


# ---------------------------------------------------------------------------
# Generated structural equality over packed values


def _build_equality(ctx: Normalizer, name: str, key: str) -> Function:
    layout = ctx.pre.layouts[key]
    mono = ctx.pre.adts[key]
    k = len(layout.slots)
    params = []
    for side in ("a", "b"):
        for i, s in enumerate(layout.slots):
            params.append((f"{side}{i}", TIntRep(s.width, s.kind.value)))
    w = _FunctionNormalizer(ctx)
    fn = Function(name, tuple(params), BOOL, "entry", w.blocks)
    a_scalars = [f"a{i}" for i in range(k)]
    b_scalars = [f"b{i}" for i in range(k)]
    for p, t in params:
        w.types[p] = t

    w.start_block("entry")
    ta = w.extract_tag(key, a_scalars)
    tb = w.extract_tag(key, b_scalars)
    c = w.emit_typed(Eq(w.fresh("c"), TAG_TYPE, ta, tb), BOOL)
    w.current.term = Branch(c, "cases", "no")
    no = Block("no")
    fn.blocks["no"] = no
    w.current = no
    cf = w.const(BOOL, 0)
    no.term = Return(cf)

    cases_blk = w.start_block("cases")
    cases = tuple((i, f"case{i}") for i in range(len(mono.variants)))
    cases_blk.term = Switch(ta, cases, "no")
    for i, variant in enumerate(mono.variants):
        w.start_block(f"case{i}")
        groups = itertools.count()

        def compare(t, sub, fields) -> None:
            # one test per part that has fields: an embedded unboxed value's
            # scalars compare through its own equality function
            if not fields:
                return
            av = [w.decode_field(key, i, f, a_scalars) for f in fields]
            bv = [w.decode_field(key, i, f, b_scalars) for f in fields]
            if fields[0].embedded:
                call = Call(w.fresh("eq"), ctx.equality_fn(sub), tuple(av + bv))
                c = w.emit_typed(call, BOOL)
            else:
                t = normalized_field_type(ctx.post, fields[0])
                c = w.emit_typed(Eq(w.fresh("eq"), t, av[0], bv[0]), BOOL)
            nxt = f"case{i}.g{next(groups)}"
            w.current.term = Branch(c, nxt, "no")
            w.start_block(nxt)

        fields = iter(variant.fields)
        for _, t in variant.source_fields:
            ctx.pre.spread(t, fields, compare)
        ct = w.const(BOOL, 1)
        w.current.term = Return(ct)
    return fn


# ---------------------------------------------------------------------------
# Entry points


def normalize_program(pre: Program) -> Program:
    return Normalizer(pre).run()
