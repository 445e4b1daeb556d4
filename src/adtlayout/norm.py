"""SSA normalization: rewrites ADT operations over the boxed representation
into operations over the flattened scalar representation chosen by the
solver.

Multi-scalar values flow as separate names; only returns pack them into a
tuple, unpacked again at call sites. Allocation of an unboxed case becomes
bitwise assembly of its scalar words; equality on unboxed values becomes a
call to a generated per-ADT equality function. Each field and explicit tag
is read, and each field written, op by op as the read plan its layout keeps
says (`solver.read_plan`, `tag_plan`), which masks only where the case read
(for a tag, any case) sets a bit the read must drop. Field reads follow the
`bad-case` check, and equality switches on the tag, so the scalars then
hold that case's encoding. Where a source field spreads over several
normalized fields (a tuple, an embedded unboxed ADT), field reads, default
values and generated equality take them from the parts that
monomorphization recorded (`MonoVariant.parts`).

Constants fold as they are emitted, with no pass of their own. The
normalizer knows which post names hold a known constant: a source `Const`,
one it made, or a result it folded. Assembly ORs each known field, masked
and shifted, into its scalar's constant word, so a case built from
constants is one `Const` per scalar. A shift, mask or sign extension of a
known word, and a `Bitcast` of a known value to an integer type, fold into
a `Const`. A case read whose tag is known to be that case drops its
`bad-case` check: the check could only pass, and its field reads then fold
too. A tag known to differ keeps the check, which traps. Each (type, value)
constant is made once per block, or once per function when the entry block
(or a block that continues it) asks for it, since those dominate every
block; and only once something reads it, so a constant that only folds
into others is never made. An `eq` of the same names is the constant 1."""

from __future__ import annotations

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
    Jump,
    Program,
    Project,
    ReplaceNull,
    Return,
    SExt,
    ShiftOp,
    Switch,
    TAdt,
    Terminator,
    TInt,
    TIntRep,
    Trap,
    TTuple,
    TupleMake,
)
from .solver import ExplicitTag, ReadPlan, SingleVariant, TreeTag


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
        params = tuple((f"s{i}", s.type) for i, s in enumerate(layout.slots))
        w = _FunctionNormalizer(self)
        fn = Function(name, params, TAG_TYPE, "entry", w.blocks)
        bit_type = TIntRep(1, "B64")

        def emit_node(node, label: str) -> None:
            w.start_block(label)
            if isinstance(node, Leaf):
                w.end(Return(w.const(TAG_TYPE, node.variant)))
                return
            assert isinstance(node, Node)
            src, src_type = params[node.scalar]
            if node.bit > 0:
                src = w.emit_typed(ShiftOp(w.fresh("sh"), "shr", src, node.bit), src_type)
            one = w.const(bit_type, 1)
            bit = w.emit_typed(BinOp(w.fresh("b"), "and", src, one), bit_type)
            cmp = w.emit_typed(Eq(w.fresh("c"), bit_type, bit, one), BOOL)
            lz, lo = f"{label}z", f"{label}o"
            w.end(Branch(cmp, lo, lz))
            emit_node(node.zero, lz)
            emit_node(node.one, lo)

        emit_node(scheme.tree, "entry")
        return fn

    def _build_or_default(self, name: str, key: str) -> Function:
        w = _FunctionNormalizer(self)
        fn = Function(name, (("x", TAdt(key)),), TAdt(key), "entry", w.blocks)
        w.types["x"] = TAdt(key)
        w.start_block("entry")
        cond = w.emit_typed(IsNull(w.fresh("n"), "x"), BOOL)
        w.end(Branch(cond, "build", "keep"))
        fn.blocks["keep"] = Block("keep", [], Return("x"))
        w.start_block("build")
        variant = self.pre.adts[key].variants[0]
        args = w.default_flat_args(variant)
        rec = w.emit_typed(Alloc(w.fresh("r"), key, 0, tuple(args)), TAdt(key))
        w.end(Return(rec))
        return fn


# ---------------------------------------------------------------------------
# Per-function rewriting


_INT_BACKED = (TInt, TIntRep)


class _FunctionNormalizer:
    """Emits post-normalization code into `blocks`: a normalized copy of a
    function through `run`, or a generated helper block by block."""

    def __init__(self, ctx: Normalizer):
        self.ctx = ctx
        self.env: dict[str, list[str] | _NullMarker] = {}
        self.types: dict[str, IrType] = {}  # post types of post names
        self.known: dict[str, int] = {}  # post names that hold a known constant (null is 0)
        # (type, value) -> the name of that constant, asked for in the entry's
        # blocks or in the current block
        self.consts: dict[tuple[IrType, Optional[int]], str] = {}
        self.local: dict[tuple[IrType, Optional[int]], str] = {}
        # constants that nothing reads yet: the block each will go to, its type and value
        self.pending: dict[str, tuple[Block, IrType, Optional[int]]] = {}
        self.tmp = 0
        self.blocks: dict[str, Block] = {}
        self.current: Optional[Block] = None
        self.in_entry = False  # emitting into the entry block or a block that continues it

    def fresh(self, hint: str = "t") -> str:
        self.tmp += 1
        return f"_{hint}{self.tmp}"

    def emit_typed(self, ins, t: IrType) -> str:
        pending = self.pending
        if pending:
            read = _OPERANDS.get(type(ins))
            for name in read(ins) if read else (ins.src,):
                if name in pending:
                    self.place(name)
        self.current.instrs.append(ins)
        self.types[ins.dst] = t
        return ins.dst

    def const(self, t: IrType, value: Optional[int]) -> str:
        """The name of constant `value` of type `t`, asked for once per block,
        and once per function in the entry block and the blocks that continue
        it, which dominate every other block. It goes to the end of the block
        it was asked for in when something first reads it, so a constant
        that only folds into others is never made."""
        key = (t, value)
        name = self.consts.get(key) or self.local.get(key)
        if name is None:
            name = self.fresh("k")
            self.pending[name] = (self.current, t, value)
            self.types[name] = t
            self.known[name] = 0 if value is None else value
            (self.consts if self.in_entry else self.local)[key] = name
        return name

    def place(self, name: str) -> None:
        """Make pending constant `name`, at the end of the block it was asked
        for in, since the next instruction or terminator reads it."""
        block, t, value = self.pending.pop(name)
        block.instrs.append(Const(name, t, value))

    def end(self, term: Terminator) -> None:
        """End the current block with `term`."""
        # a return, branch or switch reads one value, its first field
        if type(term) is not Jump and type(term) is not Trap and term[0] in self.pending:
            self.place(term[0])
        self.current.term = term

    def start_block(self, label: str, follows: bool = False) -> None:
        """Start emitting into a new block; `follows` when its only
        predecessor is the current block."""
        if not follows:
            self.in_entry = self.current is None
            self.local = {}
        self.current = self.blocks[label] = Block(label)

    def split_for_check(self, cond: str, trap_kind: str) -> None:
        """End the current block with: if cond continue else trap."""
        assert self.current is not None
        cont = f"{self.current.label}.c{self.tmp}"
        trap = f"{self.current.label}.x{self.tmp}"
        self.tmp += 1
        self.end(Branch(cond, cont, trap))
        self.blocks[trap] = Block(trap, [], Trap(trap_kind))
        self.start_block(cont, follows=True)

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
        post_ret = ret_leaves[0] if len(ret_leaves) == 1 else TTuple(tuple(ret_leaves))
        out = Function(
            pre.name, tuple(params), post_ret, pre.entry, {},
            semantic_ret=pre.semantic_ret or pre.ret,
        )

        for label in pre.block_order():
            blk = pre.blocks[label]
            self.start_block(label)
            for ins in blk.instrs:
                rewrite = _REWRITE.get(type(ins))
                if rewrite is None:
                    raise IrTypeError(
                        f"instruction {type(ins).__name__} is not part of the source grammar"
                    )
                rewrite(self, ins)
            term = blk.term
            finish = _FINISH.get(type(term))
            self.end(term if finish is None else finish(self, term, post_ret))
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

    # -- terminators: the normalized form of each terminator that reads a value;
    # a jump or trap is kept as it is --

    def _return(self, term: Return, post_ret: IrType) -> Return:
        leaves = self.names_of(term.value)
        if len(leaves) == 1:
            return Return(leaves[0])
        t = self.fresh("ret")
        self.emit_typed(TupleMake(t, tuple(leaves)), post_ret)
        return Return(t)

    def _branch(self, term: Branch, post_ret: IrType) -> Branch:
        return Branch(self.names_of(term.cond)[0], term.then_label, term.else_label)

    def _switch(self, term: Switch, post_ret: IrType) -> Switch:
        return Switch(self.names_of(term.value)[0], term.cases, term.default)

    # -- instructions: one rewrite per source instruction class, binding the
    # post names of `ins.dst` in `env` --

    def _const(self, ins: Const) -> None:
        t = ins.type
        if isinstance(t, TAdt) and ins.value is None and self.ctx.pre.is_unboxed(t.key):
            self.env[ins.dst] = _NullMarker(t.key)
        else:
            self.env[ins.dst] = [self.const(t, ins.value)]

    def _alloc(self, ins: Alloc) -> None:
        flat = [n for a in ins.args for n in self.names_of(a)]
        if self.ctx.pre.is_unboxed(ins.adt):
            self.env[ins.dst] = self._assemble(ins.adt, ins.case, flat)
        else:
            t = TAdt(ins.adt)
            self.emit_typed(Alloc(ins.dst, ins.adt, ins.case, tuple(flat)), t)
            self.env[ins.dst] = [ins.dst]

    def _gettag(self, ins: GetTag) -> None:
        if self.ctx.pre.is_unboxed(ins.adt):
            self.env[ins.dst] = [self.extract_tag(ins.adt, self.names_of(ins.src))]
        else:
            self.emit_typed(GetTag(ins.dst, ins.adt, self.names_of(ins.src)[0]), TAG_TYPE)
            self.env[ins.dst] = [ins.dst]

    def _replacenull(self, ins: ReplaceNull) -> None:
        ctx = self.ctx
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

    def _eq(self, ins: Eq) -> None:
        # the same names hold the same values, whose observations `Eq` compares
        a, b = self.names_of(ins.a), self.names_of(ins.b)
        self.env[ins.dst] = [self.const(BOOL, 1) if a == b else self._equality(ins.type, a, b)]

    def _call(self, ins: Call) -> None:
        ctx = self.ctx
        callee_pre = ctx.pre.functions[ins.fn]
        flat = [n for a in ins.args for n in self.names_of(a)]
        ret_leaves = ctx.pre.expand(callee_pre.ret)
        if len(ret_leaves) == 1:
            self.emit_typed(Call(ins.dst, ins.fn, tuple(flat)), ret_leaves[0])
            self.env[ins.dst] = [ins.dst]
        else:
            t = TTuple(tuple(ret_leaves))
            packed = self.emit_typed(Call(self.fresh("call"), ins.fn, tuple(flat)), t)
            self.env[ins.dst] = [
                self.emit_typed(Project(self.fresh("p"), packed, i), lt)
                for i, lt in enumerate(ret_leaves)
            ]

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
        return self._assemble(key, 0, self.default_flat_args(ctx.pre.adts[key].variants[0]))

    def default_flat_args(self, variant) -> list[str]:
        """Default value for every normalized field of a variant, in order:
        the defaults of the ADTs its parts name, and zeros."""
        args: list[str] = []
        for parts in variant.parts:
            for key, first, _ in parts:
                if key is None:
                    args.append(self.const(variant.fields[first].type, 0))
                else:
                    args.extend(self.default_value_names(key))
        return args

    # -- packing helpers ---------------------------------------------------------

    def _assemble(self, key: str, case: int, flat_args: list[str]) -> list[str]:
        """Bit-assembly of the scalars of one unboxed variant value, each
        field written as the inverse of its read plan. A field whose value
        is known goes into its scalar's constant word; the others are ORed
        into it at run time."""
        layout = self.ctx.pre.layouts[key]
        fields = self.ctx.pre.adts[key].variants[case].fields
        plans = [layout.plans[(case, f.name)] for f in fields]
        out: list[str] = []
        for s, slot in enumerate(layout.slots):
            t = slot.type
            word = layout.patterns[case][s].ones
            parts: list[str] = []  # the fields ORed in at run time
            for plan, bits in zip(plans, flat_args):
                if plan.slot != s:
                    continue
                value = self.known.get(bits)
                if value is not None:
                    word |= plan.write(value)
                    continue
                if not isinstance(self.types[bits], _INT_BACKED):
                    bits = self.bitcast(bits, t)
                if plan.sext:
                    mask = self.const(t, (1 << plan.sext) - 1)
                    bits = self.emit_typed(BinOp(self.fresh("m"), "and", mask, bits), t)
                if plan.shift:
                    shl = ShiftOp(self.fresh("s"), "shl", bits, plan.shift)
                    bits = self.emit_typed(shl, self.types[bits])
                parts.append(bits)
            if word or not parts:
                acc = self.const(t, word)
            else:
                # no constant bits: the chain starts from a part, one of type
                # `t` where there is one, since an `or` has its first operand's type
                acc = next((p for p in parts if self.types[p] == t), parts[0])
                parts.remove(acc)
                acc = self.bitcast(acc, t)
            for bits in parts:
                acc = self.emit_typed(BinOp(self.fresh("w"), "or", acc, bits), t)
            out.append(acc)
        return out

    def bitcast(self, name: str, t: IrType) -> str:
        """`name` as a value of type `t`; a known constant folds into one of
        an integer type."""
        if self.types[name] == t:
            return name
        value = self.known.get(name)
        if value is not None and isinstance(t, _INT_BACKED):
            return self.const(t, value)
        return self.emit_typed(Bitcast(self.fresh("b"), name, t), t)

    def read_bits(self, v: str, plan: ReadPlan, t: Optional[IrType] = None) -> str:
        """`v` read by `plan`, op by op; a known `v` folds into a constant of
        type `t` (by default `v`'s)."""
        value = self.known.get(v)
        if value is not None:
            return self.const(t or self.types[v], plan.read(value))
        t = self.types[v]
        if plan.shift:
            v = self.emit_typed(ShiftOp(self.fresh("s"), "shr", v, plan.shift), t)
        if plan.mask:
            v = self.emit_typed(BinOp(self.fresh("m"), "and", v, self.const(t, plan.mask)), t)
        if plan.sext:
            v = self.emit_typed(SExt(self.fresh("x"), v, plan.sext), t)
        return v

    def extract_tag(self, key: str, scalars: list[str]) -> str:
        layout = self.ctx.pre.layouts[key]
        scheme = layout.tag_scheme
        if isinstance(scheme, SingleVariant):
            return self.const(TAG_TYPE, 0)
        if isinstance(scheme, ExplicitTag):
            tag = self.read_bits(scalars[scheme.slot], layout.tag_plan, TAG_TYPE)
            return self.bitcast(tag, TAG_TYPE)
        assert isinstance(scheme, TreeTag)
        fname = self.ctx.classify_fn(key)
        return self.emit_typed(Call(self.fresh("tag"), fname, tuple(scalars)), TAG_TYPE)

    def decode_field(self, key: str, case: int, f, scalars: list[str]) -> str:
        """Bit extraction of one normalized field from the scalar words; from
        a known word, a constant."""
        plan = self.ctx.pre.layouts[key].plans[(case, f.name)]
        t = f.type if isinstance(f.type, _INT_BACKED) else None
        return self.bitcast(self.read_bits(scalars[plan.slot], plan, t), f.type)

    def _getfield(self, ins: GetField) -> None:
        variant = self.ctx.pre.adts[ins.adt].variants[ins.case]
        parts = variant.parts[ins.field]  # a source field's parts are adjacent
        self._read(ins, variant, range(parts[0][1], parts[-1][2]))

    def _contents(self, ins: GetContents) -> None:
        variant = self.ctx.pre.adts[ins.adt].variants[ins.case]
        self._read(ins, variant, range(len(variant.fields)))

    def _read(self, ins, variant, indices) -> None:
        """Bind `ins.dst` to the normalized fields `indices` of case
        `ins.case` of the value `ins.src`, after checking its case."""
        ctx = self.ctx
        if ctx.pre.is_unboxed(ins.adt):
            scalars = self.names_of(ins.src)
            tag = self.extract_tag(ins.adt, scalars)
            # a tag known to be the case read needs no check; one known to
            # differ keeps it, and traps
            if self.known.get(tag) != ins.case:
                want = self.const(TAG_TYPE, ins.case)
                cond = self.emit_typed(Eq(self.fresh("c"), TAG_TYPE, tag, want), BOOL)
                self.split_for_check(cond, "bad-case")
            names = [
                self.decode_field(ins.adt, ins.case, variant.fields[k], scalars)
                for k in indices
            ]
        else:
            src = self.names_of(ins.src)[0]
            if not indices:
                # the selected contents need no scalars (e.g. a unit-like
                # embedded ADT), but the null and case checks must survive
                tag = self.emit_typed(GetTag(self.fresh("t"), ins.adt, src), TAG_TYPE)
                want = self.const(TAG_TYPE, ins.case)
                cond = self.emit_typed(Eq(self.fresh("c"), TAG_TYPE, tag, want), BOOL)
                self.split_for_check(cond, "bad-case")
            names = [
                self.emit_typed(GetField(self.fresh("g"), ins.adt, ins.case, k, src),
                                variant.fields[k].type)
                for k in indices
            ]
        self.env[ins.dst] = names

    # -- equality ------------------------------------------------------------------

    def _equality(self, t: IrType, a: list[str], b: list[str]) -> str:
        ctx = self.ctx
        if isinstance(t, TAdt) and ctx.pre.is_unboxed(t.key):
            fname = ctx.equality_fn(t.key)
            return self.emit_typed(Call(self.fresh("eq"), fname, tuple(a + b)), BOOL)
        if isinstance(t, TTuple):
            parts, pos = [], 0
            for e in t.elems:
                n = len(ctx.pre.expand(e))
                parts.append(self._equality(e, a[pos : pos + n], b[pos : pos + n]))
                pos += n
            acc = parts[0]
            for p in parts[1:]:
                acc = self.emit_typed(BinOp(self.fresh("a"), "and", acc, p), BOOL)
            return acc
        return self.emit_typed(Eq(self.fresh("eq"), t, a[0], b[0]), BOOL)


# the names each instruction class that the normalizer emits reads, where
# they are not just `src`
_OPERANDS = {
    Alloc: lambda ins: ins.args, Call: lambda ins: ins.args, TupleMake: lambda ins: ins.elems,
    BinOp: lambda ins: (ins.a, ins.b), Eq: lambda ins: (ins.a, ins.b),
}

_REWRITE = {
    Const: _FunctionNormalizer._const, Alloc: _FunctionNormalizer._alloc,
    GetField: _FunctionNormalizer._getfield, GetContents: _FunctionNormalizer._contents,
    GetTag: _FunctionNormalizer._gettag, ReplaceNull: _FunctionNormalizer._replacenull,
    Eq: _FunctionNormalizer._eq, Call: _FunctionNormalizer._call,
}
_FINISH = {
    Return: _FunctionNormalizer._return, Branch: _FunctionNormalizer._branch,
    Switch: _FunctionNormalizer._switch,
}


# ---------------------------------------------------------------------------
# Generated structural equality over packed values


def _build_equality(ctx: Normalizer, name: str, key: str) -> Function:
    layout = ctx.pre.layouts[key]
    mono = ctx.pre.adts[key]
    k = len(layout.slots)
    params = []
    for side in ("a", "b"):
        for i, s in enumerate(layout.slots):
            params.append((f"{side}{i}", s.type))
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
    w.end(Branch(c, "cases", "no"))
    w.start_block("no")
    w.end(Return(w.const(BOOL, 0)))

    w.start_block("cases")
    cases = tuple((i, f"case{i}") for i in range(len(mono.variants)))
    w.end(Switch(ta, cases, "no"))
    for i, variant in enumerate(mono.variants):
        w.start_block(f"case{i}")
        # one test per part that has fields: an embedded unboxed value's
        # scalars compare through its own equality function
        parts = [p for field_parts in variant.parts for p in field_parts if p[1] < p[2]]
        for g, (sub, first, end) in enumerate(parts):
            fields = variant.fields[first:end]
            av = [w.decode_field(key, i, f, a_scalars) for f in fields]
            bv = [w.decode_field(key, i, f, b_scalars) for f in fields]
            if ctx.pre.is_unboxed(sub):
                call = Call(w.fresh("eq"), ctx.equality_fn(sub), tuple(av + bv))
                c = w.emit_typed(call, BOOL)
            else:
                c = w.emit_typed(Eq(w.fresh("eq"), fields[0].type, av[0], bv[0]), BOOL)
            nxt = f"case{i}.g{g}"
            w.end(Branch(c, nxt, "no"))
            w.start_block(nxt)
        w.end(Return(w.const(BOOL, 1)))
    return fn


# ---------------------------------------------------------------------------
# Entry points


def normalize_program(pre: Program) -> Program:
    return Normalizer(pre).run()
