"""Textual form for source-level programs: one instruction per line,
`%name = op<type>(args)`. A bundle file carries the target, the type
declarations and the functions, which is enough to rebuild and re-run a
program; the equivalence driver prints failing programs in this form."""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional

from .ir import (
    Alloc,
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
    Jump,
    Program,
    ReplaceNull,
    Return,
    Switch,
    TAdt,
    TFloat,
    TInt,
    Trap,
    TTuple,
    print_ir_type,
)
from .pipeline import process_adts
from .solver import AnnotationInfeasible
from .syntax import PackingSyntaxError, parse_program, print_program
from .targets import BUILTIN_TARGETS, MonoError, Target
from .verify import VerifyError


# ---------------------------------------------------------------------------
# Printing


def print_instr(ins) -> str:
    if isinstance(ins, Const):
        v = "null" if ins.value is None else str(ins.value)
        return f"%{ins.dst} = const<{print_ir_type(ins.type)}> {v}"
    if isinstance(ins, Alloc):
        args = ", ".join(f"%{a}" for a in ins.args)
        return f"%{ins.dst} = alloc<{ins.adt}#{ins.case}>({args})"
    if isinstance(ins, GetField):
        return f"%{ins.dst} = getfield<{ins.adt}#{ins.case}.{ins.field}>(%{ins.src})"
    if isinstance(ins, GetContents):
        return f"%{ins.dst} = contents<{ins.adt}#{ins.case}>(%{ins.src})"
    if isinstance(ins, GetTag):
        return f"%{ins.dst} = gettag<{ins.adt}>(%{ins.src})"
    if isinstance(ins, ReplaceNull):
        return f"%{ins.dst} = replacenull<{ins.adt}>(%{ins.src})"
    if isinstance(ins, Eq):
        return f"%{ins.dst} = eq<{print_ir_type(ins.type)}>(%{ins.a}, %{ins.b})"
    if isinstance(ins, Call):
        args = ", ".join(f"%{a}" for a in ins.args)
        return f"%{ins.dst} = call {ins.fn}({args})"
    raise TypeError(f"unprintable instruction {ins!r}")


def print_term(term) -> str:
    if isinstance(term, Jump):
        return f"jmp {term.label}"
    if isinstance(term, Branch):
        return f"br %{term.cond}, {term.then_label}, {term.else_label}"
    if isinstance(term, Switch):
        cases = ", ".join(f"{k}: {lbl}" for k, lbl in term.cases)
        return f"switch %{term.value}, [{cases}], {term.default}"
    if isinstance(term, Return):
        return f"ret %{term.value}"
    if isinstance(term, Trap):
        return f"trap {term.kind}"
    raise TypeError(f"unprintable terminator {term!r}")


def print_function(fn: Function) -> str:
    params = ", ".join(f"%{n}: {print_ir_type(t)}" for n, t in fn.params)
    lines = [f"fn {fn.name}({params}) -> {print_ir_type(fn.ret)} {{"]
    for label in fn.block_order():
        blk = fn.blocks[label]
        lines.append(f"{label}:")
        for ins in blk.instrs:
            lines.append(f"  {print_instr(ins)}")
        lines.append(f"  {print_term(blk.term)}")
    lines.append("}")
    return "\n".join(lines)


def print_bundle(program: Program, decls, extra: str = "") -> str:
    parts = [f"target {program.target.name}"]
    if extra:
        parts.append(f"# {extra}")
    parts.append(print_program(decls).rstrip())
    for name in sorted(program.functions):
        parts.append(print_function(program.functions[name]))
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Parsing


class ProgTextError(Exception):
    pass


# a %name, label or function name: no spaces, commas or brackets, which
# would run it into the text around it
_NAME = r"[^\s,()<>\[\]]+"
_NAME_RE = re.compile(_NAME)
_INSTR_RE = re.compile(rf"%({_NAME})\s*=\s*(\w+)(.*)$")


def _split_args(text: str) -> list[str]:
    text = text.strip()
    if not text:
        return []
    return [a.strip() for a in text.split(",")]


def _inside(text: str) -> str:
    """The text within the parentheses that `text` consists of."""
    text = text.strip()
    if len(text) < 2 or text[0] != "(" or text[-1] != ")":
        raise ProgTextError(f"expected (...), found {text!r}")
    return text[1:-1]


def _take_brackets(text: str) -> tuple[str, str]:
    """Split 'xxx<...>rest' at the matching close bracket: the first `>`
    with as many `<` before it as `>` up to it."""
    if not text.startswith("<"):
        raise ProgTextError(f"expected <...> in {text!r}")
    opens = closes = start = 0
    while True:
        close = text.find(">", start)
        if close < 0:
            raise ProgTextError(f"unbalanced type brackets in {text!r}")
        opens += text.count("<", start, close)
        closes += 1
        if opens == closes:
            return text[1:close], text[close + 1 :]
        start = close + 1


def _split_top(text: str) -> list[str]:
    """`text` split at the commas outside any brackets."""
    parts = []
    depth = start = 0
    for i, ch in enumerate(text):
        if ch in "(<":
            depth += 1
        elif ch in ")>":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


# a scalar type name; `\d` takes any script's digits so that a width in
# other digits is refused rather than read as an ADT name
_SCALAR_TYPE = re.compile(r"([uif])(\d+)")


@lru_cache(maxsize=1024)  # one entry per distinct type text
def _parse_ir_type(text: str) -> IrType:
    text = text.strip()
    if text.startswith("("):
        return TTuple(tuple(_parse_ir_type(p) for p in _split_top(_inside(text))))
    if text == "bool":
        return TInt(1, False)
    m = _SCALAR_TYPE.fullmatch(text)
    if m:
        kind, digits = m.groups()
        width = int(digits) if digits.isascii() else 0
        if kind == "f" and width in (32, 64):
            return TFloat(width)
        if kind != "f" and 1 <= width <= 64:
            return TInt(width, kind == "i")
        raise ProgTextError(
            f"expected a width of ASCII digits, 1..64 (32 or 64 for f), found {text!r}"
        )
    return TAdt(text)


_INTEGER = re.compile(r"-?[0-9]+")  # ASCII only; the checker refuses a negative index


def _number(text: str) -> int:
    """A constant or a switch key: ASCII digits, which `int` alone does not
    insist on."""
    text = text.strip()
    if not _INTEGER.fullmatch(text):
        raise ProgTextError(f"expected a number in ASCII digits, found {text!r}")
    return int(text)


def _parse_case_ref(text: str) -> tuple[str, int, Optional[int]]:
    """Key#case or Key#case.field."""
    if "#" not in text:
        raise ProgTextError(f"expected Key#case in {text!r}")
    key, rest = text.rsplit("#", 1)
    c, dot, f = rest.partition(".")
    if not _INTEGER.fullmatch(c) or dot and not _INTEGER.fullmatch(f):
        raise ProgTextError(f"expected Key#case or Key#case.field in digits, found {text!r}")
    return key, int(c), int(f) if dot else None


def _strip_pct(tok: str) -> str:
    tok = tok.strip()
    if not tok.startswith("%") or not _NAME_RE.fullmatch(tok, 1):
        raise ProgTextError(f"expected %name, found {tok!r}")
    return tok[1:]


def _label(tok: str) -> str:
    tok = tok.strip()
    if not _NAME_RE.fullmatch(tok):
        raise ProgTextError(f"expected a label, found {tok!r}")
    return tok


_HEADER_RE = re.compile(rf"fn\s+({_NAME})\((.*)\)\s*->\s*(.+)\s*\{{$")


def parse_function_text(text: str) -> Function:
    return _parse_function([ln.strip() for ln in text.strip().splitlines()])


def _parse_function(lines: list[str]) -> Function:
    """A function from its stripped lines: the header, then labels,
    instructions and terminators up to the closing brace."""
    header = lines[0]
    m = _HEADER_RE.match(header)
    if not m:
        raise ProgTextError(f"bad function header: {header!r}")
    name, params_text, ret_text = m.group(1), m.group(2), m.group(3)
    params = []
    if params_text.strip():
        for p in _split_top(params_text):
            pname, colon, ptype = p.partition(":")
            if not colon:
                raise ProgTextError(f"expected %name: type, found {p!r}")
            params.append((_strip_pct(pname), _parse_ir_type(ptype)))
    fn = Function(name, tuple(params), _parse_ir_type(ret_text), "", {})
    current: Optional[Block] = None
    for s in lines[1:]:
        if not s or s[0] == "#":
            continue
        if s == "}":
            break
        if s.startswith("fn "):
            raise _unclosed(name)  # the next function starts inside this one
        if s[-1] == ":" and s[0] != "%":
            label = _label(s[:-1])
            current = Block(label)
            fn.blocks[label] = current
            if not fn.entry:
                fn.entry = label
        elif current is None:
            raise ProgTextError(f"instruction outside a block: {s!r}")
        elif s[0] == "%":
            current.instrs.append(_parse_instr(s))
        else:
            current.term = _parse_term(s)
    return fn


def _unclosed(name: str) -> ProgTextError:
    """The refusal of function `name`, which the bundle ends, or starts
    another function, before its closing brace."""
    return ProgTextError(f"function {name} lacks its closing '}}'")


# One parser per op word: each takes the instruction's destination, the
# text after the op word and the whole line, for messages.


def _const(dst: str, rest: str, s: str) -> Const:
    tt, tail = _take_brackets(rest)
    v = tail.strip()
    return Const(dst, _parse_ir_type(tt), None if v == "null" else _number(v))


def _alloc(dst: str, rest: str, s: str) -> Alloc:
    tt, tail = _take_brackets(rest)
    key, case, _ = _parse_case_ref(tt)
    return Alloc(dst, key, case, tuple(_strip_pct(a) for a in _split_args(_inside(tail))))


def _getfield(dst: str, rest: str, s: str) -> GetField:
    tt, tail = _take_brackets(rest)
    key, case, fidx = _parse_case_ref(tt)
    if fidx is None:
        raise ProgTextError(f"getfield needs Key#case.field in {s!r}")
    return GetField(dst, key, case, fidx, _strip_pct(_inside(tail)))


def _contents(dst: str, rest: str, s: str) -> GetContents:
    tt, tail = _take_brackets(rest)
    key, case, _ = _parse_case_ref(tt)
    return GetContents(dst, key, case, _strip_pct(_inside(tail)))


def _gettag(dst: str, rest: str, s: str) -> GetTag:
    tt, tail = _take_brackets(rest)
    return GetTag(dst, tt, _strip_pct(_inside(tail)))


def _replacenull(dst: str, rest: str, s: str) -> ReplaceNull:
    tt, tail = _take_brackets(rest)
    return ReplaceNull(dst, tt, _strip_pct(_inside(tail)))


def _eq(dst: str, rest: str, s: str) -> Eq:
    tt, tail = _take_brackets(rest)
    operands = _split_args(_inside(tail))
    if len(operands) != 2:
        raise ProgTextError(f"eq needs two operands in {s!r}")
    a, b = operands
    return Eq(dst, _parse_ir_type(tt), _strip_pct(a), _strip_pct(b))


_CALL_RE = re.compile(rf"({_NAME})\((.*)\)$")


def _call(dst: str, rest: str, s: str) -> Call:
    m = _CALL_RE.match(rest)
    if not m:
        raise ProgTextError(f"bad call {s!r}")
    return Call(dst, m.group(1), tuple(_strip_pct(a) for a in _split_args(m.group(2))))


_OPS = {
    "const": _const, "alloc": _alloc, "getfield": _getfield, "contents": _contents,
    "gettag": _gettag, "replacenull": _replacenull, "eq": _eq, "call": _call,
}


def _parse_instr(s: str):
    m = _INSTR_RE.match(s)
    if not m:
        raise ProgTextError(f"bad instruction {s!r}")
    dst, op, rest = m.groups()
    parse = _OPS.get(op)
    if parse is None:
        raise ProgTextError(f"unknown op {op!r}")
    return parse(dst, rest.strip(), s)


def _parse_term(s: str):
    if s.startswith("jmp "):
        return Jump(_label(s[4:]))
    if s.startswith("br "):
        parts = [p.strip() for p in s[3:].split(",")]
        if len(parts) != 3:
            raise ProgTextError(f"bad branch {s!r}")
        cond, t, e = parts
        return Branch(_strip_pct(cond), _label(t), _label(e))
    if s.startswith("switch "):
        m = re.match(r"switch\s+(\S+),\s*\[(.*)\],\s*(\S+)$", s)
        if not m:
            raise ProgTextError(f"bad switch {s!r}")
        cases = []
        if m.group(2).strip():
            for part in m.group(2).split(","):
                k, colon, lbl = part.partition(":")
                if not colon or ":" in lbl:
                    raise ProgTextError(f"bad switch case {part!r} in {s!r}")
                cases.append((_number(k), _label(lbl)))
        return Switch(_strip_pct(m.group(1)), tuple(cases), _label(m.group(3)))
    if s.startswith("ret "):
        return Return(_strip_pct(s[4:]))
    if s.startswith("trap"):
        kind = s[4:].strip() or "explicit"
        return Trap(kind)
    raise ProgTextError(f"bad terminator {s!r}")


def parse_bundle(text: str) -> tuple[Program, list]:
    """Rebuild a program from bundle text: target line, type declarations,
    then functions. Layouts are re-derived, so a bundle is self-contained.
    Every other line reaches the declaration parser as an empty line, so
    that its diagnostics give positions in the bundle."""
    lines = text.splitlines()
    target: Optional[Target] = None
    decl_lines: list[str] = []
    fn_chunks: list[list[str]] = []
    current_fn: Optional[list[str]] = None
    for ln in lines:
        s = ln.strip()
        decl = ""  # the line as the declaration parser sees it
        if current_fn is not None:
            current_fn.append(s)
            if s == "}":
                fn_chunks.append(current_fn)
                current_fn = None
        elif s.startswith("target "):
            name = s.split()[1]
            if name not in BUILTIN_TARGETS:
                raise ProgTextError(f"unknown target {name!r}")
            target = BUILTIN_TARGETS[name]
        elif s.startswith("fn "):
            current_fn = [s]
        elif not s.startswith("#"):
            decl = ln
        decl_lines.append(decl)
    if current_fn is not None:
        raise _unclosed(_parse_function(current_fn).name)
    if target is None:
        raise ProgTextError("bundle lacks a target line")
    try:
        decls = parse_program("\n".join(decl_lines))
        program = Program.of_layouts(process_adts(decls, target), target)
    except (PackingSyntaxError, VerifyError, MonoError, AnnotationInfeasible) as e:
        raise ProgTextError(f"in the type declarations: {e}") from e
    for chunk in fn_chunks:
        fn = _parse_function(chunk)
        program.functions[fn.name] = fn
    return program, decls
