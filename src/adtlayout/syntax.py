"""AST and parser for the bit-level packing language and a small ADT declaration subset.

Parsing performs no semantic checks; verification is a separate pass.
Bit literals are written most-significant bit first, e.g. ``0b_seeeeeff_ffffffff``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

# the deepest nesting of brackets in a type or packing expression
MAX_NESTING = 64


def is_field_bit(ch: str) -> bool:
    return ch.isalpha() and ch.isascii()


class PackingSyntaxError(Exception):
    """Raised on malformed input; carries a stable code and source position."""

    def __init__(self, message: str, line: int, col: int, code: str = "E001"):
        super().__init__(f"{code} at {line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.code = code


# ---------------------------------------------------------------------------
# Packing expressions


# The syntax nodes with a `pos` (packing expressions and declarations, cases
# and ADT declarations) stay frozen dataclasses, which leave `pos` out of
# equality.
@dataclass(frozen=True)
class BitLayout:
    bits: tuple[str, ...]  # MSB first; each one of 0, 1, ?, or a letter
    pos: tuple[int, int] = field(default=(0, 0), compare=False)

    @property
    def width(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class FieldRef:
    name: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Apply:
    name: str
    args: tuple["PackingExpr", ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Concat:
    parts: tuple["PackingExpr", ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Solve:
    parts: tuple["PackingExpr", ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Empty:
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


PackingExpr = Union[BitLayout, FieldRef, Apply, Concat, Solve, Empty]


@dataclass(frozen=True)
class PackingDecl:
    name: str
    params: tuple[tuple[str, int], ...]  # (name, width in bits)
    width: int  # declared width
    body: PackingExpr
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


# ---------------------------------------------------------------------------
# Field types for the ADT subset


class IntType(NamedTuple):
    width: int
    signed: bool


class BoolType(NamedTuple):
    """A record with no fields: an empty tuple, so never tested for truth."""


class FloatType(NamedTuple):
    width: int  # 32 or 64


class TupleType(NamedTuple):
    elems: tuple["TypeExpr", ...]


class NamedType(NamedTuple):
    """A type parameter, a declared ADT instantiation, or an opaque reference type."""

    name: str
    args: tuple["TypeExpr", ...] = ()


TypeExpr = Union[IntType, BoolType, FloatType, TupleType, NamedType]


@dataclass(frozen=True)
class Variant:
    name: str
    fields: tuple[tuple[str, TypeExpr], ...]
    packing: Optional[tuple[PackingExpr, ...]] = None  # one entry per scalar
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class AdtDecl:
    name: str
    type_params: tuple[str, ...]
    variants: tuple[Variant, ...]
    unboxed: bool = False
    captured: bool = False
    # ADT-level packing: exactly one expression per variant, in declaration order.
    packing: Optional[tuple[PackingExpr, ...]] = None
    pos: tuple[int, int] = field(default=(0, 0), compare=False)

    def packing_for_variant(self, index: int) -> Optional[tuple[PackingExpr, ...]]:
        """The per-scalar packing expression list for one variant, from either
        the ADT-level annotation or the case-level one."""
        case = self.variants[index].packing
        if case is not None:
            return case
        if self.packing is not None:
            return (self.packing[index],)
        return None

    @property
    def has_packing(self) -> bool:
        return self.packing is not None or any(v.packing is not None for v in self.variants)


Decl = Union[PackingDecl, AdtDecl]


# ---------------------------------------------------------------------------
# Lexer

_PUNCT = "(){}<>,:;="

# the scalar type names; uN and iN are ASCII digits, N in 1..64
_SCALAR_TYPES = {
    "bool": BoolType(),
    "int": IntType(32, True),
    "byte": IntType(8, False),
    "long": IntType(64, True),
    "short": IntType(16, True),
    "float": FloatType(32),
    "double": FloatType(64),
    "f32": FloatType(32),
    "f64": FloatType(64),
}
_SCALAR_TYPES.update((f"{s}{w}", IntType(w, s == "i")) for s in "ui" for w in range(1, 65))
_INT_NAME = re.compile(r"[ui][0-9]+").fullmatch

_OPERATORS = {"#concat": Concat, "#solve": Solve}

# A token is (kind, text, line, col); kind is one of ident, num, bits, hash,
# punct and eof. No two kinds share a text, so a text names its kind.
_Tok = tuple[str, str, int, int]

# Each run below is read with one match. Digits are ASCII only, as the README
# says. `\w` takes what `str.isalnum` takes, and '_': an annotation continues
# with those, a name with those and '.' (so that packings can refer to
# flattened sub-fields like p.0).
_BITS = re.compile(r"0b[01?_a-zA-Z]*").match
_DIGITS = re.compile(r"[0-9]+").match
_NAME_TAIL = re.compile(r"[\w.]*").match
_HASH = re.compile(r"#\w*").match


def _lex(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    add = toks.append
    i, line, bol = 0, 1, 0  # bol: where the current line begins
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == " ":
            i += 1
        elif ch in _PUNCT:
            add(("punct", ch, line, i - bol + 1))
            i += 1
        elif ch == "\n":
            i += 1
            line += 1
            bol = i
        elif ch.isalpha() or ch == "_":
            j = _NAME_TAIL(src, i + 1).end()
            add(("ident", src[i:j], line, i - bol + 1))
            i = j
        elif "0" <= ch <= "9":
            if src.startswith("0b", i):
                kind, j = "bits", _BITS(src, i).end()
            else:
                kind, j = "num", _DIGITS(src, i).end()
            add((kind, src[i:j], line, i - bol + 1))
            i = j
        elif ch.isspace():
            i += 1
        elif ch == "#":
            j = _HASH(src, i).end()
            if j == i + 1:
                raise PackingSyntaxError("dangling '#'", line, i - bol + 1)
            add(("hash", src[i:j], line, i - bol + 1))
            i = j
        elif src.startswith("//", i):
            j = src.find("\n", i)
            if j < 0:
                break  # eof takes the column where the comment starts
            i = j
        else:
            raise PackingSyntaxError(f"unexpected character {ch!r}", line, i - bol + 1)
    add(("eof", "", line, i - bol + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Recursive descent over the token list. The parser steps past a token
    only after testing that it is not the eof token, which is last, so
    `self.toks[self.i]` is always a token."""

    def __init__(self, src: str):
        self.toks = _lex(src)
        self.i = 0
        self.depth = 0  # brackets open in the expression being parsed

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def err(self, msg: str, tok: Optional[_Tok] = None) -> PackingSyntaxError:
        t = tok or self.toks[self.i]
        return PackingSyntaxError(msg, t[2], t[3])

    def expect(self, kind: str, text: Optional[str] = None) -> _Tok:
        t = self.toks[self.i]
        if t[0] != kind or (text is not None and t[1] != text):
            want = text or kind
            raise self.err(f"expected {want!r}, found {t[1] or t[0]!r}")
        self.i += 1
        return t

    def at_punct(self, text: str) -> bool:
        return self.toks[self.i][1] == text

    def open(self, text: str) -> None:
        """Consume the opening bracket `text`, one nesting level deeper."""
        if self.depth == MAX_NESTING and self.at_punct(text):
            raise self.err(f"nesting deeper than {MAX_NESTING} levels")
        self.expect("punct", text)
        self.depth += 1

    def close(self, text: str) -> None:
        self.expect("punct", text)
        self.depth -= 1

    # -- programs ----------------------------------------------------------

    def program(self) -> list[Decl]:
        decls: list[Decl] = []
        while self.peek()[0] != "eof":
            text = self.peek()[1]
            if text == "packing":
                decls.append(self.packing_decl())
            elif text == "type":
                decls.append(self.adt_decl())
            else:
                raise self.err("expected 'packing' or 'type' declaration")
        return decls

    def packing_decl(self) -> PackingDecl:
        start = self.expect("ident", "packing")
        name = self.expect("ident")[1]
        self.expect("punct", "(")
        params: list[tuple[str, int]] = []
        seen: set[str] = set()
        while not self.at_punct(")"):
            pname_tok = self.expect("ident")
            pname = pname_tok[1]
            if pname in seen:
                raise self.err(f"duplicate parameter {pname!r}", pname_tok)
            seen.add(pname)
            self.expect("punct", ":")
            params.append((pname, int(self.expect("num")[1])))
            if not self.at_punct(")"):
                self.expect("punct", ",")
        self.expect("punct", ")")
        self.expect("punct", ":")
        width = int(self.expect("num")[1])
        self.expect("punct", "=")
        body = self.packing_expr()
        self.expect("punct", ";")
        return PackingDecl(name, tuple(params), width, body, pos=start[2:])

    # -- packing expressions -----------------------------------------------

    def packing_expr(self) -> PackingExpr:
        kind, text, line, col = self.toks[self.i]
        if kind == "bits":
            self.i += 1
            # the lexer admits only 0, 1, ?, _ and ASCII letters after 0b
            bits = tuple(text[2:].replace("_", ""))
            return BitLayout(bits, pos=(line, col)) if bits else Empty(pos=(line, col))
        if kind == "hash":
            op = _OPERATORS.get(text)
            if op is None:
                raise PackingSyntaxError(
                    f"unknown packing operator {text!r}", line, col, code="E002"
                )
            self.i += 1
            return op(self.expr_list_parens(), pos=(line, col))
        if kind == "ident":
            self.i += 1
            if self.at_punct("("):
                return Apply(text, self.expr_list_parens(), pos=(line, col))
            return FieldRef(text, pos=(line, col))
        # empty production
        return Empty(pos=(line, col))

    def expr_list_parens(self) -> tuple[PackingExpr, ...]:
        self.open("(")
        parts: list[PackingExpr] = []
        if not self.at_punct(")"):
            parts.append(self.packing_expr())
            while self.at_punct(","):
                self.i += 1
                parts.append(self.packing_expr())
        self.close(")")
        return tuple(parts)

    # -- ADT declarations ----------------------------------------------------

    def adt_decl(self) -> AdtDecl:
        start = self.expect("ident", "type")
        name = self.expect("ident")[1]
        type_params: list[str] = []
        if self.at_punct("<"):
            self.i += 1
            type_params.append(self.expect("ident")[1])
            while self.at_punct(","):
                self.i += 1
                type_params.append(self.expect("ident")[1])
            self.expect("punct", ">")
        unboxed, captured, packing = self.annotations(allow_marks=True)
        self.expect("punct", "{")
        variants: list[Variant] = []
        while not self.at_punct("}"):
            variants.append(self.case_decl())
        self.expect("punct", "}")
        decl = AdtDecl(
            name,
            tuple(type_params),
            tuple(variants),
            unboxed=unboxed,
            captured=captured,
            packing=packing,
            pos=start[2:],
        )
        if not variants:
            raise self.err(f"type {name} has no cases", start)
        case_names: set[str] = set()
        for v in variants:
            if v.name in case_names:
                raise PackingSyntaxError(f"type {name} has two cases named {v.name}", *v.pos)
            case_names.add(v.name)
            field_names: set[str] = set()
            for f, _ in v.fields:
                if f in field_names:
                    raise PackingSyntaxError(f"case {v.name} has two fields named {f}", *v.pos)
                field_names.add(f)
        if packing is not None:
            if any(v.packing is not None for v in variants):
                raise self.err("cannot mix type-level and case-level #packing", start)
            if len(packing) != len(variants):
                raise self.err(
                    f"type-level #packing has {len(packing)} entries "
                    f"for {len(variants)} cases",
                    start,
                )
        return decl

    def annotations(self, allow_marks: bool) -> tuple[bool, bool, Optional[tuple[PackingExpr, ...]]]:
        unboxed = captured = False
        packing: Optional[tuple[PackingExpr, ...]] = None
        while self.peek()[0] == "hash":
            t = self.expect("hash")
            text = t[1]
            if text == "#unboxed" and allow_marks:
                unboxed = True
            elif text == "#captured" and allow_marks:
                captured = True
            elif text in ("#packing", "#packed"):
                if packing is not None:
                    raise self.err("duplicate #packing annotation", t)
                if self.at_punct("("):
                    packing = self.expr_list_parens()
                else:
                    packing = (self.packing_expr(),)
            else:
                raise PackingSyntaxError(f"unknown annotation {text!r}", *t[2:], code="E002")
        return unboxed, captured, packing

    def case_decl(self) -> Variant:
        start = self.expect("ident", "case")
        name = self.expect("ident")[1]
        fields: list[tuple[str, TypeExpr]] = []
        if self.at_punct("("):
            self.i += 1
            while not self.at_punct(")"):
                t = self.expect("ident")
                if "." in t[1]:  # a '.' names a scalar of a tuple field, as t.0
                    raise self.err(f"field name {t[1]} holds a '.'", t)
                self.expect("punct", ":")
                fields.append((t[1], self.type_expr()))
                if not self.at_punct(")"):
                    self.expect("punct", ",")
            self.expect("punct", ")")
        _, _, packing = self.annotations(allow_marks=False)
        self.expect("punct", ";")
        return Variant(name, tuple(fields), packing=packing, pos=start[2:])

    def type_expr(self) -> TypeExpr:
        name = self.toks[self.i][1]
        if name == "(":
            elems = self.type_list("(", ")")
            return elems[0] if len(elems) == 1 else TupleType(tuple(elems))
        scalar = _SCALAR_TYPES.get(name)  # only an ident has such a text
        if scalar is not None:
            self.i += 1
            return scalar
        t = self.expect("ident")
        if _INT_NAME(name):  # width 0, past 64, or written with leading zeros
            width = int(name[1:])
            if not 1 <= width <= 64:
                raise self.err(f"integer width {width} out of range 1..64", t)
            return IntType(width, name[0] == "i")
        args = tuple(self.type_list("<", ">")) if self.at_punct("<") else ()
        return NamedType(name, args)

    def type_list(self, opener: str, closer: str) -> list[TypeExpr]:
        """One or more comma-separated types between `opener` and `closer`."""
        self.open(opener)
        elems = [self.type_expr()]
        while self.at_punct(","):
            self.i += 1
            elems.append(self.type_expr())
        self.close(closer)
        return elems


# ---------------------------------------------------------------------------
# Entry points


def parse_program(source: str) -> list[Decl]:
    """Parse packing and type declarations; returns ASTs in source order."""
    return _Parser(source).program()


def parse_packing_expr(source: str) -> PackingExpr:
    p = _Parser(source)
    e = p.packing_expr()
    if p.peek()[0] != "eof":
        raise p.err("trailing input after packing expression")
    return e


def parse_type(source: str) -> TypeExpr:
    p = _Parser(source)
    t = p.type_expr()
    if p.peek()[0] != "eof":
        raise p.err("trailing input after type")
    return t


# ---------------------------------------------------------------------------
# Printing (canonical form; re-parsing yields a structurally identical AST)


def print_expr(e: PackingExpr) -> str:
    if isinstance(e, Empty):
        return "0b"
    if isinstance(e, BitLayout):
        groups = []
        bits = "".join(e.bits)
        for k in range(0, len(bits), 8):
            groups.append(bits[k : k + 8])
        return "0b_" + "_".join(groups)
    if isinstance(e, FieldRef):
        return e.name
    if isinstance(e, Apply):
        return f"{e.name}({', '.join(print_expr(a) for a in e.args)})"
    if isinstance(e, Concat):
        return f"#concat({', '.join(print_expr(a) for a in e.parts)})"
    if isinstance(e, Solve):
        return f"#solve({', '.join(print_expr(a) for a in e.parts)})"
    raise TypeError(f"not a packing expression: {e!r}")


def print_type(t: TypeExpr) -> str:
    if isinstance(t, BoolType):
        return "bool"
    if isinstance(t, IntType):
        return f"{'i' if t.signed else 'u'}{t.width}"
    if isinstance(t, FloatType):
        return f"f{t.width}"
    if isinstance(t, TupleType):
        return "(" + ", ".join(print_type(e) for e in t.elems) + ")"
    if isinstance(t, NamedType):
        if t.args:
            return f"{t.name}<{', '.join(print_type(a) for a in t.args)}>"
        return t.name
    raise TypeError(f"not a type: {t!r}")


def print_decl(d: Decl) -> str:
    if isinstance(d, PackingDecl):
        params = ", ".join(f"{n}: {w}" for n, w in d.params)
        return f"packing {d.name}({params}): {d.width} = {print_expr(d.body)};"
    lines = [f"type {d.name}"]
    if d.type_params:
        lines[0] += f"<{', '.join(d.type_params)}>"
    if d.unboxed:
        lines[0] += " #unboxed"
    if d.captured:
        lines[0] += " #captured"
    if d.packing is not None:
        lines[0] += f" #packing({', '.join(print_expr(e) for e in d.packing)})"
    lines[0] += " {"
    for v in d.variants:
        row = f"  case {v.name}"
        if v.fields:
            row += "(" + ", ".join(f"{n}: {print_type(t)}" for n, t in v.fields) + ")"
        if v.packing is not None:
            row += f" #packing({', '.join(print_expr(e) for e in v.packing)})"
        row += ";"
        lines.append(row)
    lines.append("}")
    return "\n".join(lines)


def print_program(decls: list[Decl]) -> str:
    return "\n".join(print_decl(d) for d in decls) + "\n"
