"""Recursive-descent parser for Scilla.

The accepted grammar follows the real Scilla concrete syntax closely:
A-normal-form expressions, ``let``/``fun``/``tfun``/``match``/
``builtin``, message records in braces, and the statement forms of
Fig. 4 (loads, stores, map operations, ``accept``/``send``/``event``/
``throw``, and procedure calls).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from .ast import (
    Accept, App, Atom, Bind, BinderPat, Builtin, CallProc, Component,
    Constr, ConstructorPat, Contract, Event, Expr, Field, Fun, Ident,
    Let, LibEntry, LibTypeDef, Library, LitAtom, Literal, Load, MapDelete, MapGet, MapGetExists, MapUpdate, MatchExpr, MatchStmt,
    MessageExpr, Module, Param, Pattern, ReadBlockchain, Send, Stmt,
    Store, TApp, TFun, Throw, Var, WildcardPat,
)
from .errors import ParseError
from .lexer import Token, tokenize
from .types import (
    ADTType, FunType, MapType, ScillaType, TypeVar,
    BYSTR_NAMES, INT_TYPE_NAMES, PRIM_TYPE_NAMES, STRING, int_bounds, prim,
)

BLOCKCHAIN_ENTRIES = {"BLOCKNUMBER", "TIMESTAMP", "CHAINID"}


class Parser:
    def __init__(self, tokens: list[Token], source_name: str = "<unknown>"):
        self.tokens = tokens
        self.pos = 0
        self.source_name = source_name

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, value: str | None = None, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok.kind == kind and (value is None or tok.value == value)

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.value!r}", tok.loc)
        return self.next()

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek().loc)

    # -- types --------------------------------------------------------------

    def parse_type(self) -> ScillaType:
        left = self.parse_type_app()
        if self.at("sym", "->"):
            self.next()
            return FunType(left, self.parse_type())
        return left

    def parse_type_app(self) -> ScillaType:
        tok = self.peek()
        if tok.kind == "cid":
            name = tok.value
            if name == "Map":
                self.next()
                kt = self.parse_type_atom()
                vt = self.parse_type_atom()
                return MapType(kt, vt)
            if name in PRIM_TYPE_NAMES:
                self.next()
                return prim(name)
            # ADT, possibly applied to type atoms.
            self.next()
            targs: list[ScillaType] = []
            while self._at_type_atom():
                targs.append(self.parse_type_atom())
            return ADTType(name, tuple(targs))
        return self.parse_type_atom()

    def _at_type_atom(self) -> bool:
        return self.at("cid") or self.at("tvar") or self.at("sym", "(")

    def parse_type_atom(self) -> ScillaType:
        tok = self.peek()
        if tok.kind == "tvar":
            self.next()
            return TypeVar(tok.value)
        if tok.kind == "cid":
            name = tok.value
            self.next()
            if name == "Map":
                raise ParseError("Map requires parentheses in atom position", tok.loc)
            if name in PRIM_TYPE_NAMES:
                return prim(name)
            return ADTType(name)
        if self.at("sym", "("):
            self.next()
            t = self.parse_type()
            self.expect("sym", ")")
            return t
        raise self.error(f"expected a type, found {tok.value!r}")

    # -- atoms and literals --------------------------------------------------

    def _int_literal(self, type_name: str) -> LitAtom:
        """Parse ``Uint128 42``-style literal; the CID was just consumed."""
        tok = self.expect("int")
        value = int(tok.value)
        typ = prim(type_name)
        if type_name != "BNum":
            lo, hi = int_bounds(typ)
            if not lo <= value <= hi:
                raise ParseError(
                    f"literal {value} out of range for {type_name}", tok.loc)
        elif value < 0:
            raise ParseError("block numbers cannot be negative", tok.loc)
        return LitAtom(value, typ, tok.loc)

    def _hex_literal(self, tok: Token) -> LitAtom:
        body = tok.value[2:]
        if len(body) % 2 != 0:
            raise ParseError("hex literal must have an even number of digits", tok.loc)
        nbytes = len(body) // 2
        name = f"ByStr{nbytes}" if f"ByStr{nbytes}" in BYSTR_NAMES else "ByStr"
        return LitAtom(tok.value, prim(name), tok.loc)

    def _at_atom(self) -> bool:
        if self.at("id") or self.at("string") or self.at("hex"):
            return True
        # ``Uint128 42`` literal in atom position.
        return (
            self.at("cid")
            and (self.peek().value in INT_TYPE_NAMES
                 or self.peek().value == "BNum")
            and self.at("int", offset=1)
        )

    def parse_atom(self) -> Atom:
        tok = self.peek()
        if tok.kind == "id":
            self.next()
            return Ident(tok.value, tok.loc)
        if tok.kind == "string":
            self.next()
            return LitAtom(tok.value, STRING, tok.loc)
        if tok.kind == "hex":
            self.next()
            return self._hex_literal(tok)
        if tok.kind == "cid" and (tok.value in INT_TYPE_NAMES
                                  or tok.value == "BNum"):
            self.next()
            return self._int_literal(tok.value)
        raise self.error(
            f"expected an atom (identifier or literal), found {tok.value!r}"
        )

    # -- patterns ------------------------------------------------------------

    def parse_pattern(self) -> Pattern:
        tok = self.peek()
        if tok.kind == "cid":
            self.next()
            args: list[Pattern] = []
            while self._at_pattern_atom():
                args.append(self.parse_pattern_atom())
            return ConstructorPat(tok.value, tuple(args), tok.loc)
        return self.parse_pattern_atom()

    def _at_pattern_atom(self) -> bool:
        return (
            self.at("id") or self.at("cid") or self.at("sym", "_")
            or self.at("sym", "(")
        )

    def parse_pattern_atom(self) -> Pattern:
        tok = self.peek()
        if tok.kind == "sym" and tok.value == "_":
            self.next()
            return WildcardPat(tok.loc)
        if tok.kind == "id":
            self.next()
            return BinderPat(tok.value, tok.loc)
        if tok.kind == "cid":
            self.next()
            return ConstructorPat(tok.value, (), tok.loc)
        if tok.kind == "sym" and tok.value == "(":
            self.next()
            pat = self.parse_pattern()
            self.expect("sym", ")")
            return pat
        raise self.error(f"expected a pattern, found {tok.value!r}")

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        tok = self.peek()
        if tok.kind == "keyword":
            if tok.value == "let":
                return self._parse_let()
            if tok.value == "fun":
                return self._parse_fun()
            if tok.value == "tfun":
                return self._parse_tfun()
            if tok.value == "match":
                return self._parse_match_expr()
            if tok.value == "builtin":
                return self._parse_builtin()
            if tok.value == "Emp":
                return self._parse_emp()
        if tok.kind == "sym" and tok.value == "{":
            return self._parse_message()
        if tok.kind == "sym" and tok.value == "@":
            return self._parse_tapp()
        return self._parse_app_or_atom()

    def _parse_let(self) -> Let:
        loc = self.expect("keyword", "let").loc
        name = self.expect("id").value
        annot: ScillaType | None = None
        if self.at("sym", ":"):
            self.next()
            annot = self.parse_type()
        self.expect("sym", "=")
        bound = self.parse_expr()
        self.expect("keyword", "in")
        body = self.parse_expr()
        return Let(name, annot, bound, body, loc)

    def _parse_fun(self) -> Fun:
        loc = self.expect("keyword", "fun").loc
        self.expect("sym", "(")
        name = self.expect("id").value
        self.expect("sym", ":")
        typ = self.parse_type()
        self.expect("sym", ")")
        self.expect("sym", "=>")
        body = self.parse_expr()
        return Fun(name, typ, body, loc)

    def _parse_tfun(self) -> TFun:
        loc = self.expect("keyword", "tfun").loc
        tv = self.expect("tvar").value
        self.expect("sym", "=>")
        body = self.parse_expr()
        return TFun(tv, body, loc)

    def _parse_match_expr(self) -> MatchExpr:
        loc = self.expect("keyword", "match").loc
        scrutinee = self.expect("id")
        self.expect("keyword", "with")
        clauses: list[tuple[Pattern, Expr]] = []
        while self.at("sym", "|"):
            self.next()
            pat = self.parse_pattern()
            self.expect("sym", "=>")
            clauses.append((pat, self.parse_expr()))
        self.expect("keyword", "end")
        if not clauses:
            raise ParseError("match expression with no clauses", loc)
        return MatchExpr(Ident(scrutinee.value, scrutinee.loc), tuple(clauses), loc)

    def _parse_builtin(self) -> Builtin:
        loc = self.expect("keyword", "builtin").loc
        name_tok = self.peek()
        if name_tok.kind not in ("id", "keyword"):
            raise self.error(f"expected builtin name, found {name_tok.value!r}")
        self.next()
        args: list[Atom] = [self.parse_atom()]
        while self._at_atom():
            args.append(self.parse_atom())
        return Builtin(name_tok.value, tuple(args), loc)

    def _parse_emp(self) -> Literal:
        loc = self.expect("keyword", "Emp").loc
        kt = self.parse_type_atom()
        vt = self.parse_type_atom()
        return Literal({}, MapType(kt, vt), loc)

    def _parse_message(self) -> MessageExpr:
        loc = self.expect("sym", "{").loc
        fields: list[tuple[str, Atom]] = []
        while not self.at("sym", "}"):
            name = self.expect("id").value
            self.expect("sym", ":")
            fields.append((name, self.parse_atom()))
            if self.at("sym", ";"):
                self.next()
            else:
                break
        self.expect("sym", "}")
        return MessageExpr(tuple(fields), loc)

    def _parse_tapp(self) -> Expr:
        loc = self.expect("sym", "@").loc
        func = self.expect("id")
        targs: list[ScillaType] = []
        while self._at_type_atom():
            targs.append(self.parse_type_atom())
        if not targs:
            raise ParseError("type application requires at least one type", loc)
        return TApp(Ident(func.value, func.loc), tuple(targs), loc)

    def _parse_app_or_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "cid":
            # Either an integer literal (``Uint128 1``) or a constructor.
            if (tok.value in INT_TYPE_NAMES or tok.value == "BNum") \
                    and self.at("int", offset=1):
                self.next()
                lit = self._int_literal(tok.value)
                return Literal(lit.value, lit.typ, tok.loc)
            return self._parse_constr()
        if tok.kind == "string":
            self.next()
            return Literal(tok.value, STRING, tok.loc)
        if tok.kind == "hex":
            self.next()
            lit = self._hex_literal(tok)
            return Literal(lit.value, lit.typ, tok.loc)
        if tok.kind == "id":
            self.next()
            func = Ident(tok.value, tok.loc)
            args: list[Atom] = []
            while self._at_atom():
                args.append(self.parse_atom())
            if args:
                return App(func, tuple(args), tok.loc)
            return Var(tok.value, tok.loc)
        raise self.error(f"expected an expression, found {tok.value!r}")

    def _parse_constr(self) -> Constr:
        tok = self.expect("cid")
        targs: list[ScillaType] = []
        # Both Scilla styles are accepted: one brace group with all the
        # type arguments (`Pair {T U}`) or one group per argument
        # (`Pair {T} {U}`, the upstream concrete syntax).
        while self.at("sym", "{"):
            self.next()
            while not self.at("sym", "}"):
                targs.append(self.parse_type_atom())
            self.expect("sym", "}")
        args: list[Atom] = []
        while self._at_atom():
            args.append(self.parse_atom())
        return Constr(tok.value, tuple(targs), tuple(args), tok.loc)

    # -- statements ------------------------------------------------------------

    def parse_statements(self, terminators: tuple[str, ...]) -> tuple[Stmt, ...]:
        """Parse ``;``-separated statements until a terminator token."""
        stmts: list[Stmt] = []
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind == "keyword" and tok.value in terminators:
                break
            if tok.kind == "sym" and tok.value in terminators:
                break
            stmts.append(self.parse_statement())
            if self.at("sym", ";"):
                self.next()
            else:
                break
        return tuple(stmts)

    def parse_statement(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "keyword":
            if tok.value == "accept":
                self.next()
                return Accept(tok.loc)
            if tok.value == "send":
                self.next()
                return Send(self.parse_atom(), tok.loc)
            if tok.value == "event":
                self.next()
                return Event(self.parse_atom(), tok.loc)
            if tok.value == "throw":
                self.next()
                arg = self.parse_atom() if self._at_atom() else None
                return Throw(arg, tok.loc)
            if tok.value == "delete":
                self.next()
                mapname = self.expect("id").value
                keys = self._parse_map_keys(required=True)
                return MapDelete(mapname, keys, tok.loc)
            if tok.value == "match":
                return self._parse_match_stmt()
        if tok.kind == "cid":
            # Procedure call: CID atom*
            self.next()
            args: list[Atom] = []
            while self._at_atom():
                args.append(self.parse_atom())
            return CallProc(tok.value, tuple(args), tok.loc)
        if tok.kind == "id":
            return self._parse_id_statement()
        raise self.error(f"expected a statement, found {tok.value!r}")

    def _parse_map_keys(self, required: bool = False) -> tuple[Atom, ...]:
        keys: list[Atom] = []
        while self.at("sym", "["):
            self.next()
            keys.append(self.parse_atom())
            self.expect("sym", "]")
        if required and not keys:
            raise self.error("expected at least one map key")
        return tuple(keys)

    def _parse_id_statement(self) -> Stmt:
        name_tok = self.expect("id")
        name = name_tok.value
        if self.at("sym", "<-"):
            self.next()
            if self.at("sym", "&"):
                self.next()
                entry = self.expect("cid").value
                if entry not in BLOCKCHAIN_ENTRIES:
                    raise ParseError(f"unknown blockchain entry {entry}", name_tok.loc)
                return ReadBlockchain(name, entry, name_tok.loc)
            if self.at("keyword", "exists"):
                self.next()
                mapname = self.expect("id").value
                keys = self._parse_map_keys(required=True)
                return MapGetExists(name, mapname, keys, name_tok.loc)
            src = self.expect("id").value
            keys = self._parse_map_keys()
            if keys:
                return MapGet(name, src, keys, name_tok.loc)
            return Load(name, src, name_tok.loc)
        if self.at("sym", "["):
            keys = self._parse_map_keys(required=True)
            self.expect("sym", ":=")
            return MapUpdate(name, keys, self.parse_atom(), name_tok.loc)
        if self.at("sym", ":="):
            self.next()
            return Store(name, self.parse_atom(), name_tok.loc)
        if self.at("sym", "="):
            self.next()
            return Bind(name, self.parse_expr(), name_tok.loc)
        raise self.error(f"malformed statement starting with {name!r}")

    def _parse_match_stmt(self) -> MatchStmt:
        loc = self.expect("keyword", "match").loc
        scrutinee = self.expect("id")
        self.expect("keyword", "with")
        clauses: list[tuple[Pattern, tuple[Stmt, ...]]] = []
        while self.at("sym", "|"):
            self.next()
            pat = self.parse_pattern()
            self.expect("sym", "=>")
            body = self.parse_statements(terminators=("end", "|"))
            clauses.append((pat, body))
        self.expect("keyword", "end")
        if not clauses:
            raise ParseError("match statement with no clauses", loc)
        return MatchStmt(Ident(scrutinee.value, scrutinee.loc), tuple(clauses), loc)

    # -- top level ----------------------------------------------------------------

    def parse_params(self) -> tuple[Param, ...]:
        self.expect("sym", "(")
        params: list[Param] = []
        while not self.at("sym", ")"):
            name_tok = self.expect("id")
            self.expect("sym", ":")
            typ = self.parse_type()
            params.append(Param(name_tok.value, typ, name_tok.loc))
            if self.at("sym", ","):
                self.next()
        self.expect("sym", ")")
        return tuple(params)

    def parse_library(self) -> Library:
        self.expect("keyword", "library")
        name = self.expect("cid").value
        entries: list[LibEntry | LibTypeDef] = []
        while True:
            if self.at("keyword", "let"):
                loc = self.next().loc
                ename = self.expect("id").value
                annot: ScillaType | None = None
                if self.at("sym", ":"):
                    self.next()
                    annot = self.parse_type()
                self.expect("sym", "=")
                entries.append(LibEntry(ename, annot, self.parse_expr(), loc))
            elif self.at("keyword", "type"):
                loc = self.next().loc
                tname = self.expect("cid").value
                constructors: list[tuple[str, tuple[ScillaType, ...]]] = []
                if self.at("sym", "="):
                    self.next()
                    while self.at("sym", "|"):
                        self.next()
                        cname = self.expect("cid").value
                        arg_types: list[ScillaType] = []
                        if self.at("keyword", "of"):
                            self.next()
                            arg_types.append(self.parse_type_atom())
                            while self._at_type_atom():
                                arg_types.append(self.parse_type_atom())
                        constructors.append((cname, tuple(arg_types)))
                entries.append(LibTypeDef(tname, tuple(constructors), loc))
            else:
                break
        return Library(name, tuple(entries))

    def parse_contract(self) -> Contract:
        loc = self.expect("keyword", "contract").loc
        name = self.expect("cid").value
        params = self.parse_params() if self.at("sym", "(") else ()
        fields: list[Field] = []
        while self.at("keyword", "field"):
            floc = self.next().loc
            fname = self.expect("id").value
            self.expect("sym", ":")
            ftyp = self.parse_type()
            self.expect("sym", "=")
            fields.append(Field(fname, ftyp, self.parse_expr(), floc))
        components: list[Component] = []
        while self.at("keyword", "transition") or self.at("keyword", "procedure"):
            kind_tok = self.next()
            cname = self.expect("cid").value
            cparams = self.parse_params() if self.at("sym", "(") else ()
            body = self.parse_statements(terminators=("end",))
            self.expect("keyword", "end")
            components.append(
                Component(kind_tok.value, cname, cparams, body, kind_tok.loc)
            )
        return Contract(name, params, tuple(fields), tuple(components), loc)

    def parse_module(self) -> Module:
        version = 0
        if self.at("keyword", "scilla_version"):
            self.next()
            version = int(self.expect("int").value)
        library = self.parse_library() if self.at("keyword", "library") else None
        contract = self.parse_contract()
        self.expect("eof")
        return Module(version, library, contract, self.source_name)


def parse_module(source: str, source_name: str = "<unknown>") -> Module:
    """Parse a complete ``.scilla`` module from source text."""
    module = Parser(tokenize(source), source_name).parse_module()
    return replace(module, source_hash=hashlib.sha256(
        source.encode()).hexdigest())


def parse_expression(source: str) -> Expr:
    """Parse a standalone Scilla expression (used in tests and the REPL)."""
    parser = Parser(tokenize(source))
    expr = parser.parse_expr()
    parser.expect("eof")
    return expr


def parse_type_str(source: str) -> ScillaType:
    """Parse a standalone Scilla type."""
    parser = Parser(tokenize(source))
    typ = parser.parse_type()
    parser.expect("eof")
    return typ
