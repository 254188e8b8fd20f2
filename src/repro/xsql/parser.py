"""Recursive-descent parser for XSQL.

Variable recognition follows the paper's usage: a plain identifier denotes a
variable when it is declared in a FROM clause (``FROM Person X``) or when it
looks like the paper's variable names — a single uppercase letter optionally
followed by digits (``X``, ``Y``, ``W``, ``M``, ``X1``).  Everything else is
a name (class, method, or object id).  Class variables are written ``#X``
(the paper's ``§X``), method variables ``"Y``, and path variables ``*Y``.

The parser produces the raw AST; :mod:`repro.xsql.normalize` then unifies
variable sorts across occurrences and desugars path-expression arguments of
method expressions and id-terms exactly as §5 prescribes.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Set, Tuple, Union

from repro.errors import XsqlSyntaxError
from repro.oid import NIL, Atom, Oid, Value, Variable, VarSort
from repro.xsql import ast
from repro.xsql.lexer import Token, literal_value, split_statements, tokenize
from repro.xsql.normalize import desugar, unify_variable_sorts

__all__ = [
    "parse_query",
    "parse_statement",
    "parse_statement_raw",
    "parse_tokens",
    "parse_statements",
    "normalize_statement",
]

_VARLIKE_RE = re.compile(r"^[A-Z][0-9]*$")

_WORD_COMPARATORS = {
    "contains": "contains",
    "containseq": "containsEq",
    "subset": "subset",
    "subseteq": "subsetEq",
}

_AGG_FUNCTIONS = ("count", "sum", "avg", "min", "max")


class _Parser:
    def __init__(self, tokens: List[Token], outer_vars: Set[str]) -> None:
        self._tokens = tokens
        self._pos = 0
        # Names known to be variables (FROM-declared here or in an
        # enclosing query, for correlated subqueries).
        self._declared_vars: Set[str] = set(outer_vars)

    # -- token plumbing -------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self) -> Token:
        token = self._peek()
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> XsqlSyntaxError:
        token = token or self._peek()
        return XsqlSyntaxError(message, token.line, token.column)

    def _expect_keyword(self, name: str) -> Token:
        token = self._next()
        if not token.is_keyword(name):
            raise self._error(f"expected {name.upper()}, got {token.text!r}", token)
        return token

    def _expect_punct(self, char: str) -> Token:
        token = self._next()
        if not token.is_punct(char):
            raise self._error(f"expected {char!r}, got {token.text!r}", token)
        return token

    def _expect_ident(self) -> Token:
        token = self._next()
        if token.kind != "IDENT":
            raise self._error(f"expected a name, got {token.text!r}", token)
        return token

    def at_end(self) -> bool:
        return self._peek().kind == "EOF"

    # -- variable recognition --------------------------------------------

    def _is_var_name(self, name: str) -> bool:
        return name in self._declared_vars or bool(_VARLIKE_RE.match(name))

    def _prescan_from_vars(self) -> None:
        """Collect FROM-declared variable names before parsing SELECT.

        Scans ahead (at the current nesting depth) for the FROM clause of
        the query that starts at the current position and registers every
        second identifier of each ``Class Var`` pair.
        """
        depth = 0
        index = self._pos
        tokens = self._tokens
        while index < len(tokens):
            token = tokens[index]
            if token.is_punct("("):
                depth += 1
            elif token.is_punct(")"):
                if depth == 0:
                    return
                depth -= 1
            elif depth == 0 and token.is_keyword("from"):
                index += 1
                while index < len(tokens):
                    cls_tok = tokens[index]
                    if cls_tok.kind not in ("IDENT", "CLASSVAR"):
                        return
                    var_tok = tokens[index + 1] if index + 1 < len(tokens) else None
                    if var_tok is None or var_tok.kind != "IDENT":
                        return
                    self._declared_vars.add(var_tok.text)
                    if cls_tok.kind == "CLASSVAR":
                        self._declared_vars.add(cls_tok.text)
                    index += 2
                    if index < len(tokens) and tokens[index].is_punct(","):
                        index += 1
                    else:
                        return
            elif depth == 0 and token.is_keyword(
                "where", "union", "minus", "intersect"
            ):
                return
            index += 1

    # -- statements -------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        token = self._peek()
        if token.is_keyword("create"):
            if self._peek(1).is_keyword("view"):
                return self._parse_create_view()
            if self._peek(1).is_keyword("class"):
                return self._parse_create_class()
            if self._peek(1).is_keyword("relation"):
                return self._parse_create_relation()
            raise self._error("expected VIEW, CLASS, or RELATION after CREATE")
        if token.is_keyword("alter"):
            return self._parse_alter_class()
        if token.is_keyword("update"):
            return self._parse_update_class()
        if token.is_keyword("insert"):
            return self._parse_insert()
        if token.is_keyword("select"):
            return self.parse_query_expr()
        raise self._error(f"unexpected statement start {token.text!r}")

    def parse_query_expr(self) -> Union[ast.Query, ast.QueryOp]:
        left: Union[ast.Query, ast.QueryOp] = self.parse_query()
        while self._peek().is_keyword("union", "minus", "intersect"):
            op = self._next().text
            right = self.parse_query()
            left = ast.QueryOp(op, left, right)
        return left

    # -- queries ----------------------------------------------------------

    def parse_query(self) -> ast.Query:
        self._prescan_from_vars()
        self._expect_keyword("select")
        select_items = [self._parse_select_item()]
        while self._peek().is_punct(","):
            self._next()
            select_items.append(self._parse_select_item())

        from_decls: List[ast.FromDecl] = []
        oid_vars: Optional[Tuple[Variable, ...]] = None
        oid_scope: Optional[Variable] = None
        where: Optional[ast.Cond] = None

        while True:
            token = self._peek()
            if token.is_keyword("from"):
                self._next()
                from_decls.append(self._parse_from_decl())
                while self._peek().is_punct(","):
                    self._next()
                    from_decls.append(self._parse_from_decl())
            elif token.is_keyword("oid"):
                self._next()
                if self._peek().is_keyword("function"):
                    self._next()
                    self._expect_keyword("of")
                    names = [self._parse_plain_variable()]
                    while self._peek().is_punct(","):
                        self._next()
                        names.append(self._parse_plain_variable())
                    oid_vars = tuple(names)
                else:
                    oid_scope = self._parse_plain_variable()
            elif token.is_keyword("where"):
                self._next()
                where = self._parse_cond()
            else:
                break

        return ast.Query(
            select=tuple(select_items),
            from_=tuple(from_decls),
            where=where,
            oid_vars=oid_vars,
            oid_scope=oid_scope,
        )

    def _parse_plain_variable(self) -> Variable:
        token = self._expect_ident()
        self._declared_vars.add(token.text)
        return Variable(token.text, VarSort.INDIVIDUAL)

    def _parse_from_decl(self) -> ast.FromDecl:
        token = self._next()
        cls: Union[Atom, Variable]
        if token.kind == "CLASSVAR":
            cls = Variable(token.text, VarSort.CLASS)
            self._declared_vars.add(token.text)
        elif token.kind == "IDENT":
            cls = Atom(token.text)
        else:
            raise self._error("expected a class name or #variable in FROM", token)
        var_token = self._expect_ident()
        self._declared_vars.add(var_token.text)
        return ast.FromDecl(cls, Variable(var_token.text, VarSort.INDIVIDUAL))

    # -- SELECT items -------------------------------------------------------

    def _parse_select_item(self) -> ast.SelectItem:
        token = self._peek()
        # `(Mthd @ args) = value` — query-defined method results (§5).
        if token.is_punct("(") and self._looks_like_method_expr():
            method, args = self._parse_parenthesized_method()
            self._expect_op("=")
            value = self._parse_operand()
            return ast.MethodItem(method=method, args=tuple(args), value=value)
        # `Name = {W}` or `Name = path` — explicitly named attributes
        # (§4.1).  SELECT items cannot be comparisons, so IDENT '=' always
        # introduces a name here, even when it looks like a variable.
        if token.kind == "IDENT" and self._peek(1).is_op("="):
            name = self._next().text
            self._next()  # '='
            if self._peek().is_punct("{"):
                self._next()
                var = self._parse_plain_variable()
                self._expect_punct("}")
                return ast.SetItem(var=var, name=name)
            value = self._parse_operand()
            path = self._operand_as_path(value)
            return ast.PathItem(path=path, name=name)
        value = self._parse_operand()
        return ast.PathItem(path=self._operand_as_path(value))

    def _operand_as_path(self, operand: ast.Operand) -> ast.PathExpr:
        if isinstance(operand, ast.PathOperand):
            return operand.path
        raise self._error("SELECT items must be path expressions")

    def _looks_like_method_expr(self) -> bool:
        """Does '(' open a ``(Mthd @ ...)`` method expression here?"""
        depth = 0
        index = self._pos
        while index < len(self._tokens):
            token = self._tokens[index]
            if token.is_punct("("):
                depth += 1
            elif token.is_punct(")"):
                depth -= 1
                if depth == 0:
                    return False
            elif token.is_punct("@") and depth == 1:
                return True
            elif token.is_keyword("select"):
                return False
            index += 1
        return False

    def _parse_parenthesized_method(self) -> Tuple[Atom, List[object]]:
        self._expect_punct("(")
        name_token = self._expect_ident()
        self._expect_punct("@")
        args: List[object] = []
        if not self._peek().is_punct(")"):
            args.append(self._parse_method_argument())
            while self._peek().is_punct(","):
                self._next()
                args.append(self._parse_method_argument())
        self._expect_punct(")")
        return Atom(name_token.text), args

    def _parse_method_argument(self) -> object:
        """A method argument: an id-term or (to be desugared) a path."""
        operand = self._parse_operand()
        if isinstance(operand, ast.PathOperand):
            path = operand.path
            if path.is_trivial:
                return path.head
            return path
        raise self._error("method arguments must be id-terms or paths")

    # -- conditions -----------------------------------------------------------

    def _parse_cond(self) -> ast.Cond:
        return self._parse_or()

    def _parse_or(self) -> ast.Cond:
        items = [self._parse_and()]
        while self._peek().is_keyword("or"):
            self._next()
            items.append(self._parse_and())
        if len(items) == 1:
            return items[0]
        return ast.OrCond(tuple(items))

    def _parse_and(self) -> ast.Cond:
        items = [self._parse_not()]
        while self._peek().is_keyword("and"):
            self._next()
            items.append(self._parse_not())
        if len(items) == 1:
            return items[0]
        return ast.AndCond(tuple(items))

    def _parse_not(self) -> ast.Cond:
        if self._peek().is_keyword("not"):
            self._next()
            return ast.NotCond(self._parse_not())
        return self._parse_primary_cond()

    def _parse_primary_cond(self) -> ast.Cond:
        token = self._peek()
        if token.is_keyword("update"):
            return ast.UpdateCond(self._parse_update_class())
        if token.is_punct("(") and self._peek(1).is_keyword("update"):
            self._next()
            update = self._parse_update_class()
            self._expect_punct(")")
            return ast.UpdateCond(update)
        # '(' cond ')' vs an operand-led comparison: try the comparison
        # first (it covers parenthesized arithmetic and subqueries), fall
        # back to a parenthesized condition.
        if token.is_punct("("):
            saved = self._pos
            try:
                return self._parse_comparison_or_path()
            except XsqlSyntaxError:
                self._pos = saved
            self._next()  # '('
            cond = self._parse_cond()
            self._expect_punct(")")
            return cond
        return self._parse_comparison_or_path()

    def _parse_quantifier(self) -> Optional[str]:
        if self._peek().is_keyword("some", "all"):
            return self._next().text
        return None

    def _parse_comparison_or_path(self) -> ast.Cond:
        lhs = self._parse_operand()
        token = self._peek()

        if token.is_keyword("subclassof", "instanceof", "applicableto"):
            kind = {
                "subclassof": "subclassOf",
                "instanceof": "instanceOf",
                "applicableto": "applicableTo",
            }[token.text]
            self._next()
            left_term = self._operand_as_term(lhs)
            rhs = self._parse_operand()
            right_term = self._operand_as_term(rhs)
            if kind == "applicableTo" and isinstance(left_term, Variable):
                # the left side ranges over method-objects; coerce so the
                # sort-unification pass propagates it to SELECT etc.
                left_term = Variable(left_term.name, VarSort.METHOD)
            return ast.SchemaCond(kind, left_term, right_term)

        lq = None
        if token.is_keyword("some", "all"):
            lq = self._next().text
            token = self._peek()

        if token.kind == "OP" and token.text in ("=", "!=", "<", "<=", ">", ">="):
            op = self._next().text
            rq = self._parse_quantifier()
            rhs = self._parse_operand()
            return ast.Comparison(lhs=lhs, op=op, rhs=rhs, lq=lq, rq=rq)

        if token.is_keyword(*_WORD_COMPARATORS):
            op = _WORD_COMPARATORS[self._next().text]
            rq = self._parse_quantifier()
            rhs = self._parse_operand()
            return ast.Comparison(lhs=lhs, op=op, rhs=rhs, lq=lq, rq=rq)

        if lq is not None:
            raise self._error("quantifier must be followed by a comparator")
        if isinstance(lhs, ast.PathOperand):
            return ast.PathCond(lhs.path)
        raise self._error("expected a comparator")

    def _operand_as_term(self, operand: ast.Operand) -> object:
        if isinstance(operand, ast.PathOperand) and operand.path.is_trivial:
            return operand.path.head
        raise self._error("expected a class name or variable")

    # -- operands (arithmetic / paths / aggregates / subqueries) -------------

    def _parse_operand(self) -> ast.Operand:
        return self._parse_set_ops()

    def _parse_set_ops(self) -> ast.Operand:
        left = self._parse_additive()
        while self._peek().is_keyword("union", "minus", "intersect"):
            # Distinguish operand-level set ops from query-level UNION by
            # context: inside conditions we are always operand-level.
            op = self._next().text
            right = self._parse_additive()
            left = ast.SetOpOperand(op, left, right)
        return left

    def _parse_additive(self) -> ast.Operand:
        left = self._parse_multiplicative()
        while self._peek().is_op("+", "-"):
            op = self._next().text
            right = self._parse_multiplicative()
            left = ast.ArithOperand(op, left, right)
        return left

    def _parse_multiplicative(self) -> ast.Operand:
        left = self._parse_factor()
        while self._peek().is_op("*", "/"):
            op = self._next().text
            right = self._parse_factor()
            left = ast.ArithOperand(op, left, right)
        return left

    def _parse_factor(self) -> ast.Operand:
        token = self._peek()
        if token.kind in ("NUMBER", "STRING"):
            self._next()
            value = Value(literal_value(token))
            return ast.PathOperand(ast.path_of_term(value))
        if token.is_keyword("nil"):
            self._next()
            return ast.PathOperand(ast.path_of_term(NIL))
        if token.is_keyword("true", "false"):
            self._next()
            return ast.PathOperand(
                ast.path_of_term(Value(token.text == "true"))
            )
        if token.is_keyword(*_AGG_FUNCTIONS):
            fn = self._next().text
            self._expect_punct("(")
            inner = self._parse_operand()
            self._expect_punct(")")
            path = self._operand_as_path_for_agg(inner)
            return ast.AggOperand(fn, path)
        if token.is_punct("{"):
            return self._parse_set_literal()
        if token.is_punct("("):
            if self._peek(1).is_keyword("select"):
                self._next()
                sub = self.parse_query()
                self._expect_punct(")")
                return ast.SubQueryOperand(sub)
            self._next()
            inner = self._parse_operand()
            self._expect_punct(")")
            # A parenthesized trivial operand may continue as a path, but
            # the paper never parenthesizes path heads; treat as grouping.
            return inner
        # Otherwise: a path expression.
        return ast.PathOperand(self._parse_path())

    def _operand_as_path_for_agg(self, operand: ast.Operand) -> ast.PathExpr:
        if isinstance(operand, ast.PathOperand):
            return operand.path
        raise self._error("aggregate argument must be a path expression")

    def _parse_set_literal(self) -> ast.Operand:
        self._expect_punct("{")
        values: List[Oid] = []
        while True:
            token = self._next()
            if token.kind in ("NUMBER", "STRING"):
                values.append(Value(literal_value(token)))
            elif token.kind == "IDENT":
                values.append(Atom(token.text))
            else:
                raise self._error("expected a literal in set", token)
            if self._peek().is_punct(","):
                self._next()
                continue
            break
        self._expect_punct("}")
        return ast.SetLitOperand(tuple(values))

    # -- path expressions ------------------------------------------------------

    def _parse_path(self) -> ast.PathExpr:
        head = self._parse_selector()
        steps: List[ast.Step] = []
        while self._peek().is_punct("."):
            self._next()
            steps.append(self._parse_step())
        return ast.PathExpr(head=head, steps=tuple(steps))

    def _parse_selector(self) -> ast.SelectorNode:
        token = self._next()
        if token.kind in ("NUMBER", "STRING"):
            return Value(literal_value(token))
        if token.kind == "CLASSVAR":
            self._declared_vars.add(token.text)
            return Variable(token.text, VarSort.CLASS)
        if token.kind == "METHODVAR":
            self._declared_vars.add(token.text)
            return Variable(token.text, VarSort.METHOD)
        if token.is_keyword("nil"):
            return NIL
        if token.is_keyword("true", "false"):
            return Value(token.text == "true")
        if token.kind == "IDENT":
            # id-term application `f(args)` — view id-terms, §4.2.
            if self._peek().is_punct("("):
                self._next()
                args: List[object] = []
                if not self._peek().is_punct(")"):
                    args.append(self._parse_method_argument())
                    while self._peek().is_punct(","):
                        self._next()
                        args.append(self._parse_method_argument())
                self._expect_punct(")")
                return ast.App(token.text, tuple(args))
            if self._is_var_name(token.text):
                return Variable(token.text, VarSort.INDIVIDUAL)
            return Atom(token.text)
        raise self._error(f"expected a selector, got {token.text!r}", token)

    def _parse_step(self) -> ast.Step:
        token = self._peek()
        method_expr: ast.MethodExpr
        if token.is_punct("(") :
            method, args = self._parse_parenthesized_method_expr()
            method_expr = ast.MethodExpr(method=method, args=tuple(args))
        elif token.is_op("*"):
            self._next()
            name_token = self._expect_ident()
            self._declared_vars.add(name_token.text)
            method_expr = ast.MethodExpr(
                method=Variable(name_token.text, VarSort.PATH)
            )
        elif token.kind == "METHODVAR":
            self._next()
            self._declared_vars.add(token.text)
            method_expr = ast.MethodExpr(
                method=Variable(token.text, VarSort.METHOD)
            )
        elif token.kind == "IDENT":
            self._next()
            if self._is_var_name(token.text):
                # A bare variable in attribute position is coerced to the
                # method sort — the paper's own relaxation in query (3).
                method_expr = ast.MethodExpr(
                    method=Variable(token.text, VarSort.METHOD)
                )
            else:
                method_expr = ast.MethodExpr(method=Atom(token.text))
        else:
            raise self._error(
                f"expected a method expression, got {token.text!r}", token
            )
        selector: Optional[ast.SelectorNode] = None
        if self._peek().is_punct("["):
            self._next()
            selector = self._parse_selector()
            self._expect_punct("]")
        return ast.Step(method_expr=method_expr, selector=selector)

    def _parse_parenthesized_method_expr(
        self,
    ) -> Tuple[Union[Atom, Variable], List[object]]:
        self._expect_punct("(")
        token = self._next()
        method: Union[Atom, Variable]
        if token.kind == "METHODVAR":
            self._declared_vars.add(token.text)
            method = Variable(token.text, VarSort.METHOD)
        elif token.kind == "IDENT":
            if self._is_var_name(token.text):
                method = Variable(token.text, VarSort.METHOD)
            else:
                method = Atom(token.text)
        else:
            raise self._error("expected a method name", token)
        self._expect_punct("@")
        args: List[object] = []
        if not self._peek().is_punct(")"):
            args.append(self._parse_method_argument())
            while self._peek().is_punct(","):
                self._next()
                args.append(self._parse_method_argument())
        self._expect_punct(")")
        return method, args

    def _expect_op(self, op: str) -> Token:
        token = self._next()
        if not token.is_op(op):
            raise self._error(f"expected {op!r}, got {token.text!r}", token)
        return token

    # -- DDL ----------------------------------------------------------------

    def _parse_signature_decl(self) -> ast.SignatureDecl:
        method_token = self._expect_ident()
        args: List[str] = []
        if self._peek().is_punct(":"):
            self._next()
            args.append(self._expect_ident().text)
            while self._peek().is_punct(","):
                self._next()
                args.append(self._expect_ident().text)
        token = self._next()
        if token.kind == "ARROW":
            set_valued = token.text in ("=>>", "->>")
        elif token.is_op("="):
            set_valued = False
        else:
            raise self._error("expected a signature arrow", token)
        result = self._expect_ident().text
        return ast.SignatureDecl(
            method=method_token.text,
            args=tuple(args),
            result=result,
            set_valued=set_valued,
        )

    def _parse_signature_list(self) -> List[ast.SignatureDecl]:
        decls = [self._parse_signature_decl()]
        while self._peek().is_punct(","):
            self._next()
            decls.append(self._parse_signature_decl())
        return decls

    def _parse_create_view(self) -> ast.CreateView:
        self._expect_keyword("create")
        self._expect_keyword("view")
        name = self._expect_ident().text
        self._expect_keyword("as")
        self._expect_keyword("subclass")
        self._expect_keyword("of")
        superclass = self._expect_ident().text
        signatures: List[ast.SignatureDecl] = []
        if self._peek().is_keyword("signature"):
            self._next()
            signatures = self._parse_signature_list()
        query = self.parse_query()
        return ast.CreateView(
            name=name,
            superclass=superclass,
            signatures=tuple(signatures),
            query=query,
        )

    def _parse_create_class(self) -> ast.CreateClass:
        self._expect_keyword("create")
        self._expect_keyword("class")
        name = self._expect_ident().text
        superclasses: List[str] = []
        if self._peek().is_keyword("as"):
            self._next()
            self._expect_keyword("subclass")
            self._expect_keyword("of")
            superclasses.append(self._expect_ident().text)
            while self._peek().is_punct(","):
                self._next()
                superclasses.append(self._expect_ident().text)
        signatures: List[ast.SignatureDecl] = []
        if self._peek().is_keyword("signature"):
            self._next()
            signatures = self._parse_signature_list()
        return ast.CreateClass(
            name=name,
            superclasses=tuple(superclasses),
            signatures=tuple(signatures),
        )

    def _parse_alter_class(self) -> ast.AlterClass:
        self._expect_keyword("alter")
        self._expect_keyword("class")
        cls = self._expect_ident().text
        self._expect_keyword("add")
        self._expect_keyword("signature")
        signature = self._parse_signature_decl()
        query = self.parse_query()
        return ast.AlterClass(cls=cls, signature=signature, query=query)

    def _parse_create_relation(self) -> ast.CreateRelation:
        self._expect_keyword("create")
        self._expect_keyword("relation")
        name = self._expect_ident().text
        self._expect_punct("(")
        columns = [self._expect_ident().text]
        while self._peek().is_punct(","):
            self._next()
            columns.append(self._expect_ident().text)
        self._expect_punct(")")
        return ast.CreateRelation(name=name, columns=tuple(columns))

    def _parse_insert(self) -> ast.InsertInto:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        name = self._expect_ident().text
        if self._peek().is_keyword("values"):
            self._next()
            rows = [self._parse_value_row()]
            while self._peek().is_punct(","):
                self._next()
                rows.append(self._parse_value_row())
            return ast.InsertInto(name=name, rows=tuple(rows))
        query = self.parse_query()
        return ast.InsertInto(name=name, query=query)

    def _parse_value_row(self) -> Tuple[Oid, ...]:
        self._expect_punct("(")
        values: List[Oid] = [self._parse_insert_value()]
        while self._peek().is_punct(","):
            self._next()
            values.append(self._parse_insert_value())
        self._expect_punct(")")
        return tuple(values)

    def _parse_insert_value(self) -> Oid:
        node = self._parse_selector()
        resolved = node
        if isinstance(resolved, ast.App):
            args = tuple(resolved.args)
            if all(isinstance(a, Oid) for a in args):
                from repro.oid import FuncOid

                return FuncOid(resolved.functor, args)  # type: ignore[arg-type]
            raise self._error("INSERT values must be ground")
        if isinstance(resolved, Oid):
            return resolved
        raise self._error("INSERT values must be ground object ids")

    def _parse_update_class(self) -> ast.UpdateClass:
        self._expect_keyword("update")
        self._expect_keyword("class")
        cls = self._expect_ident().text
        self._expect_keyword("set")
        assignments: List[Tuple[ast.PathExpr, ast.Operand]] = []
        while True:
            path = self._parse_path()
            self._expect_op("=")
            value = self._parse_operand()
            assignments.append((path, value))
            if self._peek().is_punct(","):
                self._next()
                continue
            break
        return ast.UpdateClass(cls=cls, assignments=tuple(assignments))


def _finalize(node, fresh_prefix: str = "z"):
    node = unify_variable_sorts(node)
    return desugar(node, fresh_prefix=fresh_prefix)


def parse_query(
    source: str, outer_vars: Sequence[str] = ()
) -> Union[ast.Query, ast.QueryOp]:
    """Parse a single SELECT query (or UNION/MINUS/INTERSECT of queries)."""
    parser = _Parser(tokenize(source), set(outer_vars))
    query = parser.parse_query_expr()
    if not parser.at_end():
        raise parser._error("trailing input after query")
    return _finalize(query)


def parse_statement(
    source: str, outer_vars: Sequence[str] = ()
) -> ast.Statement:
    """Parse one XSQL statement (query or DDL)."""
    return _finalize(parse_statement_raw(source, outer_vars))


def parse_statement_raw(
    source: str, outer_vars: Sequence[str] = ()
) -> ast.Statement:
    """Parse one statement *without* normalization.

    The staged pipeline (:mod:`repro.xsql.pipeline`) times parsing and
    normalization separately; everyone else should call
    :func:`parse_statement`, which composes this with
    :func:`normalize_statement`.
    """
    return parse_tokens(tokenize(source), outer_vars)


def parse_tokens(
    tokens: List[Token], outer_vars: Sequence[str] = ()
) -> ast.Statement:
    """:func:`parse_statement_raw` over an already-lexed token stream.

    The pipeline lexes once to key its statement cache, and a miss
    parses those same tokens.
    """
    parser = _Parser(tokens, set(outer_vars))
    statement = parser.parse_statement()
    if not parser.at_end():
        raise parser._error("trailing input after statement")
    return statement


def normalize_statement(statement: ast.Statement) -> ast.Statement:
    """Sort unification + §5 desugaring of a raw parsed statement."""
    return _finalize(statement)


def parse_statements(source: str) -> List[ast.Statement]:
    """Parse a ``;``-separated script of XSQL statements.

    Statements are split with the lexer's token scan, so semicolons
    inside string literals do not terminate a statement.
    """
    return [parse_statement(chunk) for chunk in split_statements(source)]
