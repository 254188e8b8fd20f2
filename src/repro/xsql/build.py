"""A generate-friendly AST builder for XSQL.

The parser is the usual way into the AST, but programmatic clients — the
differential fuzzer (:mod:`repro.difftest`), test generators, planners —
want to assemble queries without going through concrete syntax.  The
helpers here accept plain Python scalars and strings and coerce them to
the right term classes:

* strings in class position become :class:`~repro.oid.Atom`;
* Python scalars in literal position become :class:`~repro.oid.Value`;
* variable helpers produce correctly sorted :class:`~repro.oid.Variable`.

Every builder returns the same frozen AST nodes the parser produces, so
``parse_query(str(built))`` round-trips (the fuzzer asserts this for the
whole generated corpus).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

from repro.oid import Atom, Oid, Value, Variable, VarSort
from repro.xsql import ast

__all__ = [
    "ivar",
    "cvar",
    "mvar",
    "lit",
    "step",
    "path",
    "operand",
    "agg",
    "set_lit",
    "compare",
    "path_cond",
    "schema_cond",
    "conj",
    "disj",
    "neg",
    "select_item",
    "from_decl",
    "query",
]

Scalar = Union[int, float, str, bool]
SelectorLike = Union[Oid, Variable, ast.App, Scalar, None]
OperandLike = Union[ast.Operand, ast.PathExpr, Variable, Oid, Scalar]


def ivar(name: str) -> Variable:
    """An individual variable (``X``)."""
    return Variable(name, VarSort.INDIVIDUAL)


def cvar(name: str) -> Variable:
    """A class variable (``#X``)."""
    return Variable(name, VarSort.CLASS)


def mvar(name: str) -> Variable:
    """A method variable (``"Y``)."""
    return Variable(name, VarSort.METHOD)


def lit(value: Union[Scalar, Oid]) -> Oid:
    """A literal object (or any oid, passed through)."""
    if isinstance(value, Oid):
        return value
    return Value(value)


def _selector(node: SelectorLike) -> Optional[ast.SelectorNode]:
    if node is None or isinstance(node, (Oid, Variable, ast.App)):
        return node
    return Value(node)


def step(
    method: Union[str, Atom, Variable],
    selector: SelectorLike = None,
    args: Sequence[object] = (),
) -> ast.Step:
    """One ``.Method[selector]`` hop; a string method becomes an Atom."""
    if isinstance(method, str):
        method = Atom(method)
    return ast.Step(
        method_expr=ast.MethodExpr(method=method, args=tuple(args)),
        selector=_selector(selector),
    )


def path(
    head: Union[Oid, Variable, ast.App, Scalar],
    *steps: Union[ast.Step, str, Tuple],
) -> ast.PathExpr:
    """A path expression.  Steps may be :class:`~repro.xsql.ast.Step`
    nodes, bare method-name strings, or ``(method, selector)`` tuples."""
    built = []
    for item in steps:
        if isinstance(item, ast.Step):
            built.append(item)
        elif type(item) is tuple:  # not an oid: those are tuples too
            built.append(step(*item))
        else:
            built.append(step(item))
    head_node = _selector(head)
    assert head_node is not None
    return ast.PathExpr(head=head_node, steps=tuple(built))


def operand(node: OperandLike) -> ast.Operand:
    """Coerce paths, variables, oids, and scalars into operands."""
    if isinstance(node, ast.Operand):
        return node
    if isinstance(node, ast.PathExpr):
        return ast.PathOperand(node)
    if isinstance(node, (Oid, Variable)):
        return ast.PathOperand(ast.path_of_term(node))
    return ast.PathOperand(ast.path_of_term(Value(node)))


def agg(fn: str, over: Union[ast.PathExpr, Variable]) -> ast.AggOperand:
    """``count/sum/avg/min/max`` over a path expression."""
    if isinstance(over, Variable):
        over = ast.path_of_term(over)
    return ast.AggOperand(fn, over)


def set_lit(*values: Union[Scalar, Oid]) -> ast.SetLitOperand:
    """A set literal such as ``{'blue', 'red'}``."""
    return ast.SetLitOperand(tuple(lit(v) for v in values))


def compare(
    lhs: OperandLike,
    op: str,
    rhs: OperandLike,
    lq: Optional[str] = None,
    rq: Optional[str] = None,
) -> ast.Comparison:
    """A (possibly quantified) comparison condition."""
    return ast.Comparison(
        lhs=operand(lhs), op=op, rhs=operand(rhs), lq=lq, rq=rq
    )


def path_cond(node: Union[ast.PathExpr, Variable]) -> ast.PathCond:
    """A stand-alone path condition (true iff the value is non-empty)."""
    if isinstance(node, Variable):
        node = ast.path_of_term(node)
    return ast.PathCond(node)


def schema_cond(
    kind: str,
    left: Union[str, Oid, Variable],
    right: Union[str, Oid, Variable],
) -> ast.SchemaCond:
    """``subclassOf`` / ``instanceOf`` / ``applicableTo`` conditions."""
    if isinstance(left, str):
        left = Atom(left)
    if isinstance(right, str):
        right = Atom(right)
    return ast.SchemaCond(kind, left, right)


def conj(*items: ast.Cond) -> ast.Cond:
    """Conjoin conditions, flattening the one-item case."""
    if len(items) == 1:
        return items[0]
    return ast.AndCond(tuple(items))


def disj(*items: ast.Cond) -> ast.Cond:
    """Disjoin conditions, flattening the one-item case."""
    if len(items) == 1:
        return items[0]
    return ast.OrCond(tuple(items))


def neg(item: ast.Cond) -> ast.NotCond:
    return ast.NotCond(item)


def select_item(
    node: Union[ast.SelectItem, ast.PathExpr, Variable],
    name: Optional[str] = None,
) -> ast.SelectItem:
    if isinstance(node, ast.SelectItem):
        return node
    if isinstance(node, Variable):
        node = ast.path_of_term(node)
    return ast.PathItem(path=node, name=name)


def from_decl(cls: Union[str, Atom, Variable], var: Union[str, Variable]) -> ast.FromDecl:
    if isinstance(cls, str):
        cls = Atom(cls)
    if isinstance(var, str):
        var = ivar(var)
    return ast.FromDecl(cls, var)


def query(
    select: Iterable[Union[ast.SelectItem, ast.PathExpr, Variable]],
    from_: Iterable[Union[ast.FromDecl, Tuple[str, str]]] = (),
    where: Optional[ast.Cond] = None,
) -> ast.Query:
    """Assemble a plain SELECT query."""
    decls = []
    for decl in from_:
        if isinstance(decl, ast.FromDecl):
            decls.append(decl)
        else:
            decls.append(from_decl(*decl))
    return ast.Query(
        select=tuple(select_item(item) for item in select),
        from_=tuple(decls),
        where=where,
    )
