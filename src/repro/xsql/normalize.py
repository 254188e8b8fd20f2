"""AST normalization: sort unification and §5 desugaring.

Two passes run after parsing:

1. **Variable-sort unification.**  The paper lets a bare variable appear in
   attribute position (query (3): ``X.Y.City``), "strictly speaking"
   requiring the method-variable form ``X."Y.City``.  The parser coerces
   sorts positionally; this pass then makes every occurrence of one name
   agree: a name used as a class variable anywhere is a class variable
   everywhere, likewise for method and path variables.  A name used with
   *incompatible* sorts (both ``#X`` and ``"X``) is a syntax error.

2. **Desugaring of path arguments.**  §5: "the path name ``Y.Name`` is used
   as an argument of a method expression ... It should be viewed as a
   shorthand for writing ``(MngrSalary @ Z)`` ... and adding the path
   expression ``Y.Name[Z]`` to the WHERE clause, where ``Z`` is a new
   variable."  The same rewriting applies to id-term arguments (§4.2,
   query (10): ``CompSalaries(X.Manufacturer, W)`` becomes
   ``CompSalaries(Y, W)`` plus conjunct ``X.Manufacturer[Y]``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.errors import XsqlSyntaxError
from repro.oid import FuncOid, Oid, Term, Variable, VarSort
from repro.xsql import ast

__all__ = [
    "unify_variable_sorts",
    "desugar",
    "with_tail_variable",
    "map_terms",
    "rewrite_variables",
]


# ----------------------------------------------------------------------
# generic term mapping
# ----------------------------------------------------------------------


def _map_term(term, fn):
    if isinstance(term, FuncOid):
        return FuncOid(
            term.functor, tuple(_map_term(a, fn) for a in term.args)
        )
    if isinstance(term, Term):
        return fn(term)
    return term


def _map_node(node, fn):
    if isinstance(node, ast.App):
        return ast.App(node.functor, tuple(_map_node(a, fn) for a in node.args))
    if isinstance(node, ast.PathExpr):
        return _map_path(node, fn)
    return _map_term(node, fn)


def _map_path(path: ast.PathExpr, fn) -> ast.PathExpr:
    head = _map_node(path.head, fn)
    steps = []
    for step in path.steps:
        method = _map_term(step.method_expr.method, fn)
        args = tuple(_map_node(a, fn) for a in step.method_expr.args)
        selector = (
            _map_node(step.selector, fn)
            if step.selector is not None
            else None
        )
        steps.append(
            ast.Step(ast.MethodExpr(method=method, args=args), selector)
        )
    return ast.PathExpr(head=head, steps=tuple(steps))


def _map_operand(operand: ast.Operand, fn) -> ast.Operand:
    if isinstance(operand, ast.PathOperand):
        return ast.PathOperand(_map_path(operand.path, fn))
    if isinstance(operand, ast.AggOperand):
        return ast.AggOperand(operand.fn, _map_path(operand.path, fn))
    if isinstance(operand, (ast.SetOpOperand, ast.ArithOperand)):
        cls = type(operand)
        return cls(
            operand.op,
            _map_operand(operand.left, fn),
            _map_operand(operand.right, fn),
        )
    if isinstance(operand, ast.SubQueryOperand):
        return ast.SubQueryOperand(_map_query(operand.query, fn))
    if isinstance(operand, ast.SetLitOperand):
        return ast.SetLitOperand(
            tuple(_map_term(v, fn) for v in operand.values)
        )
    return operand


def _map_cond(cond: ast.Cond, fn) -> ast.Cond:
    if isinstance(cond, ast.PathCond):
        return ast.PathCond(_map_path(cond.path, fn))
    if isinstance(cond, ast.Comparison):
        return ast.Comparison(
            lhs=_map_operand(cond.lhs, fn),
            op=cond.op,
            rhs=_map_operand(cond.rhs, fn),
            lq=cond.lq,
            rq=cond.rq,
        )
    if isinstance(cond, ast.SchemaCond):
        return ast.SchemaCond(
            cond.kind, _map_node(cond.left, fn), _map_node(cond.right, fn)
        )
    if isinstance(cond, ast.NotCond):
        return ast.NotCond(_map_cond(cond.item, fn))
    if isinstance(cond, ast.AndCond):
        return ast.AndCond(tuple(_map_cond(c, fn) for c in cond.items))
    if isinstance(cond, ast.OrCond):
        return ast.OrCond(tuple(_map_cond(c, fn) for c in cond.items))
    if isinstance(cond, ast.UpdateCond):
        return ast.UpdateCond(_map_update(cond.update, fn))
    return cond


def _map_update(update: ast.UpdateClass, fn) -> ast.UpdateClass:
    return ast.UpdateClass(
        cls=update.cls,
        assignments=tuple(
            (_map_path(p, fn), _map_operand(e, fn))
            for p, e in update.assignments
        ),
    )


def _map_query(query: ast.Query, fn) -> ast.Query:
    select = []
    for item in query.select:
        if isinstance(item, ast.PathItem):
            select.append(
                ast.PathItem(path=_map_path(item.path, fn), name=item.name)
            )
        elif isinstance(item, ast.SetItem):
            var = fn(item.var)
            select.append(ast.SetItem(var=var, name=item.name))
        elif isinstance(item, ast.MethodItem):
            select.append(
                ast.MethodItem(
                    method=_map_term(item.method, fn),
                    args=tuple(_map_node(a, fn) for a in item.args),
                    value=_map_operand(item.value, fn),
                )
            )
    from_ = tuple(
        ast.FromDecl(cls=_map_term(d.cls, fn), var=fn(d.var))
        for d in query.from_
    )
    where = _map_cond(query.where, fn) if query.where is not None else None
    oid_vars = (
        tuple(fn(v) for v in query.oid_vars)
        if query.oid_vars is not None
        else None
    )
    oid_scope = fn(query.oid_scope) if query.oid_scope is not None else None
    return ast.Query(
        select=tuple(select),
        from_=from_,
        where=where,
        oid_vars=oid_vars,
        oid_scope=oid_scope,
    )


def map_terms(node, fn):
    """Rebuild *node* with every term occurrence ``t`` replaced by ``fn(t)``.

    *fn* sees each variable and each atomic oid (``Atom``, ``Value``) —
    in paths, conditions, FROM and SELECT clauses, set literals and
    ``INSERT … VALUES`` rows; an id-function oid is mapped argument by
    argument.  The one tree walker behind sort unification, variable
    renaming and the statement cache's literal rebinding.
    """
    if isinstance(node, ast.Query):
        return _map_query(node, fn)
    if isinstance(node, ast.QueryOp):
        return ast.QueryOp(
            node.op, map_terms(node.left, fn), map_terms(node.right, fn)
        )
    if isinstance(node, ast.CreateView):
        return ast.CreateView(
            name=node.name,
            superclass=node.superclass,
            signatures=node.signatures,
            query=_map_query(node.query, fn),
        )
    if isinstance(node, ast.AlterClass):
        return ast.AlterClass(
            cls=node.cls,
            signature=node.signature,
            query=_map_query(node.query, fn),
        )
    if isinstance(node, ast.UpdateClass):
        return _map_update(node, fn)
    if isinstance(node, ast.InsertInto):
        return ast.InsertInto(
            name=node.name,
            query=(
                _map_query(node.query, fn) if node.query is not None else None
            ),
            rows=tuple(
                tuple(_map_term(v, fn) for v in row) for row in node.rows
            ),
        )
    if isinstance(node, (ast.CreateClass, ast.CreateRelation)):
        return node
    if isinstance(node, ast.PathExpr):
        return _map_path(node, fn)
    if isinstance(node, ast.Cond):
        return _map_cond(node, fn)
    raise TypeError(f"cannot rewrite {node!r}")


def rewrite_variables(node, fn):
    """Rewrite every variable occurrence of *node* with ``fn(var)``."""
    return map_terms(
        node, lambda term: fn(term) if isinstance(term, Variable) else term
    )


# ----------------------------------------------------------------------
# sort unification
# ----------------------------------------------------------------------

_PRIORITY = {
    VarSort.CLASS: 3,
    VarSort.PATH: 2,
    VarSort.METHOD: 1,
    VarSort.INDIVIDUAL: 0,
}

#: Sorts that may be merged: INDIVIDUAL upgrades to anything; METHOD and
#: PATH may merge (a path of length one is a method); CLASS only merges
#: with INDIVIDUAL.
_COMPATIBLE = {
    frozenset({VarSort.METHOD, VarSort.PATH}),
}


def _collect_sorts(node, sorts: Dict[str, VarSort]) -> None:
    def visit(var: Variable) -> Variable:
        current = sorts.get(var.name)
        if current is None or _PRIORITY[var.sort] > _PRIORITY[current]:
            if (
                current is not None
                and current != var.sort
                and VarSort.INDIVIDUAL not in (current, var.sort)
                and frozenset({current, var.sort}) not in _COMPATIBLE
            ):
                raise XsqlSyntaxError(
                    f"variable {var.name} used with incompatible sorts "
                    f"{current.value} and {var.sort.value}"
                )
            sorts[var.name] = var.sort
        elif (
            current != var.sort
            and VarSort.INDIVIDUAL not in (current, var.sort)
            and frozenset({current, var.sort}) not in _COMPATIBLE
        ):
            raise XsqlSyntaxError(
                f"variable {var.name} used with incompatible sorts "
                f"{current.value} and {var.sort.value}"
            )
        return var

    rewrite_variables(node, visit)


def unify_variable_sorts(node):
    """Make every occurrence of a variable name carry one agreed sort."""
    if isinstance(node, (ast.CreateClass, ast.CreateRelation)):
        return node
    if isinstance(node, ast.InsertInto) and node.query is None:
        return node
    sorts: Dict[str, VarSort] = {}
    _collect_sorts(node, sorts)
    return rewrite_variables(
        node, lambda var: Variable(var.name, sorts[var.name])
    )


# ----------------------------------------------------------------------
# desugaring (§5 / §4.2)
# ----------------------------------------------------------------------


def with_tail_variable(path: ast.PathExpr, var: Variable) -> ast.PathExpr:
    """Attach *var* as the selector of the last step of *path*.

    ``Y.Name`` becomes ``Y.Name[Z]`` — the rewriting the paper uses both in
    §5 and in footnote 13.
    """
    if not path.steps:
        raise ValueError("a trivial path needs no tail variable")
    last = path.steps[-1]
    if last.selector is not None:
        raise ValueError(f"path {path} already has a tail selector")
    new_last = ast.Step(last.method_expr, var)
    return ast.PathExpr(head=path.head, steps=path.steps[:-1] + (new_last,))


class _Desugarer:
    def __init__(self, fresh_prefix: str) -> None:
        self._counter = 0
        self._prefix = fresh_prefix

    def fresh(self) -> Variable:
        self._counter += 1
        return Variable(f"_{self._prefix}{self._counter}")

    # Each _do_* returns (rewritten node, extra conjuncts to insert).

    def _do_arg(self, arg) -> Tuple[object, List[ast.Cond]]:
        if isinstance(arg, ast.PathExpr):
            if arg.is_trivial:
                return arg.head, []
            tail = arg.last_selector()
            if tail is not None and isinstance(tail, (Variable, Oid)):
                # Already ends in a selector: reuse it as the argument.
                return tail, [ast.PathCond(arg)]
            var = self.fresh()
            return var, [ast.PathCond(with_tail_variable(arg, var))]
        if isinstance(arg, ast.App):
            new_args: List[object] = []
            extras: List[ast.Cond] = []
            for inner in arg.args:
                rewritten, more = self._do_arg(inner)
                new_args.append(rewritten)
                extras.extend(more)
            return ast.App(arg.functor, tuple(new_args)), extras
        return arg, []

    def _do_selector(self, node) -> Tuple[object, List[ast.Cond]]:
        if isinstance(node, ast.App):
            return self._do_arg(node)
        return node, []

    def _do_path(self, path: ast.PathExpr) -> Tuple[ast.PathExpr, List[ast.Cond]]:
        extras: List[ast.Cond] = []
        head, more = self._do_selector(path.head)
        extras.extend(more)
        steps: List[ast.Step] = []
        for step in path.steps:
            new_args: List[object] = []
            for arg in step.method_expr.args:
                rewritten, more = self._do_arg(arg)
                new_args.append(rewritten)
                extras.extend(more)
            selector = step.selector
            if selector is not None:
                selector, more = self._do_selector(selector)
                extras.extend(more)
            steps.append(
                ast.Step(
                    ast.MethodExpr(step.method_expr.method, tuple(new_args)),
                    selector,
                )
            )
        return ast.PathExpr(head=head, steps=tuple(steps)), extras

    def _do_operand(
        self, operand: ast.Operand
    ) -> Tuple[ast.Operand, List[ast.Cond]]:
        if isinstance(operand, ast.PathOperand):
            path, extras = self._do_path(operand.path)
            return ast.PathOperand(path), extras
        if isinstance(operand, ast.AggOperand):
            path, extras = self._do_path(operand.path)
            return ast.AggOperand(operand.fn, path), extras
        if isinstance(operand, (ast.SetOpOperand, ast.ArithOperand)):
            left, e1 = self._do_operand(operand.left)
            right, e2 = self._do_operand(operand.right)
            return type(operand)(operand.op, left, right), e1 + e2
        if isinstance(operand, ast.SubQueryOperand):
            return ast.SubQueryOperand(self.do_query(operand.query)), []
        return operand, []

    def _do_cond(self, cond: ast.Cond) -> ast.Cond:
        if isinstance(cond, ast.PathCond):
            path, extras = self._do_path(cond.path)
            new = ast.PathCond(path)
            return self._with_extras(new, extras)
        if isinstance(cond, ast.Comparison):
            lhs, e1 = self._do_operand(cond.lhs)
            rhs, e2 = self._do_operand(cond.rhs)
            new = ast.Comparison(
                lhs=lhs, op=cond.op, rhs=rhs, lq=cond.lq, rq=cond.rq
            )
            return self._with_extras(new, e1 + e2)
        if isinstance(cond, ast.NotCond):
            return ast.NotCond(self._do_cond(cond.item))
        if isinstance(cond, ast.AndCond):
            return ast.AndCond(tuple(self._do_cond(c) for c in cond.items))
        if isinstance(cond, ast.OrCond):
            return ast.OrCond(tuple(self._do_cond(c) for c in cond.items))
        if isinstance(cond, ast.UpdateCond):
            update, extras = self._do_update(cond.update)
            return self._with_extras(ast.UpdateCond(update), extras)
        return cond

    @staticmethod
    def _with_extras(cond: ast.Cond, extras: List[ast.Cond]) -> ast.Cond:
        if not extras:
            return cond
        # The binding conjuncts go first so the fresh variable is bound
        # before the condition that uses it (left-to-right evaluation, §5).
        return ast.AndCond(tuple(extras) + (cond,))

    def _do_update(
        self, update: ast.UpdateClass
    ) -> Tuple[ast.UpdateClass, List[ast.Cond]]:
        extras: List[ast.Cond] = []
        assignments = []
        for path, expr in update.assignments:
            # The SET path itself may use method arguments that are paths.
            new_path, more = self._do_path(path)
            extras.extend(more)
            new_expr, more = self._do_operand(expr)
            extras.extend(more)
            assignments.append((new_path, new_expr))
        return ast.UpdateClass(update.cls, tuple(assignments)), extras

    def do_query(self, query: ast.Query) -> ast.Query:
        extra_conds: List[ast.Cond] = []
        select: List[ast.SelectItem] = []
        for item in query.select:
            if isinstance(item, ast.PathItem):
                path, extras = self._do_path(item.path)
                extra_conds.extend(extras)
                select.append(ast.PathItem(path=path, name=item.name))
            elif isinstance(item, ast.MethodItem):
                new_args: List[object] = []
                for arg in item.args:
                    rewritten, extras = self._do_arg(arg)
                    new_args.append(rewritten)
                    extra_conds.extend(extras)
                value, extras = self._do_operand(item.value)
                extra_conds.extend(extras)
                select.append(
                    ast.MethodItem(
                        method=item.method,
                        args=tuple(new_args),
                        value=value,
                    )
                )
            else:
                select.append(item)
        where = self._do_cond(query.where) if query.where is not None else None
        if extra_conds:
            # Conjuncts from SELECT-item desugaring are appended at the
            # end: SELECT is evaluated after WHERE, so the fresh variables
            # are bound by then regardless of order.
            if where is None:
                where = (
                    extra_conds[0]
                    if len(extra_conds) == 1
                    else ast.AndCond(tuple(extra_conds))
                )
            elif isinstance(where, ast.AndCond):
                where = ast.AndCond(where.items + tuple(extra_conds))
            else:
                where = ast.AndCond((where, *extra_conds))
        return ast.Query(
            select=tuple(select),
            from_=query.from_,
            where=where,
            oid_vars=query.oid_vars,
            oid_scope=query.oid_scope,
        )


def desugar(node, fresh_prefix: str = "z"):
    """Desugar path arguments of method expressions and id-terms."""
    worker = _Desugarer(fresh_prefix)
    if isinstance(node, ast.Query):
        return worker.do_query(node)
    if isinstance(node, ast.QueryOp):
        return ast.QueryOp(
            node.op,
            desugar(node.left, fresh_prefix + "l"),
            desugar(node.right, fresh_prefix + "r"),
        )
    if isinstance(node, ast.CreateView):
        return ast.CreateView(
            name=node.name,
            superclass=node.superclass,
            signatures=node.signatures,
            query=worker.do_query(node.query),
        )
    if isinstance(node, ast.AlterClass):
        return ast.AlterClass(
            cls=node.cls,
            signature=node.signature,
            query=worker.do_query(node.query),
        )
    if isinstance(node, ast.UpdateClass):
        update, extras = worker._do_update(node)
        if extras:
            raise XsqlSyntaxError(
                "a top-level UPDATE CLASS cannot use path arguments that "
                "need auxiliary bindings; wrap it in a query's WHERE clause"
            )
        return update
    if isinstance(node, ast.InsertInto) and node.query is not None:
        return ast.InsertInto(
            name=node.name, query=worker.do_query(node.query), rows=node.rows
        )
    return node
