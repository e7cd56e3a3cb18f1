"""R6 — performance hygiene for the solver hot paths.

The matching kernels and the solver layer run inside every experiment
sweep; a Python-level loop that touches an array element per
iteration turns an O(n²) numpy reduction into an O(n²) *interpreter*
loop, which is the difference between milliseconds and minutes at the
instance sizes Figure 7/8 sweep.  The vectorized rewrites of the
auction and b-matching inner loops exist precisely because this
pattern crept in — R601 keeps it from creeping back.

**R601** flags, inside the configured hot packages
(``LintConfig.perf_hot_modules``, default ``repro.matching`` and
``repro.core.solvers``):

* ``for`` loops over ``range(...)`` or ``enumerate(...)`` whose body
  accumulates a scalar from a subscript — ``total += weights[i, j]``;
* ``sum(...)``/``min(...)``/``max(...)`` over a generator or list
  comprehension whose element expression subscripts an array —
  ``sum(matrix[w, t] for w, t in edges)``.

Both shapes have a one-line numpy equivalent (fancy-indexed gather
plus ``.sum()`` / ``.min()`` / ``.max()``).  Deliberately scalar code
— the reference implementations the fast paths are validated against
— lives under ``LintConfig.perf_loop_allowed`` prefixes
(``repro.matching.reference`` by default); one-off exceptions take
``# lint: allow[R601]``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.base import FileContext, Rule, Violation, register_rule

_COUNTING_ITERS = frozenset({"range", "enumerate"})
_REDUCERS = frozenset({"sum", "min", "max"})


def _is_counting_loop(node: ast.For) -> bool:
    """True for ``for ... in range(...)`` / ``enumerate(...)``."""
    return (
        isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Name)
        and node.iter.func.id in _COUNTING_ITERS
    )


def _contains_subscript(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Subscript) for sub in ast.walk(node))


def _scalar_accumulations(loop: ast.For) -> Iterator[ast.AugAssign]:
    """AugAssigns in the loop body that fold a subscripted element
    into a plain name (``total += arr[i]``), including in nested
    loops; writes *into* subscripts (``arr[i] += x``) are scatter
    updates, not scalar accumulation, and stay legal."""
    for node in ast.walk(loop):
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Name)
            and _contains_subscript(node.value)
        ):
            yield node


@register_rule
class NoScalarAccumulation(Rule):
    id = "R601"
    family = "perf"
    summary = (
        "Python-loop accumulation over array elements in a hot module; "
        "use a vectorized numpy reduction"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        module = ctx.module
        if not any(
            module == hot or module.startswith(hot + ".")
            for hot in ctx.config.perf_hot_modules
        ):
            return
        if any(
            module == allowed or module.startswith(allowed + ".")
            for allowed in ctx.config.perf_loop_allowed
        ):
            return
        seen: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_counting_loop(node):
                for accumulation in _scalar_accumulations(node):
                    # Nested counting loops both walk the same body;
                    # report each accumulation once.
                    if id(accumulation) in seen:
                        continue
                    seen.add(id(accumulation))
                    yield ctx.violation(
                        accumulation,
                        self.id,
                        "scalar accumulation over array elements in a "
                        "counting loop — gather with fancy indexing and "
                        "reduce with numpy",
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _REDUCERS
                and node.args
                and isinstance(
                    node.args[0], (ast.GeneratorExp, ast.ListComp)
                )
                and _contains_subscript(node.args[0].elt)
            ):
                yield ctx.violation(
                    node,
                    self.id,
                    f"{node.func.id}() over a comprehension of array "
                    "subscripts — index with arrays and call "
                    f".{node.func.id}() on the result",
                )
