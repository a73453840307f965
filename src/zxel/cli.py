"""Command-line front end.

Machine-readable results go to stdout as JSON; diagnostics go to stderr.
Exit codes: 0 success (check-eq: diagrams equal), 1 negative result
(check-eq: not equal; rules: some rule failed), 2 error (bad option or
command, bad file, type mismatch, resource cap, internal error).
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from .diagram import Diagram, DiagramError
from .equivalence import (TypeMismatchError, VerdictDisagreement,
                          check_equivalent)
from .io import (DiagramFileError, dumps_diagram, export_text, format_matrix,
                 load_diagram, load_matrix, save_diagram)
from .normalform import (WireCapError, decompose_elementary, nf_to_diagram,
                         nf_to_jsonable, normalize)
from .rewrite import simplify as run_simplify
from .semantics import (DEFAULT_TOL, ResourceError, interpret,
                        max_deviation, wire_cap)


def _fail(message: str, code: int = 2):
    click.echo(f"zxel: {message}", err=True)
    sys.exit(code)


def _save(d: Diagram, path: str) -> None:
    """Write --out; a path that cannot be written is the user's error."""
    try:
        save_diagram(d, path)
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror or exc}")


class _Group(click.Group):
    """Usage errors (a bad option value, an unknown option or command) are
    one ``zxel:`` line with exit 2; a bare ``zxel`` prints the help.  A
    command's bad file, type mismatch, resource cap, overflow or
    ill-formed result is one ``zxel:`` line with exit 2.  Any other
    exception a command lets through is a defect, reported as one ``zxel:
    internal:`` line with exit 2, never a traceback.

    An overflow surfaces as the ArithmeticError that interpret and
    normalize raise on non-finite results, so numpy's own overflow
    warnings are silenced, and a rewrite whose parameter overflows
    raises DiagramError."""

    def make_context(self, *args, **kwargs):
        return _one_line_usage(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                return _one_line_usage(super().invoke, ctx)
            except (click.ClickException, click.exceptions.Exit, click.Abort):
                raise  # click reports these itself
            except VerdictDisagreement as exc:  # a defect, not a verdict
                _fail(f"internal: {exc}")
            except (DiagramFileError, TypeMismatchError, ResourceError,
                    WireCapError, ArithmeticError, DiagramError) as exc:
                _fail(str(exc))
            except Exception as exc:
                _fail(f"internal: {type(exc).__name__}: {exc}")


def _one_line_usage(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except getattr(click.exceptions, "NoArgsIsHelpError", ()):
        raise  # click >= 8.2 raises it for a bare ``zxel``: show the help
    except click.UsageError as exc:
        _fail(" ".join(exc.format_message().splitlines()))


def _tolerance(ctx, param, value: float) -> float:
    """--tol is a finite number >= 0 (click's FloatRange lets NaN through)."""
    if not 0 <= value < math.inf:
        raise click.BadParameter(f"{value} is not a finite number >= 0")
    return value


@click.group(cls=_Group)
def main():
    """Algebraic ZX-calculus: interpret, rewrite, normalize, compare."""
    try:
        wire_cap()
    except ValueError as exc:
        _fail(str(exc))


@main.command("interpret")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--precision", default=6, show_default=True,
              type=click.IntRange(min=0, max=2 ** 31 - 1),  # Python's limit
              help="significant digits in the text matrix")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def cmd_interpret(file, precision, as_json):
    """Evaluate a diagram to its complex matrix."""
    mat = interpret(load_diagram(file))
    if as_json:
        click.echo(json.dumps({
            "rows": mat.shape[0], "cols": mat.shape[1],
            "entries": [[[z.real, z.imag] for z in row] for row in mat],
        }))
    else:
        click.echo(format_matrix(mat, precision))


@main.command("check-eq")
@click.argument("file1", type=click.Path(exists=True, dir_okay=False))
@click.argument("file2", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", default=DEFAULT_TOL, show_default=True,
              callback=_tolerance)
def cmd_check_eq(file1, file2, tol):
    """Decide equality of two diagrams (exit 0 equal, 1 not, 2 error)."""
    verdict = check_equivalent(load_diagram(file1), load_diagram(file2),
                               tol=tol)
    click.echo(json.dumps(verdict.to_jsonable()))
    sys.exit(0 if verdict.equal else 1)


@main.command("normalize")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False),
              help="also write the normal-form diagram file")
def cmd_normalize(file, out):
    """Rewrite a diagram into its unique normal form."""
    nf = normalize(load_diagram(file))
    if out:
        _save(nf_to_diagram(nf), out)
    click.echo(json.dumps(nf_to_jsonable(nf)))


@main.command("simplify")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--budget", default=None, type=click.IntRange(min=0),
              help="maximum rewrite steps (default 10 x node count + 20)")
@click.option("--trace", is_flag=True, help="log applied rules to stderr")
@click.option("--out", type=click.Path(dir_okay=False),
              help="write the simplified diagram here instead of stdout")
def cmd_simplify(file, budget, trace, out):
    """Apply the terminating simplification strategy."""
    res = run_simplify(load_diagram(file), budget=budget)
    if out:
        _save(res.diagram, out)
    if trace:
        for step in res.trace:
            click.echo(f"{step['rule']} at nodes {step['nodes']}", err=True)
        click.echo(f"{res.steps} steps"
                   + (", budget exhausted" if res.budget_exhausted else ""),
                   err=True)
    if not out:
        click.echo(dumps_diagram(res.diagram))


@main.command("rules")
@click.option("--samples", default=20, show_default=True,
              type=click.IntRange(min=1))
@click.option("--tol", default=DEFAULT_TOL, show_default=True,
              callback=_tolerance)
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@click.option("--json", "as_json", is_flag=True, help="emit JSON report")
@click.option("--corrupt", default=None, hidden=True,
              help="deliberately corrupt a rule (testing hook)")
def cmd_rules(samples, tol, seed, as_json, corrupt):
    """Soundness sweep over the whole rule catalog (exit 0 iff clean)."""
    # the one command that reads the catalog, so the only one that loads it
    from .rules import RuleError, check_catalog, full_catalog
    try:  # RuleError: --corrupt of a name no rule has
        reports = check_catalog(full_catalog(), samples=samples, tol=tol,
                                seed=seed, corrupt=corrupt)
    except RuleError as exc:
        _fail(str(exc))
    failures = [r for r in reports if not r.ok]
    if as_json:
        click.echo(json.dumps({
            "samples": samples, "tol": tol,
            "rules": [r.to_jsonable() for r in reports],
            "ok": not failures,
        }))
    else:
        for r in reports:
            status = "ok" if r.ok else "FAIL"
            click.echo(f"{r.name:32s} {status}  checked={r.checked:3d}  "
                       f"max_dev={r.max_deviation:.2e}")
        click.echo(f"{len(reports)} rules, {len(failures)} failing")
    sys.exit(0 if not failures else 1)


@main.command("elementary")
@click.argument("matrix_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False),
              help="write the composed diagram file here")
def cmd_elementary(matrix_file, out):
    """Decompose a matrix into elementary transformation diagrams."""
    mat = load_matrix(matrix_file)
    try:
        ops, d = decompose_elementary(mat)
    except ValueError as exc:  # a bad matrix shape
        _fail(str(exc))
    bound = 1e-7 * max(1.0, float(np.abs(mat).max()))
    if not max_deviation(interpret(d), mat) <= bound:
        _fail("internal: composed diagram does not reproduce the matrix")
    if out:
        _save(d, out)
    click.echo(json.dumps({"operations": ops}))


@main.command("export")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", default="dot", show_default=True,
              type=click.Choice(["dot", "tikz-text"]))
def cmd_export(file, fmt):
    """Emit a deterministic text description of the diagram graph."""
    click.echo(export_text(load_diagram(file), fmt))


if __name__ == "__main__":
    main()
