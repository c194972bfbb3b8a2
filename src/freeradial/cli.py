"""Command-line surface: exact tables for counts, identities, expectations,
deviations, series, free products, and the verification suite.

Rational cells are printed as 'num/den' (or a bare integer) so that every
value round-trips through Fraction(); runs with identical flags produce
byte-identical output.  Decimal columns are opt-in display annotations and
never feed back into any computation.

The root group is the one boundary where an exception becomes an exit
code: bad input of any kind (a click usage error, or a ValueError,
CapExceededError or OSError from the library) exits 2 with one
'Error: ...' line on stderr, a closed stdout exits 0, and exit 1 is left
to a failed verification.  A command needs no error handling of its own.
"""

from __future__ import annotations

import contextlib
import decimal
import json
import sys
from fractions import Fraction
from typing import Sequence

import click

from . import __version__, counting, freeproduct, radial, verify
from .algebra import AlgebraElement, parse_element
from .words import CapExceededError, check_held_sphere, parse_word, word_count


def render_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def json_cell(value: object):
    if isinstance(value, (bool, int, str)):
        return value
    return str(value)


def emit_table(columns: Sequence[str], rows: Sequence[Sequence[object]], fmt: str) -> None:
    if fmt == "json":
        records = [
            {name: json_cell(value) for name, value in zip(columns, row)} for row in rows
        ]
        click.echo(json.dumps(records, indent=2))
    else:
        # Render every cell before the first write, so that a cell that
        # fails to render leaves no partial table on stdout.
        lines = [",".join(columns)]
        lines += [",".join(render_cell(v) for v in row) for row in rows]
        click.echo("\n".join(lines))


def approx_decimal(value: Fraction | int, digits: int, sqrt: bool = False) -> str:
    """Fixed-precision decimal rendering (display only; optionally of the
    square root, which is how squared quantities are shown unsquared)."""
    ctx = decimal.Context(prec=max(digits, 1))
    d = ctx.divide(decimal.Decimal(int(Fraction(value).numerator)),
                   decimal.Decimal(int(Fraction(value).denominator)))
    if sqrt:
        d = ctx.sqrt(d)
    return str(d)


format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
    show_default=True, help="Output format.",
)
decimals_option = click.option(
    "--decimals", type=click.IntRange(min=1), default=None,
    help="Append decimal approximation columns with this many digits.",
)
letters_option = click.option(
    "--letters", is_flag=True,
    help="Accept a, b, c, ... for g1, g2, g3, ... (e is always the identity).",
)


class _BadInput(click.ClickException):
    """Bad input of any kind, shown as one 'Error: ...' line, with exit code 2."""

    exit_code = 2


# Click 8.2+ reports a bare group as a usage error whose message is the help.
_HELP_FOR_NO_ARGS = getattr(click.exceptions, "NoArgsIsHelpError", ())


class _OneLineErrors(click.Group):
    """Root group, and the one place where an exception becomes an exit code:
    _one_line_errors wraps the parsing and the run of every command."""

    def make_context(self, *args, **kwargs) -> click.Context:
        with _one_line_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx: click.Context):
        with _one_line_errors():
            return super().invoke(ctx)


@contextlib.contextmanager
def _one_line_errors():
    """Bad input (a usage error of any command, or an error the library
    raises) becomes one 'Error: ...' line with exit code 2, with no usage,
    hint or traceback."""
    try:
        yield
    except click.UsageError as exc:
        if isinstance(exc, _HELP_FOR_NO_ARGS):
            raise
        raise _BadInput(exc.format_message()) from None
    except BrokenPipeError:
        # stdout's reader is gone, which is no error: caught before OSError,
        # and before click's own EPIPE path, which exits 1
        sys.exit(0)
    except (ValueError, CapExceededError, OSError) as exc:
        raise _BadInput(str(exc)) from None


@click.group(cls=_OneLineErrors)
@click.version_option(version=__version__, prog_name="freeradial")
def main() -> None:
    """Exact computations in the group algebra of a free group and the
    subalgebra spanned by the level sums w_n."""
    # Exact cells outgrow Python's 4300-digit guard on int-to-str conversion
    # (3.11+); lift it for this process.  Python 3.10 has no guard.
    lift = getattr(sys, "set_int_max_str_digits", None)
    if lift is not None:
        lift(0)


@main.command()
@click.option("--k", type=click.IntRange(min=2), required=True, help="Free group rank.")
@click.option("--n-max", type=click.IntRange(min=2), required=True, help="Largest word length.")
@format_option
@decimals_option
def counts(k: int, n_max: int, fmt: str, decimals: int | None) -> None:
    """First/last-letter word counts alpha, beta, gamma per length."""
    table = counting.abc_recurrence(k, n_max)
    ck = counting.constant_C(k)
    columns = ["n", "alpha", "beta", "gamma", "total_check", "drift_alpha", "within_C"]
    if decimals:
        columns.append("drift_alpha_dec")
    rows = []
    for n in range(2, n_max + 1):
        a, b, g = table[n]
        level = (2 * k - 1) ** (n - 1)
        drift = Fraction(a) - Fraction(level, 2 * k)
        within = all(abs(Fraction(v) - Fraction(level, 2 * k)) <= ck for v in (a, b, g))
        row: list[object] = [n, a, b, g, (2 * k - 2) * a + b + g == level, drift, within]
        if decimals:
            row.append(approx_decimal(drift, decimals))
        rows.append(row)
    emit_table(columns, rows, fmt)


@main.command()
@click.option("--k", type=click.IntRange(min=2), required=True)
@click.option("--n-max", type=click.IntRange(min=1), default=6, show_default=True)
@format_option
def identities(k: int, n_max: int, fmt: str) -> None:
    """Degree-one product identities and norms of the level sums, checked
    by explicit convolution (verify's radial_recurrence and norms checks)."""
    # The recurrence holds w_{n_max+1}; refuse an oversized sphere before
    # any smaller one is built.
    check_held_sphere(k, n_max + 1)
    rows = []
    recurrences = verify.check_radial_recurrence(k, n_max)
    for rec, norm in zip(recurrences, verify.check_norms(k, n_max)[1:]):
        _, n, relation = rec.params
        rows.append([n, relation, rec.passed, norm.actual, norm.passed])
    emit_table(["n", "relation", "ok", "norm_sq", "norm_ok"], rows, fmt)


@main.command()
@click.option("--k", type=click.IntRange(min=2), required=True)
@click.option("--x", "x_text", default=None, help="Single word (grammar: 'g1 g2^-1').")
@click.option(
    "--input", "input_path", default=None,
    help="Element file with '<rational> <word>' lines ('-' for stdin).",
)
@format_option
@decimals_option
@letters_option
def expect(
    k: int, x_text: str | None, input_path: str | None, fmt: str,
    decimals: int | None, letters: bool,
) -> None:
    """Expectation onto the radial subalgebra, as coefficients of w_n."""
    if x_text is not None and input_path is not None:
        raise ValueError("use either --x or --input, not both")
    if x_text is not None:
        element = AlgebraElement.from_word(parse_word(x_text, k, letters=letters))
    else:
        if input_path is None or input_path == "-":
            text = sys.stdin.read()
        else:
            with open(input_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        element = parse_element(text, k, letters=letters)
    result = radial.expect(element)
    columns = ["n", "coeff"]
    if decimals:
        columns.append("coeff_dec")
    rows = []
    for n in range(result.degree + 1):
        row: list[object] = [n, result.coeff(n)]
        if decimals:
            row.append(approx_decimal(result.coeff(n), decimals))
        rows.append(row)
    emit_table(columns, rows, fmt)


@main.command()
@click.option("--k", type=click.IntRange(min=2), required=True)
@click.option("--x", "x_text", required=True, help="Left word.")
@click.option("--y", "y_text", required=True, help="Right word.")
@click.option("--n-max", type=click.IntRange(min=0), required=True)
@format_option
@decimals_option
@letters_option
def deviation(
    k: int, x_text: str, y_text: str, n_max: int, fmt: str,
    decimals: int | None, letters: bool,
) -> None:
    """Squared deviation of the sandwich expectation per level, against the
    level-independent squared bound."""
    x = parse_word(x_text, k, letters=letters)
    y = parse_word(y_text, k, letters=letters)
    bound = radial.deviation_bound(len(x), len(y), k)
    columns = ["n", "delta_sq", "delta_sq_times_norm_sq", "bound_H_sq", "ok"]
    if decimals:
        columns.append("delta_dec")
    rows = []
    for n in range(n_max + 1):
        delta_sq = radial.deviation(x, y, n)
        scaled = delta_sq * word_count(k, n)
        row: list[object] = [n, Fraction(delta_sq), Fraction(scaled), bound, scaled <= bound]
        if decimals:
            row.append(approx_decimal(delta_sq, decimals, sqrt=True))
        rows.append(row)
    emit_table(columns, rows, fmt)


@main.command()
@click.option("--k", type=click.IntRange(min=2), required=True)
@click.option("--x", "x_text", required=True)
@click.option("--y", "y_text", required=True)
@click.option("--n-max", type=click.IntRange(min=0), required=True)
@format_option
@decimals_option
@letters_option
def series(
    k: int, x_text: str, y_text: str, n_max: int, fmt: str,
    decimals: int | None, letters: bool,
) -> None:
    """Terms and partial sums of the normalized squared-deviation series."""
    x = parse_word(x_text, k, letters=letters)
    y = parse_word(y_text, k, letters=letters)
    sums = radial.partial_sum_criterion(x, y, n_max)
    columns = ["n", "term", "partial_sum"]
    if decimals:
        columns += ["term_dec", "partial_sum_dec"]
    rows = []
    previous = Fraction(0)
    for n, total in enumerate(sums):
        term = total - previous
        previous = total
        row: list[object] = [n, term, total]
        if decimals:
            row += [approx_decimal(term, decimals), approx_decimal(total, decimals)]
        rows.append(row)
    emit_table(columns, rows, fmt)


@main.group()
def freeproduct_group() -> None:
    """Free products of finitely generated abelian groups."""


# expose under the natural name while keeping the function name importable
main.add_command(freeproduct_group, name="freeproduct")


@freeproduct_group.command("chi")
@click.option("--config", "config_path", required=True, help="JSON configuration file.")
@click.option("--x", "x_text", required=True, help="JSON syllable list for x.")
@click.option("--y", "y_text", required=True, help="JSON syllable list for y.")
@click.option("--n-max", type=click.IntRange(min=0), required=True)
@format_option
def freeproduct_chi(config_path: str, x_text: str, y_text: str, n_max: int, fmt: str) -> None:
    """Middle-word counts chi_n, the quadratic bound, and the squared norm
    of the sandwich expectation."""
    cfg = freeproduct.load_config(config_path)
    x = freeproduct.parse_fp_word(x_text, cfg)
    y = freeproduct.parse_fp_word(y_text, cfg)
    columns = ["n", "chi_size", "bound", "ok", "norm_sq_num", "norm_sq_den"]
    rows = []
    for n in range(n_max + 1):
        element, size = freeproduct.expect_fp(x, y, n, cfg)
        norm_sq = Fraction(element.norm_sq())
        bound = (n + 1) * (2 * n + 1)
        ok = size <= bound and norm_sq <= size * size
        rows.append([n, size, bound, ok, norm_sq.numerator, norm_sq.denominator])
    emit_table(columns, rows, fmt)


@main.command("verify")
@click.option("--k", type=click.IntRange(min=2), default=2, show_default=True)
@click.option("--n-max", type=click.IntRange(min=2), default=8, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Emit reports as JSON.")
@click.option(
    "--checks", default=None,
    help="Comma-separated subset of checks (default: all); a name given twice runs once.",
)
def verify_cmd(k: int, n_max: int, as_json: bool, checks: str | None) -> None:
    """Run the oracle cross-check suite; exit 1 if anything fails."""
    selected = None if checks is None else tuple(filter(None, map(str.strip, checks.split(","))))
    if selected == ():
        raise ValueError(f"--checks selects no check (known: {', '.join(verify.CHECKS)})")
    reports = verify.run_suite(k=k, n_max=n_max, checks=selected)
    failures = [r for r in reports if not r.passed]
    if as_json:
        click.echo(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            click.echo(str(report))
        click.echo(f"{len(reports) - len(failures)}/{len(reports)} checks passed")
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
