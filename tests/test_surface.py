"""The public surface: README's Library section, `binprod.__all__` and the module paths."""

import importlib
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import binprod
from binprod.cli import main
from binprod.polycore import poly_gcd

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "BinprodError",
    "CoprimalityViolation",
    "DecompositionUnavailable",
    "DivisibilityError",
    "DivisionByZero",
    "InternalInvariantViolation",
    "InvalidInput",
    "METHODS",
    "NotAPowerSeries",
    "ParseError",
    "Poly",
    "RatFun",
    "ReconstructionFailed",
    "Series",
    "binomial_product",
    "hadamard_product",
    "named_gf",
    "reconstruct_rational",
    "run_identity_suite",
]

# internals, importable only from the module that defines them
INTERNAL = {
    "polycore": [
        "BiPoly",
        "det_fraction_free",
        "format_poly",
        "lift_to_y",
        "poly_gcd",
        "resultant",
        "solve_exact",
        "sub_one_minus_y",
        "sub_x_over_y",
        "sylvester",
    ],
    "ratfun": ["format_ratfun", "series_binomial", "series_hadamard"],
    "symfun": ["denominator_via_symfun"],
    "convolve": [
        "ProductPlan",
        "binomial_denominator",
        "hadamard_denominator",
        "komatsu_decompose",
        "plan_binomial",
        "plan_hadamard",
        "poly_bprod",
    ],
    "pfrac": ["binomial_via_constant_term", "constant_term_split", "tpoly_xgcd"],
    "seqlib": [
        "DEFAULT_SEED",
        "IdentityCheck",
        "IdentityReport",
        "NamedGF",
        "fib_number",
        "fibonacci_multisection",
        "identity_ids",
        "lucas_multisection",
        "lucas_number",
        "sequence_names",
    ],
}
INTERNAL_PATHS = [(module, name) for module, names in INTERNAL.items() for name in names]


def readme_library_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def readme_library_block() -> str:
    return re.search(r"```python\n(.*?)```", readme_library_section(), re.S).group(1)


def test_all_is_the_documented_library():
    assert sorted(binprod.__all__) == PUBLIC
    section = readme_library_section()
    for name in PUBLIC:
        assert hasattr(binprod, name), name
        assert f"`{name}`" in section, f"README's Library section does not list {name}"


def test_readme_library_example_runs():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", readme_library_block()],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "12/12 identity groups verified exactly" in proc.stdout
    # the example's comment names the default method
    default = inspect.signature(binprod.binomial_product).parameters["method"].default
    assert f"# default: {default} route" in readme_library_block()


def readme_cli_examples():
    """(argv, shown output) for each README command line whose output README shows.

    The output is the "→" lines below the command, or for eval, coeffs and
    denominator the "# ..." comment, which writes the result on one line.
    """
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"\n## Command line\n.*?```text\n(.*?)```", readme, re.S).group(1)
    examples = []
    for line in block.splitlines():
        if line.startswith("binprod "):
            command, _, comment = line.partition("#")
            argv = shlex.split(command)[1:]
            examples.append((argv, [comment] if argv[0] in ("eval", "coeffs", "denominator") else []))
        elif line.lstrip().startswith("→") or (line.startswith(" ") and examples[-1][1]):
            examples[-1][1].append(line.strip().removeprefix("→"))
    return [(argv, " ".join(shown)) for argv, shown in examples if shown]


README_CLI = readme_cli_examples()


@pytest.mark.parametrize("argv, shown", README_CLI, ids=[shlex.join(argv) for argv, _ in README_CLI])
def test_readme_command_line_example_prints_what_readme_shows(capsys, argv, shown):
    assert main(argv) == 0
    assert capsys.readouterr().out.split() == shown.split()


@pytest.mark.parametrize("module, name", INTERNAL_PATHS, ids=[f"{m}.{n}" for m, n in INTERNAL_PATHS])
def test_internal_name_imports_from_its_module_only(module, name):
    assert hasattr(importlib.import_module(f"binprod.{module}"), name)
    with pytest.raises(ImportError):
        exec(f"from binprod import {name}", {})


# every integer argument of the library goes through one check; a bool is
# not an integer there
SERIES = binprod.named_gf("fib").gf.expand(12)
BAD_INTEGER_CALLS = {
    "RatFun ** 1.5": lambda: binprod.RatFun(binprod.Poly.x()) ** 1.5,
    "RatFun ** True": lambda: binprod.RatFun(binprod.Poly.x()) ** True,
    "Poly ** -1": lambda: binprod.Poly([1, 2]) ** -1,
    "Poly ** '2'": lambda: binprod.Poly([1, 2]) ** "2",
    "expand('3')": lambda: binprod.named_gf("fib").gf.expand("3"),
    "expand(-1)": lambda: binprod.named_gf("fib").gf.expand(-1),
    "reconstruct_rational(s, 1.5, 1)": lambda: binprod.reconstruct_rational(SERIES, 1.5, 1),
    "reconstruct_rational(s, True, 1)": lambda: binprod.reconstruct_rational(SERIES, True, 1),
    "reconstruct_rational(s, 2, -1)": lambda: binprod.reconstruct_rational(SERIES, 2, -1),
    "Poly.monomial(1.5)": lambda: binprod.Poly.monomial(1.5),
    "Poly.monomial(-1)": lambda: binprod.Poly.monomial(-1),
    "shift(True)": lambda: binprod.Poly([1, 2]).shift(True),
    "shift(None)": lambda: binprod.Poly([1, 2]).shift(None),
}


@pytest.mark.parametrize("call", BAD_INTEGER_CALLS.values(), ids=BAD_INTEGER_CALLS)
def test_integer_arguments_raise_invalid_input(call):
    with pytest.raises(binprod.InvalidInput, match="must be (an integer, not|nonnegative)"):
        call()


# a zero divisor raises DivisionByZero, which is also a ZeroDivisionError
ZERO_DIVISOR_CALLS = {
    "Poly.exact_div(0)": lambda: binprod.Poly([1, 2]).exact_div(0),
    "divmod(p, Poly([]))": lambda: divmod(binprod.Poly([1, 2]), binprod.Poly([])),
    "pseudo_divmod(Poly())": lambda: binprod.Poly([1, 2]).pseudo_divmod(binprod.Poly()),
    "Poly / 0": lambda: binprod.Poly([1, 2]) / 0,
    "RatFun / 0": lambda: binprod.RatFun(1) / 0,
}


@pytest.mark.parametrize("call", ZERO_DIVISOR_CALLS.values(), ids=ZERO_DIVISOR_CALLS)
def test_zero_divisors_raise_division_by_zero(call):
    with pytest.raises(binprod.DivisionByZero) as exc:
        call()
    assert isinstance(exc.value, ZeroDivisionError)


def test_poly_of_none_raises_invalid_input():
    with pytest.raises(binprod.InvalidInput, match="coefficients must be iterable, not NoneType"):
        binprod.Poly(None)


# arguments of the wrong type raise InvalidInput, not the TypeError or
# AttributeError of whatever the code did first with them
JUNK_CALLS = {
    "Series(None)": lambda: binprod.Series(None),
    "named_gf('fib', None)": lambda: binprod.named_gf("fib", None),
    "run_identity_suite(only=3)": lambda: binprod.run_identity_suite(only=3),
    "run_identity_suite(only=[3])": lambda: binprod.run_identity_suite(only=[3]),
    "RatFun.compose_poly(3)": lambda: binprod.named_gf("fib").gf.compose_poly(3),
    "pseudo_divmod(3)": lambda: binprod.Poly([1, 1]).pseudo_divmod(3),
    "poly_gcd(p, 3)": lambda: poly_gcd(binprod.Poly([1, 1]), 3),
    "compose(None)": lambda: binprod.Poly([1, 1]).compose(None),
    "compose(1.5)": lambda: binprod.Poly([1, 1]).compose(1.5),
    "compose('3')": lambda: binprod.Poly([1, 1]).compose("3"),
    "compose([1, 2])": lambda: binprod.Poly([1, 1]).compose([1, 2]),
    "named_gf([1, 2])": lambda: binprod.named_gf([1, 2]),
    "run_identity_suite(overrides=-7)": lambda: binprod.run_identity_suite(overrides=-7),
    "run_identity_suite(overrides=1.5)": lambda: binprod.run_identity_suite(overrides=1.5),
    "run_identity_suite(overrides='3')": lambda: binprod.run_identity_suite(overrides="3"),
    "run_identity_suite(overrides=[1, 2])": lambda: binprod.run_identity_suite(overrides=[1, 2]),
}


@pytest.mark.parametrize("call", JUNK_CALLS.values(), ids=JUNK_CALLS)
def test_junk_arguments_raise_invalid_input(call):
    with pytest.raises(binprod.InvalidInput, match="must be (iterable|a Poly|a str|a dict), not (NoneType|int|float|str|list)"):
        call()
