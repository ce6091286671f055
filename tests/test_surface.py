"""The public surface: README's Library section, `binprod.__all__` and the module paths."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import binprod

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
        "Matrix",
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
        "closed_form_bprod",
        "closed_form_hprod",
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


@pytest.mark.parametrize("module, name", INTERNAL_PATHS, ids=[f"{m}.{n}" for m, n in INTERNAL_PATHS])
def test_internal_name_imports_from_its_module_only(module, name):
    assert hasattr(importlib.import_module(f"binprod.{module}"), name)
    with pytest.raises(ImportError):
        exec(f"from binprod import {name}", {})
