"""Value semantics of binprod's five value classes, each a `collections.namedtuple`.

They are `cli.Token`, `convolve.ProductPlan`, `seqlib.NamedGF`,
`seqlib.IdentityCheck` and `seqlib.IdentityReport`.  Equality and hashing are
tuple's, so a value equals a plain tuple of its fields.
"""

import copy
import pickle

import pytest

from binprod import Poly, RatFun, named_gf
from binprod.cli import Token, tokenize
from binprod.convolve import ProductPlan, plan_binomial, plan_hadamard
from binprod.seqlib import (
    IdentityCheck,
    IdentityReport,
    NamedGF,
    run_identity_suite,
    sequence_names,
)

CHECK = IdentityCheck("a", "slug", "what it says", "no parameters", "pass")

# Each value class as the library builds it: a token of each kind, the plans
# of both direct routes, every registered sequence, a passing and a failing
# identity check, and a report.
FIB, PELL = named_gf("fib").gf, named_gf("pell").gf
WRONG_LUCAS = named_gf("lucas").gf + RatFun(Poly([0, 1]))
SEQUENCE_PARAMS = {"q": (2,), "g": (1, 1)}
VALUES = {
    **{f"Token-{token.kind}": token for token in tokenize("fib ** 2")},
    "ProductPlan-binomial-symfun": plan_binomial(FIB, PELL, "symfun"),
    "ProductPlan-binomial-resultant": plan_binomial(FIB, PELL, "resultant"),
    "ProductPlan-hadamard-symfun": plan_hadamard(FIB, PELL, "symfun"),
    "ProductPlan-self-symfun": plan_binomial(FIB, FIB, "symfun"),
    **{
        f"NamedGF-{name}": named_gf(name, SEQUENCE_PARAMS.get(name, ()))
        for name in sequence_names()
    },
    "IdentityCheck-pass": run_identity_suite(only="a").checks[0],
    "IdentityCheck-fail": run_identity_suite(only="a", overrides={"lucas": WRONG_LUCAS}).checks[0],
    "IdentityReport": run_identity_suite(only="a,k"),
}
# one instance of each value class of binprod
INSTANCES = [
    VALUES["Token-op"],
    VALUES["ProductPlan-binomial-symfun"],
    VALUES["NamedGF-fib"],
    CHECK,
    VALUES["IdentityReport"],
]
by_value = pytest.mark.parametrize("value", list(VALUES.values()), ids=list(VALUES))


class TestEquality:
    @by_value
    def test_equal_copies_hash_equal(self, value):
        twin = type(value)(*(getattr(value, name) for name in value._fields))
        assert twin is not value
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)

    def test_product_plan_compares_both_fields(self):
        den = Poly([1, -3, 1])
        assert ProductPlan(den, 2) == ProductPlan(Poly([1, -3, 1]), 2)
        assert ProductPlan(den, 2) != ProductPlan(den, 3)
        assert ProductPlan(den, 2) != ProductPlan(Poly([1, -3]), 2)

    @by_value
    def test_a_value_equals_the_plain_tuple_of_its_fields(self, value):
        fields = tuple(getattr(value, name) for name in value._fields)
        assert value == fields and not value != fields
        assert hash(value) == hash(fields)


class TestImmutability:
    @by_value
    def test_fields_cannot_be_assigned_or_added(self, value):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "__dict__")

    @by_value
    def test_copy_and_pickle_rebuild_equal_values(self, value):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value


class TestConstruction:
    def test_defaults(self):
        assert CHECK.witness == ""
        assert VALUES["IdentityCheck-pass"].witness == ""
        failed = VALUES["IdentityCheck-fail"]
        assert failed.status == "fail" and failed.witness != ""
        assert IdentityCheck("a", "s", "d", "p", "fail", "x != y").witness == "x != y"

    def test_keyword_construction_and_field_order(self):
        assert Token(kind="name", text="fib", pos=0) == Token("name", "fib", 0)
        assert Token(pos=0, text="fib", kind="name") == Token("name", "fib", 0)
        assert Token("name", pos=0, text="fib") == Token("name", "fib", 0)
        assert ProductPlan(num_deg_bound=1, den_bound=Poly.one()) == ProductPlan(Poly.one(), 1)
        assert Token._fields == ("kind", "text", "pos")
        assert ProductPlan._fields == ("den_bound", "num_deg_bound")
        assert CHECK._fields == ("id", "slug", "description", "params", "status", "witness")
        assert NamedGF._fields == ("name", "params", "gf")
        assert IdentityReport._fields == ("checks",)

    def test_defaults_by_keyword(self):
        check = IdentityCheck(status="pass", params="p", description="d", slug="s", id="a")
        assert check == IdentityCheck("a", "s", "d", "p", "pass", "")
        assert IdentityCheck("a", "s", "d", "p", "fail", witness="w").witness == "w"

    # Python's own messages: the constructor is namedtuple's __new__
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Token("op", "+", 2, 3), "takes 4 positional arguments but 5 were given"),
            (lambda: IdentityReport((), ()), "takes 2 positional arguments but 3 were given"),
            (lambda: ProductPlan(Poly.one()), "missing 1 required positional argument: 'num_deg_bound'"),
            (lambda: Token(text="+"), "missing 2 required positional arguments: 'kind' and 'pos'"),
            (lambda: IdentityCheck("a", "s", "d", "p"), "missing 1 required positional argument: 'status'"),
            (lambda: NamedGF(name="fib", params=(), series=None), "unexpected keyword argument 'series'"),
            (lambda: Token("op", kind="op", text="+", pos=0), "multiple values for argument 'kind'"),
            (lambda: NamedGF("fib", (), FIB, ()), "takes 4 positional arguments but 5 were given"),
            (lambda: IdentityCheck(*"asdpfwx"), "takes from 6 to 7 positional arguments but 8 were given"),
            (lambda: IdentityReport(), "missing 1 required positional argument: 'checks'"),
            (lambda: ProductPlan(Poly.one(), 1, bound=2), "unexpected keyword argument 'bound'"),
            (
                lambda: IdentityCheck("a", id="a", slug="s", description="d", params="p", status="pass"),
                "multiple values for argument 'id'",
            ),
        ],
    )
    def test_bad_calls_raise_type_error(self, build, message):
        with pytest.raises(TypeError, match=message):
            build()

    def test_repr_names_the_fields(self):
        token = Token("end", "", 5)
        assert repr(token) == "Token(kind='end', text='', pos=5)"
        assert eval(repr(token), {"Token": Token}) == token
        assert repr(IdentityReport(())) == "IdentityReport(checks=())"
        assert repr(CHECK) == (
            "IdentityCheck(id='a', slug='slug', description='what it says', "
            "params='no parameters', status='pass', witness='')"
        )

    def test_class_layout(self):
        for value in INSTANCES:
            assert isinstance(value, tuple)
            assert type(value).__slots__ == ()
