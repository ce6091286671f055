"""Value semantics of the immutable classes built on `binprod.record.Record`."""

import copy
import pickle

import pytest

from binprod import Poly, named_gf
from binprod.convolve import ProductPlan
from binprod.seqlib import IdentityCheck, IdentityReport, NamedGF
from binprod.cli import Add, BProd, Div, Expr, HProd, Mul, Neg, Num, Pow, Seq, Sub, Token, Var
from binprod.record import Record

A, B = Num(1), Var()
BINARY = (Add, Sub, Mul, Div, BProd, HProd)
CHECK = IdentityCheck("a", "slug", "what it says", "no parameters", "pass")

# one instance of each of the 16 classes
INSTANCES = [
    Token("op", "+", 2),
    A,
    B,
    Seq("g", (A, Neg(B))),
    Neg(A),
    Pow(B, -2),
    *(cls(A, B) for cls in BINARY),
    ProductPlan(Poly([1, -1]), 3),
    named_gf("fib"),
    CHECK,
    IdentityReport((CHECK,)),
]


class TestEquality:
    @pytest.mark.parametrize("cls", BINARY)
    def test_same_fields_different_type_unequal(self, cls):
        for other in BINARY:
            assert (cls(A, B) == other(A, B)) == (cls is other)
        assert cls(A, B) != (A, B)

    @pytest.mark.parametrize("value", INSTANCES, ids=lambda v: type(v).__name__)
    def test_equal_copies_hash_equal(self, value):
        twin = type(value)(*(getattr(value, name) for name in value._fields))
        assert twin is not value
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)

    def test_nested_nodes_compare_by_value(self):
        assert Add(Num(1), Pow(Var(), 2)) == Add(Num(1), Pow(Var(), 2))
        assert Add(Num(1), Pow(Var(), 2)) != Add(Num(1), Pow(Var(), 3))
        assert len({Seq("fib"), Seq("fib"), Seq("fib", (A,))}) == 2

    def test_product_plan_compares_both_fields(self):
        den = Poly([1, -3, 1])
        assert ProductPlan(den, 2) == ProductPlan(Poly([1, -3, 1]), 2)
        assert ProductPlan(den, 2) != ProductPlan(den, 3)
        assert ProductPlan(den, 2) != ProductPlan(Poly([1, -3]), 2)


class TestImmutability:
    @pytest.mark.parametrize("value", INSTANCES, ids=lambda v: type(v).__name__)
    def test_fields_cannot_be_assigned_or_added(self, value):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("value", INSTANCES, ids=lambda v: type(v).__name__)
    def test_copy_and_pickle_rebuild_equal_values(self, value):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value


class TestConstruction:
    def test_defaults(self):
        assert Seq("fib").args == ()
        assert CHECK.witness == ""
        assert IdentityCheck("a", "s", "d", "p", "fail", "x != y").witness == "x != y"

    def test_keyword_construction_and_field_order(self):
        assert Token(kind="name", text="fib", pos=0) == Token("name", "fib", 0)
        assert Seq(name="g", args=(A,)) == Seq("g", (A,))
        assert Pow(base=B, exponent=2) == Pow(B, 2)
        assert Add(right=B, left=A) == Add(A, B)
        assert ProductPlan(num_deg_bound=1, den_bound=Poly.one()) == ProductPlan(Poly.one(), 1)
        assert CHECK._fields == ("id", "slug", "description", "params", "status", "witness")
        assert NamedGF._fields == ("name", "params", "gf")
        with pytest.raises(TypeError):
            Var(1)
        with pytest.raises(TypeError):
            Num()

    def test_repr_names_the_fields(self):
        node = Add(Num(1), Seq("fib"))
        assert repr(node) == "Add(left=Num(value=1), right=Seq(name='fib', args=()))"
        assert repr(Var()) == "Var()"
        assert repr(Token("end", "", 5)) == "Token(kind='end', text='', pos=5)"
        namespace = {cls.__name__: cls for cls in (Add, Num, Seq)}
        assert eval(repr(node), namespace) == node

    def test_class_layout(self):
        for value in INSTANCES:
            assert isinstance(value, Record)
        for cls in (Num, Var, Seq, Neg, Pow, *BINARY):
            assert issubclass(cls, Expr)
        assert not issubclass(Token, Expr)
