"""Value semantics of the immutable classes built on `binprod.record.Record`."""

import copy
import pickle

import pytest

from binprod import Poly, named_gf
from binprod.cli import Token
from binprod.convolve import ProductPlan
from binprod.record import Record
from binprod.seqlib import IdentityCheck, IdentityReport, NamedGF


# A small expression tree of Record classes: a class with no fields, one
# with a default, and six with the same two fields.


class Node(Record):
    __slots__ = ()


class Num(Node):
    __slots__ = _fields = ("value",)


class Var(Node):
    __slots__ = ()


class Seq(Node):
    __slots__ = _fields = ("name", "args")
    _defaults = {"args": ()}


class Neg(Node):
    __slots__ = _fields = ("operand",)


class Pow(Node):
    __slots__ = _fields = ("base", "exponent")


class Binary(Node):
    __slots__ = _fields = ("left", "right")


class Add(Binary):
    __slots__ = ()


class Sub(Binary):
    __slots__ = ()


class Mul(Binary):
    __slots__ = ()


class Div(Binary):
    __slots__ = ()


class BProd(Binary):
    __slots__ = ()


class HProd(Binary):
    __slots__ = ()


A, B = Num(1), Var()
BINARY = (Add, Sub, Mul, Div, BProd, HProd)
CHECK = IdentityCheck("a", "slug", "what it says", "no parameters", "pass")

# one instance of each Record class of binprod
INSTANCES = [
    Token("op", "+", 2),
    ProductPlan(Poly([1, -1]), 3),
    named_gf("fib"),
    CHECK,
    IdentityReport((CHECK,)),
]
# and of each class above but Node and Binary
SAMPLES = [A, B, Seq("g", (A, Neg(B))), Neg(A), Pow(B, -2), *(cls(A, B) for cls in BINARY)]
VALUES = INSTANCES + SAMPLES


class TestEquality:
    @pytest.mark.parametrize("cls", BINARY)
    def test_same_fields_different_type_unequal(self, cls):
        for other in BINARY:
            assert (cls(A, B) == other(A, B)) == (cls is other)
        assert cls(A, B) != (A, B)

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
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
    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_fields_cannot_be_assigned_or_added(self, value):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
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
        assert Token(pos=0, text="fib", kind="name") == Token("name", "fib", 0)
        assert Seq(name="g", args=(A,)) == Seq("g", (A,))
        assert Pow(base=B, exponent=2) == Pow(B, 2) == Pow(B, exponent=2)
        assert Add(right=B, left=A) == Add(A, B)
        assert ProductPlan(num_deg_bound=1, den_bound=Poly.one()) == ProductPlan(Poly.one(), 1)
        assert CHECK._fields == ("id", "slug", "description", "params", "status", "witness")
        assert NamedGF._fields == ("name", "params", "gf")

    def test_defaults_by_keyword(self):
        assert Seq(name="fib") == Seq("fib", ())
        check = IdentityCheck(status="pass", params="p", description="d", slug="s", id="a")
        assert check == IdentityCheck("a", "s", "d", "p", "pass", "")
        assert IdentityCheck("a", "s", "d", "p", "fail", witness="w").witness == "w"

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Var(1), "takes 0 fields, got 1"),
            (lambda: Num(1, 2), "takes 1 fields, got 2"),
            (lambda: Seq("g", (), 3), "takes 2 fields, got 3"),
            (lambda: Num(), "missing fields value"),
            (lambda: Pow(B), "missing fields exponent"),
            (lambda: Token(text="+"), "missing fields kind, pos"),
            (lambda: IdentityCheck("a", "s", "d", "p"), "missing fields status"),
            (lambda: Num(val=1), "no field 'val'"),
            (lambda: Seq("g", argz=()), "no field 'argz'"),
            (lambda: Num(1, value=1), "field 'value' twice"),
            (lambda: Add(A, left=B), "field 'left' twice"),
        ],
    )
    def test_bad_calls_raise_type_error(self, build, message):
        with pytest.raises(TypeError, match=message):
            build()

    def test_repr_names_the_fields(self):
        node = Add(Num(1), Seq("fib"))
        assert repr(node) == "Add(left=Num(value=1), right=Seq(name='fib', args=()))"
        assert repr(Var()) == "Var()"
        assert repr(Token("end", "", 5)) == "Token(kind='end', text='', pos=5)"
        namespace = {cls.__name__: cls for cls in (Add, Num, Seq)}
        assert eval(repr(node), namespace) == node

    def test_fields_are_set_by_record_alone(self):
        # every class takes its fields in _fields order, which __reduce__ relies on
        classes, todo = [], [Record]
        while todo:
            for cls in todo.pop().__subclasses__():
                if cls.__module__.startswith("binprod."):
                    classes.append(cls)
                    todo.append(cls)
        assert not [cls for cls in classes if "__init__" in vars(cls)]
        leaves = {cls for cls in classes if not cls.__subclasses__()}
        assert leaves == {type(value) for value in INSTANCES}
        for value in INSTANCES:
            assert type(value)(*value._values()) == value

    def test_class_layout(self):
        for value in VALUES:
            assert isinstance(value, Record)
        for value in SAMPLES:
            assert isinstance(value, Node)
        # the command line's one value class is its token
        assert [cls for cls in Record.__subclasses__() if cls.__module__ == "binprod.cli"] == [Token]
