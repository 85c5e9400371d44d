"""Syntax nodes as values: equality by class and fields, hashing,
immutability, the printed form and the constructor defaults."""

from fractions import Fraction

import pytest

from tccp import ast
from tccp.ast import (
    Anon, Atom, Call, Choice, Cons, CTrue, Decl, Exists, LinExpr, Linear, Now,
    Num, Parallel, Program, Skip, StreamEq, Tell, Var, pretty_num,
)

X_PLUS_2 = LinExpr((("X", Fraction(1)),), Fraction(2))

# Per node class: builders of two nodes that differ in one field, both
# called with every field given.
PAIRS = {
    Atom: (lambda: Atom("a"), lambda: Atom("b")),
    Num: (lambda: Num(Fraction(1)), lambda: Num(Fraction(2))),
    Var: (lambda: Var("X"), lambda: Var("Y")),
    Anon: (lambda: Anon(), None),
    Cons: (lambda: Cons(Atom("a"), Var("T")), lambda: Cons(Atom("a"), Anon())),
    LinExpr: (lambda: LinExpr((("X", Fraction(1)),), Fraction(2)),
              lambda: LinExpr((("X", Fraction(1)),), Fraction(3))),
    CTrue: (lambda: CTrue(), None),
    StreamEq: (lambda: StreamEq("X", Atom("a")), lambda: StreamEq("Y", Atom("a"))),
    Linear: (lambda: Linear(X_PLUS_2, "<=", LinExpr()),
             lambda: Linear(X_PLUS_2, "<", LinExpr())),
    Skip: (lambda: Skip(), None),
    Tell: (lambda: Tell(CTrue()), lambda: Tell(StreamEq("X", Anon()))),
    Parallel: (lambda: Parallel((Skip(), Tell(CTrue()))), lambda: Parallel((Skip(),))),
    Choice: (lambda: Choice(((CTrue(), Skip()),)),
             lambda: Choice(((CTrue(), Tell(CTrue())),))),
    Now: (lambda: Now(CTrue(), Skip(), Skip()), lambda: Now(CTrue(), Skip(), Call("p"))),
    Exists: (lambda: Exists(("L",), Skip()), lambda: Exists(("M",), Skip())),
    Call: (lambda: Call("p", (Var("X"),)), lambda: Call("p", (Var("Y"),))),
    Decl: (lambda: Decl("p", ("X",), Skip()), lambda: Decl("q", ("X",), Skip())),
    Program: (lambda: Program((), Skip(), ()), lambda: Program((), Call("p"), ())),
}

NODE_CLASSES = sorted(PAIRS, key=lambda cls: cls.__name__)


def test_every_node_class_is_covered():
    defined = {obj for obj in vars(ast).values()
               if isinstance(obj, type) and obj.__module__ == ast.__name__
               and not obj.__name__.startswith("_")}
    assert defined == set(PAIRS)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
class TestEveryNode:
    def test_equal_fields_give_equal_nodes(self, cls):
        make, _ = PAIRS[cls]
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b

    def test_equal_nodes_hash_equal_and_work_as_dict_keys(self, cls):
        make, other = PAIRS[cls]
        assert hash(make()) == hash(make())
        table = {make(): "first"}
        assert table[make()] == "first"
        if other is not None:
            assert other() not in table

    def test_setting_an_attribute_raises(self, cls):
        node = PAIRS[cls][0]()
        before = repr(node)
        for name in ("name", "value", "body", "other"):
            with pytest.raises(AttributeError):
                setattr(node, name, 1)
        assert repr(node) == before

    def test_deleting_an_attribute_raises(self, cls):
        node = PAIRS[cls][0]()
        for name in ("name", "value", "body", "agents", "const"):
            with pytest.raises(AttributeError):
                delattr(node, name)

    def test_unequal_to_every_other_class_and_to_the_empty_tuple(self, cls):
        node = PAIRS[cls][0]()
        for other_cls in NODE_CLASSES:
            if other_cls is not cls:
                assert node != PAIRS[other_cls][0]()
        assert node != ()

    def test_repr_names_the_class(self, cls):
        assert repr(PAIRS[cls][0]()).startswith(cls.__name__ + "(")


@pytest.mark.parametrize("cls", [c for c in NODE_CLASSES if PAIRS[c][1]],
                         ids=lambda c: c.__name__)
def test_a_different_field_gives_an_unequal_node(cls):
    make, other = PAIRS[cls]
    assert make() != other() and not make() == other()


class TestAcrossClasses:
    def test_same_fields_in_different_classes_are_unequal(self):
        assert Var("X") != Atom("X")
        assert Skip() != CTrue()
        assert Anon() != CTrue()
        assert Anon() != ()
        assert Var("X") != ("X",)
        assert Cons(Atom("a"), Anon()) != (Atom("a"), Anon())

    def test_a_set_keeps_nodes_of_different_classes_apart(self):
        assert len({Var("X"), Atom("X"), Skip(), CTrue(), Anon()}) == 5


class TestRepr:
    def test_the_dataclass_form(self):
        assert repr(Var("X")) == "Var(name='X')"
        assert repr(Anon()) == "Anon()"
        assert repr(Num(1)) == "Num(value=Fraction(1, 1))"
        assert repr(Call("p")) == "Call(name='p', actuals=())"
        assert repr(Tell(StreamEq("X", Cons(Atom("a"), Anon())))) == (
            "Tell(constraint=StreamEq(var='X', "
            "rhs=Cons(head=Atom(name='a'), tail=Anon())))")
        assert repr(LinExpr()) == "LinExpr(coeffs=(), const=Fraction(0, 1))"
        assert repr(Program()) == "Program(decls=(), entry=None, entry_vars=())"


class TestDefaults:
    def test_linexpr(self):
        assert LinExpr() == LinExpr((), Fraction(0))
        assert LinExpr().coeffs == () and LinExpr().const == 0
        assert LinExpr((("X", Fraction(1)),)).const == 0

    def test_call(self):
        assert Call("p") == Call("p", ())
        assert Call("p").actuals == ()

    def test_program(self):
        p = Program()
        assert (p.decls, p.entry, p.entry_vars) == ((), None, ())
        assert Program((Decl("p", (), Skip()),)).entry is None

    def test_too_few_or_too_many_fields_are_a_type_error(self):
        for make in (lambda: Var(), lambda: Var("X", "Y"), lambda: Skip(1),
                     lambda: Call(), lambda: Linear(X_PLUS_2, "<"),
                     lambda: LinExpr((), 0, 0)):
            with pytest.raises(TypeError):
                make()


class TestFractions:
    def test_num_keeps_a_fraction(self):
        assert Num(1) == Num(Fraction(1))
        assert type(Num(1).value) is Fraction
        assert hash(Num(1)) == hash(Num(Fraction(1)))
        assert Num("3/6").value == Fraction(1, 2)

    def test_linexpr_normalises_const(self):
        assert LinExpr((), 3) == LinExpr((), Fraction(3))
        assert type(LinExpr((), 3).const) is Fraction
        assert LinExpr((), "1/2").const == Fraction(1, 2)
        assert LinExpr.of_num(4) == LinExpr((), 4)


def int_of_text(text):
    """int(text), read 1000 digits at a time: int() refuses more than 4300."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    n = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return sign * n


class TestPrettyNum:
    def test_short_numbers(self):
        assert pretty_num(Fraction(0)) == "0"
        assert pretty_num(Fraction(-3, 4)) == "-3/4"
        assert pretty_num(Fraction(10 ** 4200)) == "1" + "0" * 4200

    @pytest.mark.parametrize("value", [
        Fraction(10 ** 10000 - 1, 7),
        Fraction(-(10 ** 9999) - 3, 10 ** 5000 + 7),
        Fraction(10 ** 8000),  # whole chunks of zeros
        Fraction(-(10 ** 8000) + 1),
        Fraction(1, 10 ** 4300),
    ], ids=["num", "neg", "zeros", "nines", "denominator"])
    def test_a_long_fraction_round_trips(self, value):
        text = pretty_num(value)
        num, _, den = text.partition("/")
        assert Fraction(int_of_text(num), int_of_text(den or "1")) == value
        assert num.lstrip("-")[0] != "0" and not den.startswith("0")
