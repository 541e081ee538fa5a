"""``Record``, the base of the library's value classes: construction,
equality, hashing, repr and immutability."""

import pytest

from wordmaps.cli import load_file
from wordmaps.equivalence import Budget, Equal, FractionPresentation, NotEqual
from wordmaps.errors import DomainError, Record
from wordmaps.kpda import Configuration, FuelExhausted, Pop, Push, Stuck, run
from wordmaps.pushdown import GradedAlphabet, IteratedPushdown, Variable
from wordmaps.systemfile import SystemFile


def _pow2():
    return load_file("pow2-pda").declarations["pow2"][1]


def _fibonacci():
    return load_file("fibonacci").declarations["F"][1]


def test_reprs_are_the_dataclass_reprs():
    # each literal is what the @dataclass classes printed
    assert repr(Budget()) == (
        "Budget(chain_additions=400, max_basis=4000, max_degree=8, sample_points=120, max_point_bits=4096)")
    assert repr(NotEqual(("a",))) == "NotEqual(witness=('a',))"
    assert repr(Equal()) == "Equal()"
    assert repr(run(_pow2(), ("a", "a", "a"))) == "Accepted(output=('b', 'b', 'b', 'b', 'b', 'b', 'b', 'b'))"
    assert repr(GradedAlphabet.of({"a"}, {"b"})) == "GradedAlphabet(levels=(frozenset({'a'}), frozenset({'b'})))"


def test_equality_needs_the_same_class_and_fields():
    c = Configuration("q0", ("a",), IteratedPushdown.from_word(("b",)))
    assert Stuck(c) != FuelExhausted(c)
    assert Stuck(c) == Stuck(Configuration("q0", ("a",), IteratedPushdown.from_word(("b",))))
    assert Pop(1) != Pop(2) and Pop(1) != Push(1, ())
    assert Budget(3) == Budget(chain_additions=3) != Budget()
    assert Equal() == Equal() and Equal() != NotEqual(())


def test_equal_records_hash_equal():
    pairs = [
        (Budget(), Budget(400, 4000, 8, 120, 4096)),
        (Equal(), Equal()),
        (NotEqual(("a", "b")), NotEqual(witness=("a", "b"))),
        (Push(1, ("S", "S")), Push(symbols=("S", "S"), level=1)),
        (GradedAlphabet.of({"a"}, {"b"}), GradedAlphabet((frozenset("a"), frozenset("b")))),
        (_pow2(), _pow2()),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert len({Pop(1), Pop(1), Pop(2)}) == 2


@pytest.mark.parametrize("record", [Budget(), Equal(), NotEqual(("a",)), GradedAlphabet.of({"a"}), _pow2(),
                                    SystemFile({}, "f.sys")], ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    name = type(record).__name__
    for field in (*record._fields, "extra"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(record, field)


def test_a_bad_constructor_call_raises_type_error():
    with pytest.raises(TypeError, match="missing field 'witness'"):
        NotEqual()
    with pytest.raises(TypeError, match="missing field 'symbols'"):
        Push(level=1)
    with pytest.raises(TypeError, match="'budget' which is not a field"):
        Budget(budget=3)
    with pytest.raises(TypeError, match="'chain_additions' twice"):
        Budget(3, chain_additions=4)
    with pytest.raises(TypeError, match="takes 1 fields, 2 were given"):
        Pop(1, 2)
    with pytest.raises(TypeError, match="takes 0 fields, 1 were given"):
        Equal(1)
    with pytest.raises(TypeError, match="missing field 'declarations'"):
        SystemFile(filename="f.sys")


def test_post_init_checks_still_raise():
    with pytest.raises(DomainError, match="occur in two levels"):
        GradedAlphabet.of({"a"}, {"a"})
    with pytest.raises(DomainError, match="store must be non-empty"):
        Variable("q", IteratedPushdown.empty(1), "q")
    with pytest.raises(DomainError, match="unknown index 'H'"):
        FractionPresentation(_fibonacci(), "F", "G", "H", "G")


def test_fields_defaults_and_private_annotations():
    class Point(Record):
        x: int
        y: int = 0
        _norm: int

        def __post_init__(self):
            object.__setattr__(self, "_norm", abs(self.x) + abs(self.y))

    class Point3(Point):
        z: int = 0

    assert Point._fields == ("x", "y") and Point3._fields == ("x", "y", "z")
    p = Point(-2)
    assert (p.x, p.y, p._norm) == (-2, 0, 2)
    assert repr(Point3(1, z=5)) == f"{Point3.__qualname__}(x=1, y=0, z=5)" and Point3(1, z=5)._norm == 1
    assert Point(1, 1) != Point3(1, 1)
    # the private attribute takes no part in equality
    object.__setattr__(p, "_norm", 7)
    assert p == Point(-2, 0) and hash(p) == hash(Point(-2, 0))
    assert GradedAlphabet.of({"a"}, {"b"}).level_of("b") == 2
