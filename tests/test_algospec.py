import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optbench import (
    BetAndRun,
    Chain,
    Leaf,
    OptbenchError,
    SpecParseError,
    Wrap,
    canonical_text,
    parse_algorithm,
    split_top_level,
)
from optbench.wizard import validate_spec


@pytest.mark.parametrize(
    "text",
    [
        "cma",
        "one-plus-one-es",
        "tbpsa[seed=7]",
        "chain(cma,powell;0.5,0.5)",
        "chain(diagcma,meta(cma);100a,1)",
        "bet(cma,de,tbpsa;0.2)",
        "prog(de)",
        "softmax(cma)",
        "meta(cma)",
        "chain(bet(cma,de;0.25),powell;0.9,0.1)",
    ],
)
def test_round_trip(text):
    assert canonical_text(parse_algorithm(text)) == text


def test_parse_structure():
    spec = parse_algorithm("chain(cma,powell;0.5,0.5)")
    assert isinstance(spec, Chain)
    assert spec.children == (Leaf("cma"), Leaf("powell"))
    assert spec.fractions == (0.5, 0.5)
    assert spec.asks == (None, None)

    spec = parse_algorithm("chain(diagcma,meta(cma);100a,1)")
    assert spec.asks == (100, None)
    assert spec.fractions == (None, 1.0)
    assert spec.children[1] == Wrap("meta", Leaf("cma"))


def test_parse_params():
    spec = parse_algorithm("tbpsa[seed=3,naive=true,elite_fraction=0.5]")
    assert dict(spec.params) == {"seed": 3, "naive": True, "elite_fraction": 0.5}


def test_whitespace_tolerated():
    assert parse_algorithm(" chain( cma , powell ; 0.5, 0.5 ) ") == parse_algorithm(
        "chain(cma,powell;0.5,0.5)"
    )


def test_split_top_level_respects_nesting():
    assert split_top_level("chain(cma,powell;0.5,0.5),de") == [
        "chain(cma,powell;0.5,0.5)",
        "de",
    ]
    assert split_top_level("a[x=1,y=2],b") == ["a[x=1,y=2]", "b"]


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "chain(cma,powell;0.5)",  # allocation count mismatch
        "chain(cma;0.5)",  # fractions must sum to 1
        "chain(cma,powell;0.5,0.6)",
        "chain(cma,powell;-0.5,1.5)",
        "bet(cma;0.5)",  # needs two children
        "bet(cma,de;1.5)",  # fraction out of range
        "wrapx(cma)",
        "chain(cma,powell)",
        "cma(",
        "chain(cma,powell;0.5,0.5",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(SpecParseError):
        parse_algorithm(bad)


def test_chain_fraction_validation_at_construction():
    with pytest.raises(SpecParseError):
        Chain((Leaf("cma"), Leaf("de")), fractions=(0.5, 0.6), asks=(None, None))
    with pytest.raises(SpecParseError):
        Chain((Leaf("cma"),), fractions=(None,), asks=(0,))


def test_bet_validation():
    with pytest.raises(SpecParseError):
        BetAndRun((Leaf("cma"),), 0.5)
    with pytest.raises(SpecParseError):
        BetAndRun((Leaf("cma"), Leaf("de")), 0.0)


#: the characters of the grammar, its names and its numbers
SPEC_ALPHABET = "abcdefghilmnoprstuvwxyz-_0123456789.,;=()[] "
VALID_SPECS = [
    "abbo",
    "tbpsa[elite_fraction=0.5]",
    "cma[seed=3]",
    "chain(diagcma,meta(cma);100a,1)",
    "chain(bet(cma,de;0.25),powell;0.9,0.1)",
    "bet(discrete-optimistic,fastga;0.2)",
    "softmax(prog(one-plus-one-es))",
    "chain(cma,lhsde,quadratic-tr;0.25,0.25,0.5)",
]


def assert_valid_or_one_error(text):
    # an input is a spec whose canonical text re-parses to itself, or one OptbenchError
    try:
        spec = validate_spec(text)
    except OptbenchError:
        return
    canon = canonical_text(spec)
    assert canonical_text(validate_spec(canon)) == canon


#: fractions that sum to 1 but not at the six digits of ``:g``, which the canonical text once kept
SEVEN_DIGIT_CHAIN = "chain(cma,de,powell;0.1111111111,0.4444444444,0.4444444445)"


@given(st.text(SPEC_ALPHABET, max_size=40))
@example(SEVEN_DIGIT_CHAIN)
@settings(max_examples=300, deadline=None)
def test_random_spec_text_is_a_spec_or_one_error(text):
    assert_valid_or_one_error(text)


@st.composite
def mutated_specs(draw):
    """A valid spec with one character inserted, deleted or replaced."""
    text = draw(st.sampled_from(VALID_SPECS))
    i = draw(st.integers(0, len(text) - 1))
    char = draw(st.sampled_from(SPEC_ALPHABET))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    return text[:i] + (char if edit != "delete" else "") + text[i + (edit != "insert"):]


@given(mutated_specs())
@settings(max_examples=300, deadline=None)
def test_a_mutated_spec_is_a_spec_or_one_error(text):
    assert_valid_or_one_error(text)


@pytest.mark.parametrize("text", [SEVEN_DIGIT_CHAIN, "tbpsa[elite_fraction=0.12345678]", "bet(cma,de;0.1234567)"])
def test_canonical_text_keeps_every_float(text):
    spec = parse_algorithm(text)
    assert parse_algorithm(canonical_text(spec)) == spec
    assert canonical_text(parse_algorithm("chain(cma,de;0.5,0.5)")) == "chain(cma,de;0.5,0.5)"  # exact :g stays
