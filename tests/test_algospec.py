import pytest

from optbench import (
    BetAndRun,
    Chain,
    Leaf,
    SpecParseError,
    Wrap,
    canonical_text,
    parse_algorithm,
    split_top_level,
)


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
