"""Scene text format round-trips and deterministic SVG rendering."""
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from porism.errors import ParseError
from porism.fields import QuadExt
from porism.plane import INFINITY, ConicParam, ProjLine, ProjPoint
from porism.closure import LineConfiguration, dual_chain
from porism.scene import (
    SceneDocument,
    format_param,
    format_rational,
    load_scene,
    parse,
    parse_param,
    parse_rational,
    save_scene,
    serialize,
)
from porism.svg import render_scene


def _params(*values):
    return tuple(INFINITY if v == "inf" else ConicParam(Fraction(v)) for v in values)


X0_SCENE = SceneDocument(
    (ProjLine(1, 0, -1), ProjLine(0, 1, 0)),
    (("A", ProjPoint(1, 0, 1)),),
    (_params(3, Fraction(1, 3), Fraction(-1, 3), -3, 3),),
)


def test_serialize_frozen():
    assert serialize(X0_SCENE) == (
        "poncelet-scene 1\n"
        "conic canonical\n"
        "line 1 0 -1\n"
        "line 0 1 0\n"
        "point A 1 0 1\n"
        "chain dual 3 1/3 -1/3 -3 3\n"
    )


def test_round_trip():
    assert parse(serialize(X0_SCENE)) == X0_SCENE


def test_serialize_is_canonical():
    # proportional line coordinates normalize to one spelling
    doc = SceneDocument((ProjLine(2, 0, -2), ProjLine(0, 5, 0)))
    assert serialize(doc) == "poncelet-scene 1\nconic canonical\nline 1 0 -1\nline 0 1 0\n"


def test_parse_skips_comments_and_blanks():
    text = (
        "# header comment\n\n"
        "poncelet-scene 1\n"
        "   conic canonical\n"
        "\n"
        "line 1 0 -1   \n"
        "# trailing comment\n"
    )
    doc = parse(text)
    assert doc.lines == (ProjLine(1, 0, -1),)
    assert doc.points == () and doc.chains == ()


def test_parse_infinity_param():
    doc = parse("poncelet-scene 1\nconic canonical\nchain dual 0 inf\n")
    assert doc.chains == ((ConicParam(Fraction(0)), INFINITY),)
    assert serialize(doc).endswith("chain dual 0 inf\n")


@pytest.mark.parametrize("text", [
    "",
    "conic canonical\n",
    "poncelet-scene 2\nconic canonical\n",
    "poncelet-scene 1\n",
    "poncelet-scene 1\nline 1 0 -1\n",
    "poncelet-scene 1\nconic canonical\nline 1 0\n",
    "poncelet-scene 1\nconic canonical\nline 1 0.5 -1\n",
    "poncelet-scene 1\nconic canonical\nline 1 3/0 -1\n",
    "poncelet-scene 1\nconic canonical\nline 0 0 0\n",
    "poncelet-scene 1\nconic canonical\npoint A 1 0\n",
    "poncelet-scene 1\nconic canonical\nchain primal 1 2\n",
    "poncelet-scene 1\nconic canonical\nchain dual\n",
    "poncelet-scene 1\nconic canonical\ncircle 1 2 3\n",
    "poncelet-scene 1\nconic canonical\nline \u0661 0 -1\n",
    "poncelet-scene 1\nconic canonical\nline 1_000 0 -1\n",
    "poncelet-scene 1\nconic canonical\nline +1 0 -1\n",
    "poncelet-scene 1\nconic canonical\npoint A \u0663/\u0664 0 1\n",
])
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse(text)


# the interpreter's limit on digits in an integer string; 0 where there is none
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="integer strings of any length convert")
@pytest.mark.parametrize("record", ["line 1 0 {}", "point A 1 1/{} 0", "chain dual {} 1"])
def test_parse_rejects_scalars_beyond_the_digit_limit(record):
    token = "1" * (_DIGIT_LIMIT + 1)
    with pytest.raises(ParseError):
        parse(f"poncelet-scene 1\nconic canonical\n{record.format(token)}\n")


def test_format_rational_names_the_digits_beyond_the_limit(digit_limit_640):
    assert format_rational(10**639) == "1" + "0" * 639
    for q, digits in [(10**700, 701), (Fraction(-1, 10**650 - 1), 650), (Fraction(10**640, 3), 641)]:
        with pytest.raises(ParseError, match=f"^cannot store a scalar of {digits} digits: "
                           "the interpreter's limit for integer string conversion is 640 digits$"):
            format_rational(q)


_TOKENS = st.sampled_from([
    "poncelet-scene", "1", "conic", "canonical", "line", "point", "chain", "dual",
    "inf", "A", "0", "-1", "2/3", "3/0", "-0/5", "1.5", "1e3", "#", "\u0661", "",
])
scene_texts = st.one_of(
    st.text(),
    st.lists(st.lists(_TOKENS, max_size=6).map(" ".join), max_size=6).map(
        lambda records: "poncelet-scene 1\nconic canonical\n" + "\n".join(records)
    ),
)


@given(scene_texts)
def test_parse_raises_only_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
_triples = st.tuples(_rationals, _rationals, _rationals).filter(any)
_names = st.text(min_size=1, max_size=8).filter(lambda s: not any(c.isspace() for c in s))
scene_documents = st.builds(
    SceneDocument,
    st.lists(_triples.map(lambda c: ProjLine(*c)), max_size=4).map(tuple),
    st.lists(st.tuples(_names, _triples.map(lambda c: ProjPoint(*c))), max_size=3).map(tuple),
    st.lists(
        st.lists(st.one_of(st.just(INFINITY), _rationals.map(ConicParam)), max_size=5).map(tuple),
        max_size=3,
    ).map(tuple),
)


@given(scene_documents)
def test_parse_inverts_serialize(doc):
    if () in doc.chains:  # "chain dual" alone would not parse
        with pytest.raises(ParseError):
            serialize(doc)
    else:
        assert parse(serialize(doc)) == doc


def test_serialize_rejects_irrational_and_bad_names():
    with pytest.raises(ParseError):
        serialize(SceneDocument((ProjLine(1.0, 0.0, -1.0),)))
    with pytest.raises(ParseError):
        serialize(SceneDocument((), (("two words", ProjPoint(1, 0, 1)),)))
    with pytest.raises(ParseError):
        format_param(ConicParam(0.5))


@given(st.fractions(max_denominator=1000))
def test_rational_token_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(st.one_of(st.just(INFINITY),
                 st.fractions(max_denominator=60).map(ConicParam)))
def test_param_token_round_trip(t):
    assert parse_param(format_param(t)) == t


def test_save_load_round_trip(tmp_path):
    path = str(tmp_path / "scene.txt")
    save_scene(X0_SCENE, path)
    assert load_scene(path) == X0_SCENE


def test_save_scene_that_fails_to_serialize_leaves_the_file(tmp_path):
    path = tmp_path / "scene.txt"
    save_scene(X0_SCENE, str(path))
    before = path.read_text(encoding="utf-8")
    chord_over_sqrt2 = (ConicParam(QuadExt(0, 1, 2)), ConicParam(QuadExt(0, -1, 2)))
    with pytest.raises(ParseError):
        save_scene(X0_SCENE._replace(chains=(chord_over_sqrt2,)), str(path))
    assert path.read_text(encoding="utf-8") == before


def test_from_configuration():
    config = LineConfiguration([ProjLine(1, 0, -1), ProjLine(0, 1, 0)])
    chain = dual_chain(config, ConicParam(Fraction(3)))
    doc = SceneDocument.from_configuration(config, chains=[chain.params])
    assert doc.lines == config.lines
    assert doc.chains == (chain.params,)
    assert doc.configuration().lines == config.lines


def test_render_deterministic():
    first = render_scene(X0_SCENE)
    second = render_scene(X0_SCENE)
    assert first == second
    assert first.startswith("<svg ")
    assert first.endswith("</svg>\n")


def test_render_element_counts():
    svg = render_scene(X0_SCENE)
    assert svg.count('<path class="conic"') == 1
    assert svg.count('class="cfgline"') == 2
    # a closed 5-parameter trace draws 4 edges and 4 distinct vertices
    assert svg.count('class="edge"') == 4
    assert svg.count('class="vertex"') == 4
    assert svg.count('class="point"') == 1
    assert svg.count("<text") == 1 and ">A</text>" in svg


def test_render_skips_infinite_chain_points():
    doc = SceneDocument((ProjLine(1, 0, -1), ProjLine(0, 1, 0)),
                        chains=(_params(0, "inf"),))
    svg = render_scene(doc)
    # the edge to the infinite vertex is dropped, the finite vertex remains
    assert svg.count('class="edge"') == 0
    assert svg.count('class="vertex"') == 1


def test_render_charts_vertices_past_the_float_range():
    # a dual chain at n = 256 has 1800-bit parameters; the vertex of
    # (3^1200 + 1)/3^1200, near (1 : 1 : 1), has 3800-bit coordinates
    near_one = ConicParam(Fraction(3**1200 + 1, 3**1200))
    doc = SceneDocument(X0_SCENE.lines, chains=((near_one, ConicParam(Fraction(1, 2)), near_one),))
    one = SceneDocument(X0_SCENE.lines, chains=(_params(1, Fraction(1, 2), 1),))
    assert render_scene(doc) == render_scene(one)


def test_render_sample_floor():
    with pytest.raises(ValueError):
        render_scene(X0_SCENE, samples=7)


def test_render_more_samples_changes_path_only():
    coarse = render_scene(X0_SCENE, samples=64)
    fine = render_scene(X0_SCENE, samples=512)
    assert coarse != fine
    assert coarse.count('class="edge"') == fine.count('class="edge"')
