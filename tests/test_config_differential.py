"""The plain config reader against PyYAML.

``fairrank._plain_yaml.load`` must return exactly what ``yaml.safe_load(text)
or {}`` returns, compared on type, value and key order, or None, which leaves
the text to PyYAML.  Hypothesis writes config texts from the block and flow
forms of the subset, with comments, blank lines and varied indentation, and
then from the same forms salted with scalars and characters that YAML reads in
ways the subset leaves out.  Every config text in the README, in the tests
and in the benchmark's ``stochastic`` workload must be read without PyYAML.
"""

import ast
import re
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import _plain_yaml

ROOT = Path(__file__).resolve().parents[1]
CONFIG_KEYS = {"protected", "unknown", "unknown_policy", "threshold", "metrics"}


def same(ours, theirs) -> bool:
    """Equal in type, value and key order at every level (``1 == 1.0 == True`` is not enough)."""
    if type(ours) is not type(theirs):
        return False
    if isinstance(ours, dict):
        return (list(ours) == list(theirs)
                and all(same(ours[key], theirs[key]) for key in ours))
    if isinstance(ours, list):
        return len(ours) == len(theirs) and all(map(same, ours, theirs))
    if isinstance(ours, float):
        return repr(ours) == repr(theirs)
    return ours == theirs


def check(text: str) -> bool:
    """Whether the plain reader read ``text``; when it did, PyYAML reads the same document."""
    ours = _plain_yaml.load(text)
    if ours is None:
        return False
    theirs = yaml.safe_load(text) or {}
    assert same(ours, theirs), (text, ours, theirs)
    return True


# --- the subset's own forms ---

BOOLS_AND_NULLS = [spelling for word in ("true", "yes", "on", "false", "no", "off", "null")
                   for spelling in (word, word.capitalize(), word.upper())]
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
words = st.builds(str.__add__, st.sampled_from(_LETTERS),
                  st.text(_LETTERS + "0123456789", max_size=6)).filter(
    lambda word: word not in BOOLS_AND_NULLS)
ints = st.integers(-10**6, 10**6).map(str)
decimals = st.builds(lambda whole, frac: f"{whole}.{frac}", st.integers(-999, 999),
                     st.text("0123456789", min_size=1, max_size=4))
plain_scalars = st.one_of(words, ints, decimals, st.sampled_from(BOOLS_AND_NULLS),
                          st.sampled_from(["-0", "-0.0", "0.0", "nan", "inf", "y", "n", "_"]))
spaces = st.sampled_from(["", " ", "  "])


def flows(scalars, keys):
    """One-line flow collections of ``scalars``, nested, keyed by ``keys``, spaced at random."""
    def collection(children):
        items = st.lists(children, max_size=4)
        seq = st.builds(lambda xs, pad, sep: "[" + pad + sep.join(xs) + pad + "]",
                        items, spaces, st.sampled_from([", ", ",", " , "]))
        mapping = st.builds(
            lambda pairs, pad, sep: "{" + pad + sep.join(f"{k}: {v}" for k, v in pairs) + pad + "}",
            st.lists(st.tuples(keys, children), max_size=4, unique_by=lambda kv: kv[0]),
            spaces, st.sampled_from([", ", ","]))
        return seq | mapping

    return collection(st.recursive(scalars, collection, max_leaves=4))


comments = st.sampled_from(["", " # note", "   # a: [b, c]", " #", " # - x: 1"])
filler = st.lists(st.sampled_from(["", "  ", "# comment", "  # indented comment", "#"]),
                  max_size=2)


@st.composite
def documents(draw, inline, keys, mutate=False):
    """A config text: top-level keys, each with an ``inline`` value, nothing or a block
    sequence."""
    lines = draw(filler)
    top_keys = draw(st.lists(keys, max_size=5, unique=not mutate))
    for key in top_keys:
        form = draw(st.sampled_from(["inline", "empty", "sequence"]))
        if form == "inline":
            lines.append(f"{key}:{draw(st.sampled_from([' ', '  ']))}{draw(inline)}"
                         f"{draw(comments)}")
        elif form == "empty":
            lines.append(f"{key}:{draw(comments)}")
        else:
            lines.append(f"{key}:{draw(comments)}")
            indent = draw(st.integers(1, 4))
            for _ in range(draw(st.integers(1, 3))):
                lines += draw(filler)
                gap = " " * draw(st.integers(1, 3))
                head = " " * indent + "-" + gap
                if draw(st.booleans()):
                    lines.append(head + draw(inline) + draw(comments))
                    continue
                item_keys = draw(st.lists(keys, min_size=1, max_size=3, unique=not mutate))
                for j, item_key in enumerate(item_keys):
                    value = draw(st.none() | inline)
                    lead = head if j == 0 else " " * len(head)
                    lines.append(f"{lead}{item_key}:" + ("" if value is None else f" {value}")
                                 + draw(comments))
        lines += draw(filler)
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))
    if mutate and draw(st.booleans()):
        text = draw(st.sampled_from(MUTATIONS))(text, draw(st.integers(0, max(len(text), 1))))
    return text


@given(documents(plain_scalars | flows(plain_scalars, words), words))
@settings(max_examples=200, deadline=None)
def test_the_plain_subset_is_read_without_pyyaml_as_pyyaml_reads_it(text):
    assert check(text), text


# --- the same forms salted with what the subset leaves to PyYAML ---

TRAPS = ["yes", "No", "ON", "off", "null", "~", "1e3", "1.5e3", "010", "0x1f", "1_000", "+1",
         ".5", "1.", ".inf", ".NaN", "1:30", "2020-01-01", "=", "<<", "'quoted'", '"quoted"',
         "'it''s'", "a#b", "a #b", "a\tb", "&a", "*a", "!!str 1", "---", "...", "\ufeffa",
         "a\r", "caf\u00e9", "a b", "-", "- x", "a:b", "a: b", "?", "|", ">", "%", "@", "`x`",
         "", " ", "1e", "0.5.1", "00.5", "-.5", "0b11", "1.0e+3", "[", "]", "{", "}", ","]


def _insert(piece):
    return lambda text, at: text[:at] + piece + text[at:]


MUTATIONS = [_insert("\t"), _insert("\u00e9"), _insert("\r"), _insert(" #"), _insert("#"),
             _insert(":"), _insert(" "), _insert("\n"), _insert("\n  "), _insert(","),
             _insert("["), _insert("}"), _insert("- "), _insert("\x7f"), _insert("\x00"),
             lambda text, at: text.replace("\n", "\r\n"),
             lambda text, at: "\ufeff" + text,
             lambda text, at: "---\n" + text,
             lambda text, at: text + "\n...\n",
             lambda text, at: "%YAML 1.1\n---\n" + text]

trap_scalars = plain_scalars | st.sampled_from(TRAPS)
trap_keys = words | st.sampled_from(["yes", "No", "on", "null", "NULL", "true", "1", "1.5", "<<",
                                     "=", "~", "a b", "'k'", "k:"])


@given(documents(trap_scalars | flows(trap_scalars, trap_keys), trap_keys, mutate=True))
@settings(max_examples=600, deadline=None)
def test_the_plain_reader_reads_as_pyyaml_or_leaves_the_text_to_it(text):
    check(text)


def test_what_the_subset_leaves_out_goes_to_pyyaml():
    for text in ["a: 1e-3\n", "a: '1'\n", "a: ~\n", "a:\tb\n", "a: b\r\n", "\ufeffa: b\n",
                 "---\na: b\n", "a: &x b\n", "a: !!str 1\n", "a:b\n", "a: [b,\n  c]\n",
                 "a: 1\na: 2\n", "yes: 1\n", "a: caf\u00e9\n", "a: 010\n", "a: [b]#c\n",
                 "a:\n  b: 1\n", "a:\n- b\n", "a: 1\n  b\n", "a: " + "[" * 65 + "]" * 65 + "\n",
                 "k" * 1100 + ": 1\n"]:
        assert _plain_yaml.load(text) is None, text


# --- the configs the project writes ---


def _readme_configs() -> list[str]:
    return re.findall(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                      re.DOTALL)


def _stochastic_config() -> str:
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "STOCHASTIC_CONFIG"
                        for target in node.targets))


# Tests of YAML's own quoting and exponent forms, which only PyYAML reads.
_YAML_FORMS = re.compile(r"['\"]|[0-9.][eE]")


def _test_configs() -> list[str]:
    """Every whole string in the tests that PyYAML reads as a config document."""
    texts = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        if path.name == Path(__file__).name:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parts = {id(value) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                 for value in node.values}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in parts and not _YAML_FORMS.search(node.value)):
                try:
                    doc = yaml.safe_load(node.value)
                except yaml.YAMLError:
                    continue
                if isinstance(doc, dict) and doc and set(map(str, doc)) <= CONFIG_KEYS:
                    texts.append(node.value)
    return texts


def test_every_config_the_project_writes_is_read_without_pyyaml():
    readme, tests = _readme_configs(), _test_configs()
    assert readme and len(tests) >= 20
    for text in [*readme, _stochastic_config(), *tests]:
        assert check(text), text
