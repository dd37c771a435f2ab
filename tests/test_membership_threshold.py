"""Soft group membership becomes hard membership in one place: ``core.binarize``.

A document is protected iff its protected mass is at least the config's
``threshold``.  The binomial families (prefD nd and rd, FAIR, PAIR, DP, EUR
and RUR) read the rows ``binarize`` returns, never the soft rows with a rule
of their own.  The scans below keep it so: only ``binarize`` compares a value
with ``threshold`` (checks of ``threshold`` against constants, such as
``0 < threshold <= 1``, do not count), and the evaluation reads the config's
threshold only to build the binarized alignment.
"""

import ast
import inspect
from pathlib import Path

from fairrank.metrics_single import fair_scores, prefd_scores
from fairrank.pairwise import sample_pairs_of

SRC = Path(__file__).resolve().parent.parent / "src" / "fairrank"

_COMPARISONS = {"greater", "greater_equal", "less", "less_equal", "equal", "not_equal"}


def _is_threshold(node):
    return ((isinstance(node, ast.Name) and node.id == "threshold")
            or (isinstance(node, ast.Attribute) and node.attr == "threshold"))


class _Scan(ast.NodeVisitor):
    """Where ``threshold`` is compared with a non-constant (by an operator or a numpy
    comparison function) and where a ``.threshold`` attribute is read, each as the
    dotted name of the function (or class) that does it."""

    def __init__(self):
        self.compared, self.read, self.outer = [], [], []

    def visit_FunctionDef(self, node):
        self.outer.append(node.name)
        self.generic_visit(node)
        self.outer.pop()

    visit_ClassDef = visit_FunctionDef

    def _compares(self, operands):
        if any(map(_is_threshold, operands)) and not all(
                _is_threshold(o) or isinstance(o, ast.Constant) for o in operands):
            self.compared.append(".".join(self.outer))

    def visit_Compare(self, node):
        self._compares([node.left, *node.comparators])
        self.generic_visit(node)

    def visit_Call(self, node):
        if getattr(node.func, "attr", getattr(node.func, "id", None)) in _COMPARISONS:
            self._compares(node.args)
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if node.attr == "threshold" and isinstance(node.ctx, ast.Load):
            self.read.append(".".join(self.outer))
        self.generic_visit(node)


def _scan():
    compared, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        scan = _Scan()
        scan.visit(ast.parse(path.read_text(encoding="utf-8")))
        compared |= {(path.name, where) for where in scan.compared}
        read |= {(path.name, where) for where in scan.read}
    return compared, read


def test_only_binarize_compares_membership_with_the_threshold():
    compared, _ = _scan()
    assert compared == {("core.py", "binarize")}


def test_the_evaluation_reads_the_threshold_only_to_binarize():
    _, read = _scan()
    # load_config reads the default, EvalConfig.threshold; SharedInputs hands it to binarize
    assert read == {("ingest.py", "load_config"), ("pipeline.py", "SharedInputs.__init__")}
    for kernel in (prefd_scores, fair_scores, sample_pairs_of):
        assert "threshold" not in inspect.signature(kernel).parameters, kernel.__name__
