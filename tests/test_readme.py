"""README's Library example runs, and each value its comments give is what it returns."""

import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"

# the comment of a statement of the block, and a check of the statement's
# value (an expression's) or of the names it binds
CLAIMS = {
    "m=2, star=[[0,1,2],[1,0,2],[2,2,0]]": lambda v, ns: ns["res"].m == 2
    and ns["res"].star.tolist() == [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
    "the distinct powers [A, A²]; the last is A*": lambda v, ns: len(v) == 2
    and np.array_equal(v[0], ns["a"]) and np.array_equal(v[1], ns["res"].star),
    "1.5  (= n/m)": lambda v, ns: v == 1.5 == ns["a"].shape[0] / ns["res"].m,
    "True": lambda v, ns: v is True,
    "A*, as subdominant(a)": lambda v, ns: np.array_equal(v, ns["res"].star),
    "spheric clusters of A* at 1.5: [0, 0, 1]": lambda v, ns: v.tolist() == [0, 0, 1],
    "clusters [[0,1,2],[3,4],[5,6,7]]": lambda v, ns: ns["c"].clusters() == [[0, 1, 2], [3, 4], [5, 6, 7]],
    "distinct values 4,6,10,16": lambda v, ns: ns["h"].values.tolist() == [4, 6, 10, 16],
    "([13.0, 8.0], False)": lambda v, ns: v == ([13.0, 8.0], False),
}


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    found = re.search(r"^## Library\n\n```python\n(.*?)^```$", text, re.M | re.S)
    assert found, "README has no python block under ## Library"
    return found.group(1)


def test_library_block_returns_its_commented_values():
    block = library_block()
    lines = block.splitlines()
    ns, checked = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), ns)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), ns)
            value = None
        comment = lines[node.end_lineno - 1].partition("  # ")[2].strip()
        if comment in CLAIMS:
            assert CLAIMS[comment](value, ns), f"README.md Library: {ast.unparse(node)}  # {comment}"
            checked.append(comment)
    assert sorted(checked) == sorted(CLAIMS)  # each claim once
