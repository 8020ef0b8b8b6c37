"""The listing that `tools/traffic_lines.py` prints of the lines no traffic
reached, on a toy module."""
import runpy
import sys
import textwrap
from pathlib import Path

TOOL = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "traffic_lines.py"))
function_lines, trace_lines, unreached, report = (
    TOOL[name] for name in ("function_lines", "trace_lines", "unreached", "report"))

TOY = textwrap.dedent('''\
    """A toy module."""
    LIMIT = 3


    def pick(x):
        """Odd or even."""
        if x % 2:
            return "odd"
        return "even"


    def squares(n):
        return [i * i
                for i in range(n)
                if i < LIMIT]


    class Box:
        size = 1

        def grow(self, by):
            def step(v):
                return v + by
            return step(self.size) if by else self.size

        def never(self):
            raise ValueError("never called")
    ''')


def _toy(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    return path, runpy.run_path(str(path))


def test_functions_own_their_comprehensions_and_not_their_nested_functions(tmp_path):
    path, _ = _toy(tmp_path)
    lines = function_lines(path)
    assert list(lines) == ["pick", "squares", "Box.grow", "Box.grow.<locals>.step", "Box.never"]
    # the docstring is no code; the comprehension's lines are its function's
    assert lines["pick"] == (5, {("pick", 5): {5, 7, 8, 9}})
    assert lines["squares"] == (12, {("squares", 12): {12, 13, 14},
                                     ("squares.<locals>.<listcomp>", 13): {13, 14, 15}})
    assert lines["Box.grow"] == (21, {("Box.grow", 21): {21, 22, 24}})
    assert lines["Box.grow.<locals>.step"] == (22, {("Box.grow.<locals>.step", 22): {22, 23}})


def test_unreached_lines_in_file_order(tmp_path):
    path, toy = _toy(tmp_path)
    reached = trace_lines([path], lambda: (toy["pick"](1), toy["squares"](2),
                                           toy["Box"]().grow(2)))
    assert set(reached) == {str(path)}
    # pick never returned "even"; Box.never never ran at all
    assert unreached(path, reached[str(path)]) == [
        ("pick", 5, [9], True), ("Box.never", 26, [26, 27], False)]
    assert report([path], reached, root=tmp_path) == (
        "toy.py\n"
        "  pick (line 5)\n"
        '        9  return "even"\n'
        "  Box.never (line 26, never called)\n"
        "       26  def never(self):\n"
        '       27  raise ValueError("never called")\n')
    # grow runs the line that defines step, which is not taken for a call
    # of step
    grown = trace_lines([path], lambda: toy["Box"]().grow(0))[str(path)]
    assert unreached(path, grown)[2] == ("Box.grow.<locals>.step", 22, [22, 23], False)


def test_every_line_reached_prints_nothing(tmp_path):
    path, toy = _toy(tmp_path)
    reached = trace_lines([path], lambda: (toy["pick"](1), toy["pick"](2), toy["squares"](5),
                                           toy["Box"]().grow(1), _raises(toy["Box"]().never)))
    assert report([path], reached, root=tmp_path) == ""


def test_trace_restores_the_tracer_it_found(tmp_path):
    path, toy = _toy(tmp_path)
    before = sys.gettrace()
    trace_lines([path], lambda: toy["pick"](1))
    assert sys.gettrace() is before


def _raises(f):
    try:
        f()
    except ValueError:
        return True
    return False
