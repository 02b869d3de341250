"""``tools/code_lines.py``: what counts as a code line.

CI holds every package of ``src/repro`` under a ceiling stated in this
counter's lines, so what it counts is pinned here: blank lines, comment
lines and docstrings are free; every other line that carries a token —
a string that is not a docstring, a decorator, a continuation — costs
one.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / 'tools'
sys.path.insert(0, str(TOOLS))

from code_lines import code_lines, main  # noqa: E402


def count(source: str) -> int:
    return code_lines(textwrap.dedent(source))


class TestWhatIsFree:

    def test_blank_and_comment_lines(self):
        assert count('''
            # a comment

            x = 1   # a trailing comment keeps its line

                # an indented comment
        ''') == 1

    def test_module_class_and_function_docstrings(self):
        assert count('''
            """Module docstring,
            over two lines."""

            class C:
                """Class docstring."""

                def method(self):
                    """Method docstring,

                    with a blank line inside."""
                    return 1

            async def coroutine():
                \'\'\'Async docstring.\'\'\'
        ''') == 4               # class, def, return, async def

    def test_empty_source(self):
        assert count('') == 0
        assert count('\n\n# only a comment\n') == 0


class TestWhatCounts:

    def test_a_multi_line_string_that_is_not_a_docstring(self):
        assert count('''
            def f():
                x = 1
                """Not the first statement:
                so not a docstring."""
        ''') == 4

    def test_an_assigned_multi_line_string(self):
        assert count('''
            TEXT = """
            one
            two
            """
        ''') == 4

    def test_decorators(self):
        assert count('''
            @staticmethod
            @property
            def f():
                pass
        ''') == 4

    def test_continuation_lines(self):
        assert count('''
            total = (1 +
                     2 +
                     3)
            other = 1 + \\
                2
        ''') == 5


class TestCommandLine:

    def _tree(self, tmp_path):
        (tmp_path / 'pkg').mkdir()
        (tmp_path / 'pkg' / 'a.py').write_text('x = 1\ny = 2\n')
        (tmp_path / 'pkg' / 'sub').mkdir()
        (tmp_path / 'pkg' / 'sub' / 'b.py').write_text(
            '"""Doc."""\n\nz = 3\n')
        return tmp_path / 'pkg'

    def test_totals_every_file_below_the_directory(self, tmp_path, capsys):
        assert main([str(self._tree(tmp_path))]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1].split() == ['3', 'total']
        assert sorted(line.split()[1] for line in out[:-1]) \
            == ['a.py', 'sub/b.py']

    def test_ceiling(self, tmp_path, capsys):
        package = self._tree(tmp_path)
        assert main([str(package), '--max', '3']) == 0
        assert main([str(package), '--max', '2']) == 1
        assert 'above the ceiling of 2' in capsys.readouterr().err

    def test_script_exit_status(self, tmp_path):
        package = self._tree(tmp_path)
        result = subprocess.run(
            [sys.executable, str(TOOLS / 'code_lines.py'), str(package),
             '--max', '2'], capture_output=True, text=True)
        assert result.returncode == 1
