import importlib.util
import pathlib
import textwrap

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
count_code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_code_lines)


def lines_of(tmp_path, source, name="module.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return count_code_lines.code_lines(path)


def test_blank_comment_and_docstring_lines_are_not_counted(tmp_path):
    source = '''\
        """Module docstring,
        over two lines."""

        # a comment
        import math  # a trailing comment counts as code


        class Shape:
            """Class docstring."""

            def area(self):
                """Function docstring
                over two lines.
                """
                # a comment inside the body
                return math.pi


        async def later():
            """Async function docstring."""
            return 1
    '''
    # import, class, def, return, async def, return
    assert lines_of(tmp_path, source) == 6


def test_string_statement_that_is_not_a_docstring_is_counted(tmp_path):
    source = '''\
        x = 1
        """A string after the first statement is not a docstring."""


        def f():
            y = 2
            """Neither is this one,
            over two lines."""
            return y
    '''
    assert lines_of(tmp_path, source) == 7


def test_statement_over_several_lines_counts_once_per_physical_line(tmp_path):
    source = '''\
        total = max(
            1,

            2,  # a comment
        )
    '''
    # the blank line inside the call is not code
    assert lines_of(tmp_path, source) == 4


def test_empty_file_has_no_code_lines(tmp_path):
    assert lines_of(tmp_path, "") == 0


def test_total_is_the_sum_of_the_per_file_lines(tmp_path, capsys):
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    paths[0].write_text("a = 1\nb = 2\n", encoding="utf-8")
    paths[1].write_text('"""Doc."""\nc = [\n    3,\n]\n', encoding="utf-8")
    assert count_code_lines.main([str(p) for p in paths]) == 0
    rows = [line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines()]
    assert [name for _, name in rows[-1:]] == ["total"]
    counts = [int(n) for n, _ in rows[:-1]]
    assert counts == [2, 3]
    assert int(rows[-1][0]) == sum(counts)


def test_package_files_are_counted_by_default(capsys):
    assert count_code_lines.main([]) == 0
    rows = [line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines()]
    package = TOOL.parents[1] / "src" / "lrtvar"
    assert sorted(pathlib.Path(path).name for _, path in rows[:-1]) == sorted(p.name for p in package.glob("*.py"))
    assert int(rows[-1][0]) == sum(int(n) for n, _ in rows[:-1])
