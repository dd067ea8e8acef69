"""Ratchet: the CSV artifacts' number format is spelled in one module.

`optimizer.py` holds the one CSV writer, `csv_artifact`, and its cell rule,
`cell`, which writes a number with 9 significant digits. No other module of
`src/ttreturn` spells the `.9g` format spec; it passes its cells to the writer.
"""

import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ttreturn"
WRITER = "optimizer.py"


def nine_digit_formats(text: str) -> list[int]:
    """The numbers of the lines of the module `text` that spell a `.9g` format spec."""
    return [n for n, line in enumerate(text.splitlines(), start=1) if ".9g" in line]


def test_only_the_writer_spells_the_number_format():
    found = [f"{path.name}:{n}" for path in sorted(PACKAGE.glob("*.py")) if path.name != WRITER
             for n in nine_digit_formats(path.read_text())]
    assert found == []
    assert nine_digit_formats((PACKAGE / WRITER).read_text())


def test_scan_finds_format_specs():
    module = (
        'a = f"{v:.9g}"\n'
        'b = format(v, ".9g")\n'
        "c = 1.9\n"
        'd = f"{v:.6g}"\n'
        "e = '{:.9g}'.format(v)\n"
    )
    assert nine_digit_formats(module) == [1, 2, 5]
