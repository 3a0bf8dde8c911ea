"""EXPERIMENTS.md quotes its results files.

Every bold number in a section of EXPERIMENTS.md that names a
``benchmarks/results/*.txt`` file must appear in one of the files the
section names, at the precision it is printed with: ``15.8`` is met by
``15.824``, ``56%`` by ``56%``.  A re-recorded results file whose
quoted numbers moved fails here until the prose follows it.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results"
NUMBER = re.compile(r"\d+(?:\.\d+)?")


def _quotes():
    """(section title, named files, bold numbers) per section."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for section in re.split(r"^## ", text, flags=re.M)[1:]:
        files = sorted(set(re.findall(r"`([\w.]+\.txt)`", section)))
        bold = " ".join(re.findall(r"\*\*(.+?)\*\*", section, flags=re.S))
        numbers = NUMBER.findall(bold)
        if files and numbers:
            yield section.splitlines()[0], files, numbers


def _printed_at(quote, values):
    decimals = len(quote.partition(".")[2])
    return any(f"{float(value):.{decimals}f}" == quote for value in values)


def test_every_bold_number_is_in_its_named_results_file():
    checked, missing = 0, []
    for title, files, numbers in _quotes():
        values = set()
        for name in files:
            values.update(NUMBER.findall((RESULTS / name).read_text()))
        for quote in numbers:
            checked += 1
            if not _printed_at(quote, values):
                missing.append(f"{title}: {quote} not in {', '.join(files)}")
    assert not missing, "\n".join(missing)
    assert checked >= 20  # the quotes really were found
