import itertools

import pytest

import ckshift as ck


def walks(starts, extend, max_len):
    """Reference enumerator: depth-first, lexicographic, with an explicit stack.

    Yields every word of length 1..max_len that begins with a letter of
    ``starts`` and continues, letter by letter, with the letters of
    ``extend(word)``; a word comes before its extensions.  The yielded
    list is the generator's working buffer, valid until the next step:
    copy what you keep.
    """
    if max_len < 1:
        return
    done = object()
    word = []
    stack = [iter(starts)]
    while stack:
        letter = next(stack[-1], done)
        if letter is done:
            stack.pop()
            if stack:
                word.pop()
            continue
        word.append(letter)
        yield word
        if len(word) < max_len:
            stack.append(iter(extend(word)))
        else:
            word.pop()


def is_primitive(word):
    """True unless the word is a proper power u^k with k >= 2."""
    p = len(word)
    return not any(p % d == 0 and word[:d] * (p // d) == word
                   for d in range(1, p // 2 + 1))


def all_finite_graphs(n: int, no_zero_rows_only: bool = False):
    """Every n x n 0/1 matrix, in row-major lexicographic order."""
    row_choices = list(itertools.product((0, 1), repeat=n))
    if no_zero_rows_only:
        row_choices = [r for r in row_choices if any(r)]
    for rows in itertools.product(row_choices, repeat=n):
        yield ck.FiniteGraph(rows)


@pytest.fixture
def golden_mean():
    return ck.FiniteGraph(((1, 1), (1, 0)))


@pytest.fixture
def full2():
    return ck.FiniteGraph(((1, 1), (1, 1)))


@pytest.fixture
def two_cycle():
    return ck.FiniteGraph(((0, 1), (1, 0)))


@pytest.fixture
def ray():
    return ck.BandedTailGraph((), 0, (1,), ())


@pytest.fixture
def all_ones_infinite():
    return ck.BlockPatternGraph((None,), ((1,),))


@pytest.fixture
def golden_model(golden_mean):
    return ck.dense_model(golden_mean)


@pytest.fixture
def full2_model(full2):
    return ck.dense_model(full2)


@pytest.fixture
def toeplitz_model(full2):
    return ck.validate_model(full2, [ck.make_pattern(full2, finite=(1, 2))])
