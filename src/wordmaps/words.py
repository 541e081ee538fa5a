"""Words over finite alphabets.

A word is a tuple of letters; a letter is a non-empty string.  Multi-character
letters are legal throughout (index names double as letters after conversions),
so the tuple representation is used everywhere instead of ``str``.
"""

from __future__ import annotations

Word = tuple[str, ...]


def word(text: str) -> Word:
    """Parse a word from text.

    Whitespace-separated tokens become letters; a token without whitespace is
    split into single-character letters, so ``"abba"`` and ``"a b b a"`` both
    denote the same four-letter word.  ``"eps"`` denotes the empty word.
    """
    text = text.strip()
    if text == "" or text == "eps":
        return ()
    parts = text.split()
    if len(parts) == 1:
        return tuple(parts[0])
    return tuple(parts)


def show_word(w: Word) -> str:
    """Render a word as text: letters joined bare when unambiguous."""
    if not w:
        return "eps"
    if all(len(a) == 1 for a in w):
        return "".join(w)
    return " ".join(w)

