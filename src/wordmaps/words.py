"""Words over finite alphabets.

A word is a tuple of letters; a letter is a non-empty string.  Multi-character
letters are legal throughout (index names double as letters after conversions),
so the tuple representation is used everywhere instead of ``str``.
"""

from __future__ import annotations

from typing import Collection

Word = tuple[str, ...]

# a symbol as every reader spells it (a letter, index, state, stack symbol or
# variable): letters, digits, '_', "'" and '′'
SYMBOL = r"[\w'′]+"


def word(text: str, alphabet: Collection[str] = ()) -> Word:
    """Parse a word from text.

    Whitespace-separated tokens become letters; a token without whitespace is
    split into single-character letters, so ``"abba"`` and ``"a b b a"`` both
    denote the same four-letter word.  ``"eps"`` denotes the empty word.  A
    lone token that is a letter of ``alphabet`` is that one letter, unless the
    alphabet's one-character letters spell it; a lone token in double quotes,
    such as ``"ab"`` or ``"eps"``, is the one letter inside them.
    """
    parts = text.split()
    if len(parts) != 1:
        return tuple(parts)
    (tok,) = parts
    if tok == "eps":
        return ()
    if len(tok) > 2 and tok[0] == '"' == tok[-1]:
        return (tok[1:-1],)
    if tok in alphabet and not all(c in alphabet for c in tok):
        return (tok,)
    return tuple(tok)


def show_word(w: Word) -> str:
    """Render a word as text: letters joined bare when unambiguous."""
    if not w:
        return "eps"
    if all(len(a) == 1 for a in w):
        return "".join(w)
    return " ".join(w)


def spell_word(w: Word, alphabet: Collection[str]) -> str:
    """``show_word(w)`` if ``word`` reads it back over ``alphabet``, else a
    one-letter word's letter in quotes or a longer word's letters apart."""
    shown = show_word(w)
    if word(shown, alphabet) == w:
        return shown
    return f'"{w[0]}"' if len(w) == 1 else " ".join(w)
