"""Character-loop reference for the SMT-LIB tokenizer.

``imtsolver.smtlib.tokenize`` splits a script with one regular expression.
This is the same tokenizer written as a loop over characters, so a test can
hold the pattern to the same tokens and the same errors.
"""
from __future__ import annotations

from imtsolver.smtlib import SmtError


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SmtError("unterminated |symbol|")
            tokens.append(text[i : j + 1])
            i = j + 1
        elif ch == '"':
            j = i + 1
            while j < n:
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':
                        j += 2
                        continue
                    break
                j += 1
            if j >= n:
                raise SmtError("unterminated string")
            tokens.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();|\"":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens
