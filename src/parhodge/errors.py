"""The base of every error class of parhodge, and the exit code each maps to."""


class ParhodgeError(Exception):
    """An error of parhodge's own: exit code 3, a precondition or malformed
    input, unless the class sets 4, a search, convergence or accuracy bound."""

    exit_code = 3
