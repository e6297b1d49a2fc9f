"""Conjunctive normal form containers and DIMACS serialisation.

Literals follow the DIMACS convention: a variable is a positive integer and
its negation is the corresponding negative integer.  Zero is never a valid
literal.  :class:`CNF` is a lightweight mutable container used to assemble
problem encodings before handing them to :class:`repro.sat.solver.Solver`;
:class:`PackedCNF` freezes one into a flat buffer for repeated loading.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.errors import CnfError, ParseError

Clause = Tuple[int, ...]


def check_literal(lit: int) -> int:
    """Validate a DIMACS literal (non-zero integer) and return it."""
    if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
        raise CnfError(f"invalid literal: {lit!r}")
    return lit


def normalize_clause(lits: Iterable[int]) -> Clause | None:
    """Sort a clause, drop duplicate literals, detect tautologies.

    Returns ``None`` when the clause is a tautology (contains ``x`` and
    ``-x``), otherwise a tuple of distinct literals in ascending
    ``(var, sign)`` order.
    """
    seen = set()
    for lit in lits:
        check_literal(lit)
        if -lit in seen:
            return None
        seen.add(lit)
    return tuple(sorted(seen, key=lambda l: (abs(l), l < 0)))


class CNF:
    """A CNF formula: a clause list plus a variable counter.

    The variable counter grows monotonically; :meth:`new_var` hands out fresh
    variables for Tseitin encodings and cardinality networks, and
    :meth:`add_clause` bumps the counter when a clause mentions a larger
    variable than seen so far.
    """

    def __init__(self, num_vars: int = 0, clauses: Iterable[Iterable[int]] = ()) -> None:
        if num_vars < 0:
            raise CnfError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.clauses: List[Clause] = []
        for clause in clauses:
            self.add_clause(clause)

    # -- construction -------------------------------------------------------

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> List[int]:
        """Allocate ``count`` fresh variables and return them in order."""
        if count < 0:
            raise CnfError("count must be non-negative")
        return [self.new_var() for _ in range(count)]

    def add_clause(self, lits: Iterable[int]) -> None:
        """Append a clause (a disjunction of DIMACS literals)."""
        clause = tuple(check_literal(l) for l in lits)
        for lit in clause:
            if abs(lit) > self.num_vars:
                self.num_vars = abs(lit)
        self.clauses.append(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def add_unit(self, lit: int) -> None:
        self.add_clause((lit,))

    def extend(self, other: "CNF") -> None:
        """Append all clauses of ``other`` (variables are shared, not shifted)."""
        self.num_vars = max(self.num_vars, other.num_vars)
        self.clauses.extend(other.clauses)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def variables(self) -> set[int]:
        """The set of variables actually occurring in some clause."""
        return {abs(lit) for clause in self.clauses for lit in clause}

    def copy(self) -> "CNF":
        out = CNF(self.num_vars)
        out.clauses = list(self.clauses)
        return out

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        """Evaluate under a total assignment (mapping var -> bool)."""
        for clause in self.clauses:
            if not any(
                assignment[abs(lit)] if lit > 0 else not assignment[abs(lit)]
                for lit in clause
            ):
                return False
        return True

    # -- DIMACS --------------------------------------------------------------

    def to_dimacs(self) -> str:
        """Serialise to the standard DIMACS CNF text format."""
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text: str, filename: str = "<string>") -> "CNF":
        """Parse a DIMACS CNF string.

        The parser is liberal: clause literals may span multiple lines and
        the header clause count is not enforced, matching common solver
        behaviour.
        """
        cnf = cls()
        declared_vars = None
        pending: List[int] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ParseError("malformed problem line", filename, lineno)
                try:
                    declared_vars = int(parts[2])
                    int(parts[3])
                except ValueError as exc:
                    raise ParseError(f"malformed problem line: {exc}", filename, lineno)
                continue
            for token in line.split():
                try:
                    lit = int(token)
                except ValueError as exc:
                    raise ParseError(f"invalid literal {token!r}: {exc}", filename, lineno)
                if lit == 0:
                    cnf.add_clause(pending)
                    pending = []
                else:
                    pending.append(lit)
        if pending:
            cnf.add_clause(pending)
        if declared_vars is not None:
            cnf.num_vars = max(cnf.num_vars, declared_vars)
        return cnf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CNF(num_vars={self.num_vars}, num_clauses={len(self.clauses)})"


class PackedCNF:
    """A frozen CNF packed into one flat int32 buffer.

    Clauses are stored back to back, each terminated by ``0`` as in DIMACS,
    so a formula costs four bytes per literal instead of a tuple per
    clause.  It is the form in which an encoding is built once and loaded
    into many solvers: ``Solver.add_cnf`` accepts it like a :class:`CNF`,
    and the compiled kernel reads :attr:`buffer` without unpacking it.
    """

    __slots__ = ("num_vars", "buffer")

    def __init__(self, cnf: CNF) -> None:
        self.num_vars = cnf.num_vars
        buffer = array("i")
        try:
            for clause in cnf.clauses:
                buffer.extend(clause)
                buffer.append(0)
        except OverflowError as exc:
            raise CnfError(f"literal out of the int32 range: {exc}") from exc
        self.buffer = buffer

    @property
    def clauses(self) -> Iterator[Clause]:
        """The clauses, unpacked one tuple at a time."""
        start = 0
        buffer = self.buffer
        for end, lit in enumerate(buffer):
            if lit == 0:
                yield tuple(buffer[start:end])
                start = end + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedCNF(num_vars={self.num_vars}, num_clauses={self.buffer.count(0)})"
