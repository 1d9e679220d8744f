"""Three-valued decision results with certificates and witnesses."""

from __future__ import annotations

from .records import record

YES = "YES"
NO = "NO"
UNDECIDED = "UNDECIDED"


@record
class Verdict:
    answer: str
    certificate: object = None
    witness: object = None
    bound_used: object = None
    note: str | None = None

    @property
    def yes(self) -> bool:
        return self.answer == YES

    @property
    def no(self) -> bool:
        return self.answer == NO

    @property
    def undecided(self) -> bool:
        return self.answer == UNDECIDED

    def exit_code(self) -> int:
        return {YES: 0, NO: 1, UNDECIDED: 2}[self.answer]

    def brief(self) -> dict:
        out = {"answer": self.answer}
        if self.note:
            out["note"] = self.note
        if self.bound_used is not None:
            out["bound_used"] = self.bound_used
        if self.witness is not None:
            out["witness"] = _render(self.witness)
        if self.certificate is not None:
            out["certificate"] = _render(self.certificate)
        return out


def _render(obj):
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, (list, tuple)):
        return [_render(o) for o in obj]
    if isinstance(obj, dict):
        return {str(k): _render(v) for k, v in obj.items()}
    return repr(obj)


def yes(certificate=None, bound_used=None, note=None) -> Verdict:
    return Verdict(YES, certificate=certificate, bound_used=bound_used, note=note)


def no(witness=None, bound_used=None, note=None) -> Verdict:
    return Verdict(NO, witness=witness, bound_used=bound_used, note=note)


def undecided(bound_used=None, note=None) -> Verdict:
    return Verdict(UNDECIDED, bound_used=bound_used, note=note)
