"""De-identification as a pure policy transform over identified chunks.

Protected entity types are masked with "<TYPE>" placeholders or substituted
with consistent fake values; the replacement log makes the transform exactly
reversible for audit.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .chunking import Chunk
from .errors import ParseError, ValidationError

log = logging.getLogger(__name__)

MODES = ("mask", "substitute")

# Default protected inventory for PHIPA-style masking; user policies extend
# or override it.
DEFAULT_PROTECTED_TYPES = (
    "age", "contact", "date", "patient id", "location", "name", "profession",
    "city", "country", "doctor", "hospital", "medical record", "organization",
    "patient", "phone", "street", "username", "zip", "account", "license",
)


def placeholder(entity_type: str) -> str:
    """Mask token for a type: upper-cased, spaces removed, angle brackets."""
    return "<" + entity_type.upper().replace(" ", "") + ">"


def _norm(entity_type: str) -> str:
    return entity_type.casefold()


@dataclass
class DeidPolicy:
    """Which entity types to conceal and how.

    Type matching is case-insensitive. Substitute mode draws from the type's
    dictionary, deterministically keyed by (seed, type, surface) so identical
    surfaces receive identical replacements within a run.
    """

    modes: dict[str, str] = field(
        default_factory=lambda: {t: "mask" for t in DEFAULT_PROTECTED_TYPES}
    )
    dictionaries: dict[str, list[str]] = field(default_factory=dict)
    seed: int = 42

    def __post_init__(self):
        self.modes = {_norm(t): m for t, m in self.modes.items()}
        self.dictionaries = {_norm(t): list(v) for t, v in self.dictionaries.items()}
        for etype, mode in self.modes.items():
            if mode not in MODES:
                raise ValidationError(f"unknown mode {mode!r} for type {etype!r}")
            if mode == "substitute" and not self.dictionaries.get(etype):
                raise ValidationError(
                    f"type {etype!r} uses substitute mode but has no dictionary"
                )

    def mode_for(self, entity_type: str) -> str | None:
        return self.modes.get(_norm(entity_type))

    def replacement_for(self, entity_type: str, surface: str) -> str:
        mode = self.mode_for(entity_type)
        if mode == "mask":
            return placeholder(entity_type)
        if mode == "substitute":
            values = self.dictionaries[_norm(entity_type)]
            digest = hashlib.sha256(
                f"{self.seed}\x00{_norm(entity_type)}\x00{surface}".encode("utf-8")
            ).digest()
            return values[int.from_bytes(digest[:8], "big") % len(values)]
        raise ValidationError(f"type {entity_type!r} is not protected")


def parse_policy_file(text: str, base_dir: str | Path | None = None) -> DeidPolicy:
    """Flat `Type = mode` lines; '#' starts a comment.

    Substitute mode takes either inline values (`Name = substitute Pat, Sam`)
    or a dictionary file with one value per line (`Name = substitute
    names.txt`), resolved relative to `base_dir`. An optional `seed = N` line
    sets the substitution seed.
    """
    modes: dict[str, str] = {}
    dictionaries: dict[str, list[str]] = {}
    seed = 42
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected 'type = mode'", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key.casefold() == "seed":
            try:
                seed = int(value)
            except ValueError:
                raise ParseError(f"bad seed {value!r}", line=lineno)
            continue
        fields = value.split(None, 1)
        mode = fields[0] if fields else ""
        if mode not in MODES:
            raise ParseError(f"unknown mode {mode!r}", line=lineno)
        modes[key] = mode
        if mode == "substitute":
            if len(fields) < 2:
                raise ParseError(
                    "substitute mode needs inline values or a dictionary path",
                    line=lineno,
                )
            dictionaries[key] = _read_dictionary(fields[1].strip(), base_dir, lineno)
    return DeidPolicy(modes, dictionaries, seed)


def _read_dictionary(spec: str, base_dir: str | Path | None, lineno: int) -> list[str]:
    if "," in spec:
        values = [v.strip() for v in spec.split(",") if v.strip()]
    else:
        path = Path(spec)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        try:
            lines = path.read_bytes().decode("utf-8").splitlines()
        except OSError as exc:
            raise ParseError(f"cannot read dictionary {spec!r}: {exc}", line=lineno)
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"dictionary {spec!r} is not UTF-8 text: {exc.reason} at byte {exc.start}",
                line=lineno,
            ) from None
        values = [v.strip() for v in lines if v.strip()]
    if not values:
        raise ParseError("substitution dictionary is empty", line=lineno)
    return values


@dataclass(frozen=True)
class Replacement:
    begin: int
    end: int  # inclusive, in the original text
    original: str
    entity_type: str
    replacement: str


@dataclass
class DeidResult:
    text: str
    replacements: list[Replacement]

    def log_lines(self) -> list[str]:
        return [
            json.dumps(
                {
                    "begin": r.begin,
                    "end": r.end,
                    "original": r.original,
                    "entity_type": r.entity_type,
                    "replacement": r.replacement,
                },
                sort_keys=True,
            )
            for r in self.replacements
        ]


def apply_policy(text: str, chunks: list[Chunk], policy: DeidPolicy) -> DeidResult:
    """Replace every protected chunk; offsets in the log are the original text's."""
    protected = [c for c in chunks if policy.mode_for(c.entity_type) is not None]
    for c in protected:
        if c.begin < 0 or c.end >= len(text):
            raise ValidationError(
                f"chunk {c.entity_type}@[{c.begin}, {c.end}] outside text of length {len(text)}"
            )
    ordered = sorted(protected, key=lambda c: (c.begin, c.end))
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.begin <= prev.end:
            raise ValidationError(
                f"protected chunks overlap: {prev.entity_type}@[{prev.begin}, {prev.end}] "
                f"and {cur.entity_type}@[{cur.begin}, {cur.end}]"
            )
    pieces: list[str] = []
    replacements: list[Replacement] = []
    pos = 0
    for c in ordered:
        original = text[c.begin : c.end + 1]
        replacement = policy.replacement_for(c.entity_type, original)
        pieces += (text[pos : c.begin], replacement)
        pos = c.end + 1
        replacements.append(Replacement(c.begin, c.end, original, c.entity_type, replacement))
    pieces.append(text[pos:])
    return DeidResult("".join(pieces), replacements)
