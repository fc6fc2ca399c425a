"""Seeded generator for the benchmark's inputs.

Entity types are defined by lexical rules, so a model can learn them and the
truth is known exactly:

- PHI types: Name (a closed list of first names), Date (YYYY-MM-DD), Age (a
  number followed by "years-old" or after "aged") and Hospital (a closed list
  of two-word names).
- Clinical types: Dosage (a number fused with a unit, as "250mg") and
  Symptom (a closed list of one- to three-word terms).

Sentences are token lists rendered by joining tokens with single spaces and
written one sentence per line, so medner's sentence splitter and tokenizer
give back exactly the generated tokens. The generator records every entity
as an inclusive character span of the text it writes. It imports nothing
from medner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PHI_TYPES = frozenset({"Age", "Date", "Hospital", "Name"})

NAMES = (
    "Alicia", "Marcus", "Priya", "Tomas", "Ingrid", "Dmitri", "Fatima", "Kenji",
    "Lucia", "Oliver", "Amara", "Rafael", "Sofia", "Elias", "Nadia", "Henrik",
    "Chloe", "Mateo", "Yara", "Lars", "Imani", "Viktor", "Leila", "Anders",
    "Mira", "Jonah", "Esther", "Kofi", "Greta", "Ravi", "Noor", "Felix",
    "Zara", "Bruno", "Hana", "Idris", "Clara", "Omar", "Freya", "Tobias",
)
HOSPITALS = (
    ("Riverside", "Hospital"), ("Mercy", "Hospital"), ("Lakeview", "Clinic"),
    ("Northgate", "Clinic"), ("Brigid", "Hospital"), ("Westbrook", "Infirmary"),
    ("Harborview", "Hospital"), ("Elmwood", "Clinic"), ("Kingsley", "Infirmary"),
    ("Oakridge", "Hospital"),
)
SYMPTOMS = (
    ("fever",), ("cough",), ("nausea",), ("fatigue",), ("headache",),
    ("dizziness",), ("vomiting",), ("rash",), ("chest", "pain"),
    ("sore", "throat"), ("joint", "ache"), ("shortness", "of", "breath"),
)
DRUGS = (
    "amoxicillin", "metformin", "lisinopril", "ibuprofen", "atorvastatin",
    "omeprazole", "prednisone", "warfarin", "heparin", "insulin",
)
UNITS = ("mg", "ml", "mcg")
DOSES = (5, 10, 20, 25, 40, 50, 100, 200, 250, 500, 750, 1000)
WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
COUNTS = ("two", "three", "four", "five", "six", "eight", "ten", "twelve")
MODIFIERS = ("mild", "severe", "persistent", "intermittent", "new")
FILLERS = (
    "the", "patient", "remained", "stable", "overnight", "vitals", "were",
    "within", "normal", "limits", "labs", "reviewed", "no", "acute", "distress",
    "tolerating", "diet", "ambulating", "independently", "plan", "discussed",
    "with", "family", "continue", "current", "management", "and", "monitor",
    "closely", "imaging", "unremarkable", "wound", "healing", "well",
)

# Each template is a space-separated list of literal tokens and slots; a slot
# becomes one entity (or one plain word for the O-tagged slots NUM, DRUG, DAY
# and MOD, or several for FILLER).
# Bare numbers occur only as ages.
TEMPLATES = (
    "PCP : {NAME} , {AGE} years-old , Record date : {DATE} .",
    "{NAME} was admitted to {HOSPITAL} on {DATE} with {MOD} {SYMPTOM} .",
    "Patient reports {SYMPTOM} and {SYMPTOM} since {DAY} .",
    "Started {DRUG} {DOSAGE} twice daily for {SYMPTOM} .",
    "Seen by Dr {NAME} at {HOSPITAL} , follow-up on {DATE} .",
    "{AGE} years-old patient denies {SYMPTOM} .",
    "Discharged from {HOSPITAL} on {DATE} , continue {DRUG} {DOSAGE} .",
    "Family contact {NAME} was informed on {DAY} .",
    "No {SYMPTOM} noted on exam today .",
    "Plan : reduce {DRUG} to {DOSAGE} and recheck in {NUM} weeks .",
    "Transferred to {HOSPITAL} for {MOD} {SYMPTOM} after {NUM} days .",
    "{NAME} , aged {AGE} , presented with {SYMPTOM} .",
    "Patient is {AGE} years-old and lives with family .",
    "{FILLER} .",
)

SLOT_TYPES = {"{NAME}": "Name", "{HOSPITAL}": "Hospital", "{SYMPTOM}": "Symptom"}

EMBED_ROWS = 20_000
EMBED_DIM = 100
# A long-sentence note carries a name at token LONG_NAME_AT of one sentence of
# LONG_SENTENCE_TOKENS tokens, past medner's default max_seq_length of 512.
LONG_SENTENCE_TOKENS = 600
LONG_NAME_AT = 590
# The long-sentence notes are built from this fixed seed, never from the
# workload seed, so the notes they break are the same on every run.
LONG_NOTE_SEED = 20220701
# The training corpus and the embedding table come from this fixed seed too,
# so every run trains (and tags with) the same model; see perfbench/README.md.
TRAINING_SEED = 20160304
# The few notes that the workloads other than deid-notes de-identify to report
# note latency are fixed as well, so their tail does not move with the seed.
PROBE_SEED = 20160305


@dataclass
class GenSentence:
    tokens: list[str]
    tags: list[str]


@dataclass
class Span:
    begin: int  # inclusive character offsets in the rendered text
    end: int
    entity_type: str
    token: int  # index of the span's first token in its sentence


@dataclass
class Document:
    text: str
    spans: list[Span]
    num_tokens: int


class Generator:
    """Draws sentences, documents and an embedding table from one seed."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def _pick(self, seq):
        return seq[int(self.rng.integers(len(seq)))]

    def _filler(self) -> list[str]:
        words = [self._pick(FILLERS) for _ in range(int(self.rng.integers(4, 10)))]
        words[0] = words[0].capitalize()
        return words

    def sentence(self, template: str | None = None, fill: dict | None = None) -> GenSentence:
        """One sentence from a template; `fill` fixes the first value of a slot."""
        template = template or self._pick(TEMPLATES)
        fill = dict(fill or {})
        tokens: list[str] = []
        tags: list[str] = []

        def entity(words, etype):
            tokens.extend(words)
            tags.extend([f"B-{etype}"] + [f"I-{etype}"] * (len(words) - 1))

        for part in template.split(" "):
            if part in fill:
                value = fill.pop(part)
                entity(list(value), SLOT_TYPES[part])
            elif part == "{NAME}":
                entity([self._pick(NAMES)], "Name")
            elif part == "{AGE}":
                entity([str(int(self.rng.integers(18, 100)))], "Age")
            elif part == "{DATE}":
                y, m, d = (int(self.rng.integers(lo, hi)) for lo, hi in
                           ((1995, 2025), (1, 13), (1, 29)))
                entity([f"{y:04d}-{m:02d}-{d:02d}"], "Date")
            elif part == "{HOSPITAL}":
                entity(list(self._pick(HOSPITALS)), "Hospital")
            elif part == "{DOSAGE}":
                entity([f"{self._pick(DOSES)}{self._pick(UNITS)}"], "Dosage")
            elif part == "{SYMPTOM}":
                entity(list(self._pick(SYMPTOMS)), "Symptom")
            elif part == "{FILLER}":
                words = self._filler()
                tokens.extend(words)
                tags.extend(["O"] * len(words))
            else:
                word = {
                    "{DRUG}": lambda: self._pick(DRUGS),
                    "{DAY}": lambda: self._pick(WEEKDAYS),
                    "{NUM}": lambda: self._pick(COUNTS),
                    "{MOD}": lambda: self._pick(MODIFIERS),
                }.get(part, lambda: part)()
                tokens.append(word)
                tags.append("O")
        return GenSentence(tokens, tags)

    def sentences(self, n: int) -> list[GenSentence]:
        return [self.sentence() for _ in range(n)]

    def training_sentences(self, n: int) -> list[GenSentence]:
        """n sentences in which every name, hospital and symptom of the closed
        lists occurs at least once, in shuffled order."""
        covering = []
        for slot, values in (("{NAME}", [(v,) for v in NAMES]),
                             ("{HOSPITAL}", HOSPITALS), ("{SYMPTOM}", SYMPTOMS)):
            templates = [t for t in TEMPLATES if slot in t]
            covering.extend(self.sentence(self._pick(templates), {slot: v}) for v in values)
        out = covering + self.sentences(n - len(covering))
        return [out[i] for i in self.rng.permutation(len(out))]

    def embedding_words(self) -> list[str]:
        """The lexicon, then pseudo-words the corpus never uses, EMBED_ROWS in all."""
        words = sorted(lexicon())
        known = set(words)
        syllables = np.array(["ka", "lo", "mi", "ne", "ru", "sa", "te", "vo", "zi", "pa",
                              "do", "fe", "gu", "hi", "ja", "bo", "ci", "we", "xu", "yo"])
        while len(words) < EMBED_ROWS:
            picks = syllables[self.rng.integers(len(syllables), size=(EMBED_ROWS, 4))]
            lengths = self.rng.integers(2, 5, size=EMBED_ROWS)
            for row, n in zip(picks.tolist(), lengths.tolist()):
                word = "".join(row[:n])
                if word not in known and len(words) < EMBED_ROWS:
                    known.add(word)
                    words.append(word)
        return words

    def embedding_matrix(self, words: list[str]) -> np.ndarray:
        """Pretrained-style vectors: words of one class lie near its centroid."""
        classes = word_classes()
        centroids = {c: self.rng.normal(0.0, 0.4, EMBED_DIM) for c in sorted(set(classes.values()))}
        matrix = self.rng.normal(0.0, 0.25, (len(words), EMBED_DIM))
        for i, word in enumerate(words):
            cls = classes.get(word)
            if cls is not None:
                matrix[i] += centroids[cls]
        return matrix


def lexicon() -> set[str]:
    words = set(word_classes())
    for template in TEMPLATES:
        words.update(p for p in template.split(" ") if not p.startswith("{"))
    return words


def word_classes() -> dict[str, str]:
    classes: dict[str, str] = {}
    for name in NAMES:
        classes[name] = "name"
    for hospital in HOSPITALS:
        for word in hospital:
            classes[word] = "hospital"
    for symptom in SYMPTOMS:
        for word in symptom:
            classes[word] = "symptom"
    for word in DRUGS:
        classes[word] = "drug"
    for word in WEEKDAYS:
        classes[word] = "day"
    for word in MODIFIERS:
        classes[word] = "modifier"
    for word in COUNTS:
        classes[word] = "count"
    for word in FILLERS:
        classes[word] = "filler"
        classes[word.capitalize()] = "filler"
    for n in range(0, 121):
        classes[str(n)] = "number"
    # clinical vector tables carry common fused doses
    for dose in DOSES:
        for unit in UNITS:
            classes[f"{dose}{unit}"] = "dose"
    return classes


def write_tsv2(sentences: list[GenSentence], path) -> int:
    """Write a tsv2 corpus; returns its token count."""
    lines = []
    for sent in sentences:
        lines.extend(f"{tok}\t{tag}" for tok, tag in zip(sent.tokens, sent.tags))
        lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return sum(len(s.tokens) for s in sentences)


def render(sentences: list[GenSentence], separators: list[str] | None = None) -> Document:
    """Join tokens with spaces and sentences with the given separators.

    Records each entity's character span. The default separator is a newline.
    """
    pieces: list[str] = []
    spans: list[Span] = []
    pos = 0
    for k, sent in enumerate(sentences):
        if k:
            sep = separators[k - 1] if separators is not None else "\n"
            pieces.append(sep)
            pos += len(sep)
        open_span: Span | None = None
        for i, (tok, tag) in enumerate(zip(sent.tokens, sent.tags)):
            if i:
                pieces.append(" ")
                pos += 1
            begin, end = pos, pos + len(tok) - 1
            if tag.startswith("B-"):
                open_span = Span(begin, end, tag[2:], i)
                spans.append(open_span)
            elif tag.startswith("I-"):
                assert open_span is not None and open_span.entity_type == tag[2:]
                open_span.end = end
            else:
                open_span = None
            pieces.append(tok)
            pos += len(tok)
    text = "".join(pieces) + "\n"
    return Document(text, spans, sum(len(s.tokens) for s in sentences))


def write_embeddings(words: list[str], matrix: np.ndarray, path) -> None:
    """Text table in the common `count dim` + `word v1 ... vd` layout."""
    fmt = " ".join(["%.5f"] * matrix.shape[1])
    rows = (word + " " + fmt % tuple(row) for word, row in zip(words, matrix.tolist()))
    path.write_text(f"{len(words)} {matrix.shape[1]}\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")


def notes(gen: Generator, count: int, long_every: int | None = None) -> list[Document]:
    """Short clinical notes of two to four sentences on one or two lines.

    With `long_every`, note k is a fixed long-sentence note (see `long_note`)
    whenever k % long_every == long_every // 2.
    """
    out = []
    long_gen = Generator(LONG_NOTE_SEED)
    for k in range(count):
        if long_every and k % long_every == long_every // 2:
            out.append(long_note(long_gen))
            continue
        sents = gen.sentences(int(gen.rng.integers(2, 5)))
        seps = [" " if gen.rng.random() < 0.7 else "\n" for _ in sents[1:]]
        out.append(render(sents, seps))
    return out


def long_note(gen: Generator) -> Document:
    """One ordinary sentence, then a single sentence of LONG_SENTENCE_TOKENS
    tokens whose Name sits at token LONG_NAME_AT."""
    head = gen.sentence()
    words = [gen._pick(FILLERS) for _ in range(LONG_SENTENCE_TOKENS - 1)]
    words[0] = "Medication"
    tags = ["O"] * len(words)
    words[LONG_NAME_AT - 3 : LONG_NAME_AT] = ["seen", "by", "Dr"]
    words[LONG_NAME_AT] = gen._pick(NAMES)
    tags[LONG_NAME_AT] = "B-Name"
    words.append(".")
    tags.append("O")
    return render([head, GenSentence(words, tags)], [" "])
