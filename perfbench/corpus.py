"""Seeded synthetic corpus generator and its independent oracle.

The generator builds its own trees (tuples, never srlkit node objects),
renders the `.prop`, `.onf` and `.parse` text itself, and computes the
rows `srlkit extract` must write from those trees, climbing an explicit
ancestor path per terminal. Nothing here imports srlkit, so a defect in
the program cannot also hide in the expected output.

A tree is a nested tuple: a preterminal is ``(pos, token)`` with a str
token, an internal node is ``(label, [children])``. The same seed always
gives the same bytes; `Corpus.sha256` hashes them so two commits can
prove they ran identical inputs.
"""

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

EMPTY_POS = "-NONE-"
SRL_HEADER = ("sentence", "treebanked_sentence", "predicate", "arg0", "arg1", "merged_arguments")

_SYLLABLES = ["ka", "ro", "mi", "ten", "sal", "vo", "dra", "pel", "nu", "gor",
              "li", "bes", "tra", "con", "fi", "mar", "po", "zen", "qua", "der"]
_FUNCTION_WORDS = [("DT", "the"), ("DT", "a"), ("IN", "of"), ("IN", "in"), ("IN", "on"),
                   ("CC", "and"), ("PRP", "it"), ("PRP", "they"), ("TO", "to"), ("MD", "would")]
_PUNCT = [(",", ","), (".", "."), (":", "--"), ("``", "``"), ("''", "''"), ("$", "$"),
          ("CD", "0"), ("CD", "5"), ("CD", "1.5"), ("NN", "café"), ("JJ", "naïve")]
_PHRASES = ["NP", "VP", "PP", "SBAR", "ADJP", "ADVP", "NP-SBJ", "S", "PRN", "WHNP-1"]
_ARGM = ["ARGM-TMP", "ARGM-LOC", "ARGM-MNR", "ARGM-ADV", "ARG2", "ARG3"]


def _traces(rng):
    return [(EMPTY_POS, t) for t in
            ("*", f"*T*-{rng.randint(1, 9)}", f"*PRO*-{rng.randint(1, 9)}",
             f"*-{rng.randint(1, 9)}", "*U*", "*?*", "0", f"*ICH*-{rng.randint(1, 9)}")]


@dataclass(frozen=True)
class Shape:
    """Size and mix of one synthetic corpus."""

    files: int
    trees_per_file: int
    min_terminals: int
    max_terminals: int
    props_per_file: int  # spread over the file's trees
    missing_files: int = 0  # ids whose .onf or .parse is withheld
    bad_pointers: int = 0  # propositions given one out-of-range pointer


@dataclass
class Corpus:
    """A generated corpus on disk plus everything the oracle expects of it."""

    root: Path
    lexicon: Path
    sha256: str
    files: int = 0
    trees: int = 0
    terminals: int = 0  # in the files extract parses: complete triples only
    propositions: int = 0
    pointers: int = 0
    bytes: int = 0
    rows: list = field(default_factory=list)  # expected CSV rows, header excluded, in order
    # expected skip/violation keys: (file_id, "missing", 0) or (file_id, "prop", line_no)
    skips: list = field(default_factory=list)
    lexicon_valences: dict = field(default_factory=dict)

    @property
    def prop_root(self) -> Path:
        return self.root / "prop"

    @property
    def onf_root(self) -> Path:
        return self.root / "onf"

    @property
    def parse_root(self) -> Path:
        return self.root / "parse"


# --- trees -----------------------------------------------------------------

def _is_leaf(node) -> bool:
    return type(node[1]) is str


class _Vocab:
    def __init__(self, rng: random.Random):
        def word(n):
            return "".join(rng.choice(_SYLLABLES) for _ in range(n))

        self.nouns = sorted({word(rng.randint(1, 3)) for _ in range(1500)})
        self.verbs = sorted({word(rng.randint(1, 2)) + rng.choice(("ed", "s", "ing"))
                             for _ in range(400)})
        self.adjs = sorted({word(2) + "al" for _ in range(200)})

    def preterminal(self, rng: random.Random):
        r = rng.random()
        if r < 0.35:
            return ("NN", rng.choice(self.nouns))
        if r < 0.55:
            return ("VBD", rng.choice(self.verbs))
        if r < 0.65:
            return ("JJ", rng.choice(self.adjs))
        if r < 0.9:
            return rng.choice(_FUNCTION_WORDS)
        return rng.choice(_PUNCT)


def _random_tree(rng: random.Random, vocab: _Vocab, n_terminals: int):
    traces = _traces(rng)

    def leaf():
        if rng.random() < 0.12:
            return rng.choice(traces)
        return vocab.preterminal(rng)

    def build(n, depth):
        if n == 1 and (depth >= 10 or (depth >= 2 and rng.random() < 0.6)):
            return leaf()
        label = rng.choice(_PHRASES)
        if depth >= 9:
            return (label, [leaf() for _ in range(n)])
        k = 1 if n == 1 else rng.randint(2, min(4, n))
        cuts = sorted(rng.sample(range(1, n), k - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        return (label, [build(s, depth + 1) for s in sizes])

    return ("TOP", [build(n_terminals, 1)])


def _annotate(tree):
    """Preterminals in order, each with its ancestor path (root first)."""
    order = []  # (leaf, [ancestors root..parent])

    def walk(node, path):
        if _is_leaf(node):
            order.append((node, path))
            return
        for child in node[1]:
            walk(child, path + [node])

    walk(tree, [])
    return order


def _surface(node) -> list:
    """Tokens under node in order, "-NONE-" tokens dropped."""
    if _is_leaf(node):
        return [] if node[0] == EMPTY_POS else [node[1]]
    out = []
    for child in node[1]:
        out.extend(_surface(child))
    return out


def _render(node, indent: int = 0) -> str:
    """Penn-style text: a node whose children are all preterminals stays on one line."""
    label, children = node
    if type(children) is str:
        return f"({label} {children})"
    if all(type(c[1]) is str for c in children):
        return f"({label} " + " ".join(f"({c[0]} {c[1]})" for c in children) + ")"
    indent += len(label) + 2
    return f"({label} " + ("\n" + " " * indent).join(_render(c, indent) for c in children) + ")"


def _wrap(tokens, width: int = 80) -> str:
    lines, line = [], ""
    for tok in tokens:
        if line and len(line) + 1 + len(tok) > width:
            lines.append(line)
            line = tok
        else:
            line = f"{line} {tok}" if line else tok
    lines.append(line)
    return "\n".join(lines)


def _onf_section(tree_text, plain, treebanked) -> str:
    return (
        "-" * 120 + "\n"
        "Plain sentence:\n---------------\n" + _wrap(plain) + "\n\n"
        "Treebanked sentence:\n--------------------\n" + _wrap(treebanked) + "\n\n"
        "Tree:\n-----\n" + tree_text + "\n\n"
        "Leaves:\n-------\n" + "".join(f"{i:>5}  {tok}\n" for i, tok in enumerate(treebanked)) + "\n"
    )


# --- propositions ----------------------------------------------------------

def _resolve(order, parts) -> str:
    """Expected cleaned text of one role: parts in order, empties dropped."""
    pieces = []
    for terminal, height in parts:
        leaf, path = order[terminal]
        node = leaf if height == 0 else path[len(path) - height]
        text = " ".join(_surface(node))
        if text:
            pieces.append(text)
    return " ".join(pieces)


def _pointer(rng, order):
    terminal = rng.randrange(len(order))
    max_height = len(order[terminal][1])
    return terminal, min(max_height, rng.choice((0, 1, 1, 1, 2, 2, 3, 4)))


def _expr(rng, order, n_parts):
    parts = [_pointer(rng, order) for _ in range(n_parts)]
    text = f"{parts[0][0]}:{parts[0][1]}"
    for t, h in parts[1:]:
        text += rng.choice("**,;") + f"{t}:{h}"
    return parts, text


def _proposition(rng, order, file_path, tree_index, bad: bool):
    """One `.prop` line and its expected (predicate, arg0, arg1), or None if bad."""
    words = [i for i, (leaf, _) in enumerate(order) if leaf[0] != EMPTY_POS]
    pred = rng.choice(words)
    rel_parts = [(pred, 0)]
    rel_text = f"{pred}:0"
    if rng.random() < 0.1 and pred + 1 < len(order) and order[pred + 1][0][0] != EMPTY_POS:
        rel_parts.append((pred + 1, 0))  # verb-particle split predicate
        rel_text += f",{pred + 1}:0"
    fields = [f"{rel_text}-rel"]
    roles = {}
    core = rng.random()
    labels = [] if core < 0.08 else ["ARG0", "ARG1"] if core < 0.6 else [rng.choice(["ARG0", "ARG1"])]
    for label in labels:
        parts, text = _expr(rng, order, rng.choice((1, 1, 1, 2, 3)))
        roles[label] = parts
        fields.append(f"{text}-{label}")
    for _ in range(rng.randint(0, 2)):
        t, h = _pointer(rng, order)
        fields.append(f"{t}:{h}-{rng.choice(_ARGM)}")
    n_pointers = len(rel_parts) + sum(len(p) for p in roles.values())
    if bad:
        t, h = _pointer(rng, order)
        if rng.random() < 0.5:
            bad_ptr = f"{len(order) + rng.randint(0, 5)}:{h}"  # terminal past the end
        else:
            bad_ptr = f"{t}:{len(order[t][1]) + 1 + rng.randint(0, 2)}"  # climbs past the root
        label = rng.choice(["ARG0", "ARG1"])
        fields = [f for f in fields if not f.endswith(f"-{label}")] + [f"{bad_ptr}-{label}"]
        n_pointers = len(rel_parts) + sum(len(p) for lab, p in roles.items() if lab != label) + 1
    rng.shuffle(fields)
    lemma = order[pred][0][1].lower()
    line = (f"{file_path} {tree_index} {pred} gold {lemma}-v {lemma}.01 ----- "
            + " ".join(fields))
    if bad:
        return line, None, n_pointers
    predicate = _resolve(order, rel_parts)
    arg0 = _resolve(order, roles.get("ARG0", [])).replace("|", "/")
    arg1 = _resolve(order, roles.get("ARG1", [])).replace("|", "/")
    return line, (pred, predicate, arg0, arg1), n_pointers


# --- corpus ----------------------------------------------------------------

def generate(shape: Shape, seed: int, root: Path) -> Corpus:
    """Write a corpus for `shape` and `seed` under root; return it with its oracle."""
    rng = random.Random(seed)
    vocab = _Vocab(rng)
    root = Path(root)
    digest = hashlib.sha256()
    corpus = Corpus(root=root, lexicon=root / "lexicon.tsv", sha256="")

    def write(rel: str, text: str):
        data = text.encode("utf-8")
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        digest.update(rel.encode() + b"\0" + data + b"\0")
        corpus.bytes += len(data)

    ids = [(f"{i % 25:02d}", f"wsj_{i % 25:02d}{i // 25:04d}") for i in range(shape.files)]
    missing = set(rng.sample(range(shape.files), shape.missing_files))
    healthy = [i for i in range(shape.files) if i not in missing]
    slots = [(i, k) for i in healthy for k in range(shape.props_per_file)]
    bad = set(rng.sample(slots, shape.bad_pointers))

    per_file = {}
    for i, (folder, stem) in enumerate(ids):
        file_id = f"{folder}/{stem}"
        texts, sections, orders = [], [], []
        for _ in range(shape.trees_per_file):
            while True:
                n = rng.randint(shape.min_terminals, shape.max_terminals)
                tree = _random_tree(rng, vocab, n)
                order = _annotate(tree)
                plain = [leaf[1] for leaf, _ in order if leaf[0] != EMPTY_POS]
                if plain:
                    break
            texts.append(_render(tree))
            orders.append(order)
            sections.append((plain, [leaf[1] for leaf, _ in order]))
        props = []
        tree_of = sorted(rng.randrange(len(texts)) for _ in range(shape.props_per_file))
        for k, tree_index in enumerate(tree_of):
            line, expected, n_ptr = _proposition(
                rng, orders[tree_index], f"nw/wsj/{folder}/{stem}", tree_index, (i, k) in bad)
            props.append((line, tree_index, expected, n_ptr))
        rng.shuffle(props)
        corpus.propositions += len(props)
        corpus.trees += len(texts)
        corpus.files += 1
        corpus.pointers += sum(p[3] for p in props)
        write(f"prop/{folder}/{stem}.prop", "".join(p[0] + "\n" for p in props))
        withheld = rng.choice(("onf", "parse")) if i in missing else None
        if withheld != "onf":
            write(f"onf/{folder}/{stem}.onf",
                  "".join(_onf_section(t, p, tb) for t, (p, tb) in zip(texts, sections)))
        if withheld != "parse":
            write(f"parse/{folder}/{stem}.parse", "\n\n".join(texts) + "\n")
        if withheld:
            corpus.skips.append((file_id, "missing", 0))
            continue
        corpus.terminals += sum(len(order) for order in orders)
        keyed = []
        for line_no, (_, tree_index, expected, _) in enumerate(props, start=1):
            if expected is None:
                corpus.skips.append((file_id, "prop", line_no))
                continue
            pred, predicate, arg0, arg1 = expected
            plain, treebanked = sections[tree_index]
            keyed.append(((tree_index, pred, line_no),
                          (" ".join(plain), " ".join(treebanked), predicate, arg0, arg1,
                           f"{arg0}|{arg1}")))
        per_file[file_id] = [row for _, row in sorted(keyed)]

    for file_id in sorted(per_file):
        corpus.rows.extend(r for r in per_file[file_id] if r[5] != "|")

    lex = rng.sample(vocab.verbs, len(vocab.verbs) // 3) + rng.sample(vocab.nouns, 100)
    corpus.lexicon_valences = {w: round(rng.uniform(-4, 4), 1) for w in lex}
    write("lexicon.tsv", "# token<TAB>valence\n"
          + "".join(f"{w}\t{v}\n" for w, v in corpus.lexicon_valences.items()))
    corpus.sha256 = digest.hexdigest()
    return corpus


# --- expected statistics ---------------------------------------------------

def expected_stats(rows, valences: dict, t1: float = 0.05, t2: float = 0.5) -> dict:
    """The parts of `stats.json` the benchmark checks, computed from the oracle rows."""
    lower = {w.lower(): v for w, v in valences.items()}
    both = sum(1 for r in rows if r[3] and r[4])
    only1 = sum(1 for r in rows if not r[3] and r[4])
    only0 = sum(1 for r in rows if r[3] and not r[4])
    counts = {}
    for r in rows:
        counts[r[2]] = counts.get(r[2], 0) + 1
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    tokens_by_class = {c: 0 for c in (-2, -1, 0, 1, 2)}
    for pred, n in counts.items():
        s = sum(lower.get(tok.lower(), 0.0) for tok in pred.split())
        score = 0.0 if s == 0.0 else max(-1.0, min(1.0, s / math.sqrt(s * s + 15.0)))
        cls = (-2 if score < -t2 else -1 if score < -t1 else 0 if score <= t1
               else 1 if score <= t2 else 2)
        tokens_by_class[cls] += n
    return {
        "total_records": len(rows),
        "presence": [both, only1, only0],
        "top_predicates": [[p, n] for p, n in top],
        "distinct_predicates": len(counts),
        "class_counts_tokens": {str(c): n for c, n in tokens_by_class.items()},
    }
