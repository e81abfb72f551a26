"""Seeded input generators for the linkage benchmark, cached on disk.

Each workload's input is a pure function of (seed, spec). The program
under test receives only the Parquet files written here; the planted
ground truth goes to a separate file that only the benchmark reads.

Page tables follow the HTML shape of the engine's fixture generator
(`hgcn_name_disambiguation_ray.fixtures.generate_fixture`): a
`mention-id` meta tag, the title in `<h1>`, the subject author first in
`<span class="author">` followed by the co-authors, a venue and a year.
Pages of one planted person share three signature title words, a
collaborator pool and two venues, so same-person pages are linkable and
different persons of one name are not.

Cache layout: `<cache_root>/<fingerprint>/` holds the files of one
input. A generator writes into a private temporary directory and
renames it into place, so a reader never sees a half-written input.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass
from hashlib import blake2b

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_SYLLABLES = np.array([
    "ba", "be", "bo", "da", "de", "di", "fa", "fo", "ga", "gu",
    "ka", "ke", "ko", "la", "le", "li", "ma", "me", "mo", "na",
    "ne", "ni", "pa", "po", "ra", "re", "ri", "sa", "se", "so",
    "ta", "te", "to", "va", "ve", "vi", "za", "zo", "lu", "ru",
])


@dataclass(frozen=True)
class DenseSpec:
    """Tens of names of ~100 mentions each; every key below salt_cap."""

    n_names: int = 16
    persons_per_name: int = 4
    docs_per_person: int = 25


@dataclass(frozen=True)
class WebSpec:
    """Zipfian block sizes (most keys at 1-3 mentions) plus hot keys."""

    n_pages: int = 2000          # pages of the non-hot keys, fixed per seed
    zipf_a: float = 2.2
    max_key_docs: int = 40
    hot_keys: int = 2
    hot_persons: int = 3
    hot_docs_per_person: int = 60
    # the key sizes and persons per key are drawn from this seed, not from
    # the run's, so every seed gives the same block-size histogram (and so
    # the same scorer groups); the run's seed draws names, words and order
    shape_seed: int = 0


@dataclass(frozen=True)
class DocSpec:
    """Documents with planted exact and one-token-edit near duplicates,
    plus far variants (10 tokens replaced, shingle Jaccard ~0.55) that
    collide in LSH bands but are not duplicates."""

    n_sources: int = 6000
    tokens_per_doc: int = 100
    vocab: int = 30000
    exact_frac: float = 0.15
    near_frac: float = 0.15
    far_frac: float = 0.1
    far_edits: int = 10


def fingerprint(seed: int, spec) -> str:
    payload = json.dumps([type(spec).__name__, asdict(spec), int(seed)], sort_keys=True)
    return blake2b(payload.encode(), digest_size=10).hexdigest()


def _words(rng: np.random.Generator, n: int, lo: int, hi: int) -> list[str]:
    """n distinct syllable words (sorted), drawn in vectorized rounds."""
    out: set[str] = set()
    while len(out) < n:
        k = max(64, 2 * (n - len(out)))
        lens = rng.integers(lo, hi + 1, size=k)
        syl = rng.integers(0, len(_SYLLABLES), size=(k, hi))
        for length, row in zip(lens, _SYLLABLES[syl]):
            out.add("".join(row[:length]))
    words = sorted(out)
    if len(words) > n:
        words = sorted(rng.choice(words, n, replace=False).tolist())
    return words


def _escape(s: str) -> str:
    return (
        s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;").replace("'", "&apos;")
    )


class _PageWriter:
    """Accumulates pages of planted persons; one vocab/collab pool per person."""

    def __init__(self, rng: np.random.Generator, n_persons: int):
        self.rng = rng
        self.vocab = _words(rng, 25 * n_persons + 50, 3, 5)
        self.collabs = [
            f"{a.capitalize()} {b.capitalize()}"
            for a, b in zip(_words(rng, 6 * n_persons, 2, 3), _words(rng, 6 * n_persons, 3, 4))
        ]
        self.venues = [f"journal of {w}" for w in _words(rng, 2 * n_persons, 4, 5)]
        self.person = 0
        self.rows: dict[str, list] = {"url": [], "warc_ts": [], "html": [], "lang": []}
        self.truth: dict[str, list] = {"mention_id": [], "block_key": [], "person_id": []}

    def add_person(self, name: str, n_docs: int, key_idx: int, p_idx: int) -> None:
        rng = self.rng
        p = self.person
        self.person += 1
        vocab = self.vocab[25 * p: 25 * p + 25]
        sig = vocab[:3]
        collabs = self.collabs[6 * p: 6 * p + 6]
        venues = self.venues[2 * p: 2 * p + 2]
        slug = name.lower().replace(" ", "-")
        for d in range(n_docs):
            mid = f"M{key_idx:05d}{p_idx:02d}{d:04d}"
            extra = list(rng.choice(vocab[3:], size=5, replace=False))
            title = " ".join(sig + extra)
            if d % 7 == 3:
                title = title.replace(" ", ", ", 1) + " analysis"
            coents = list(rng.choice(collabs, size=int(rng.integers(2, 5)), replace=False))
            venue = venues[int(rng.integers(0, 2))]
            year = 2000 + int(rng.integers(0, 24))
            body = " ".join(rng.choice(vocab, size=20)) + " & more"
            authors = "".join(f'<span class="author">{_escape(a)}</span>' for a in [name] + coents)
            html = (
                f'<html><head><meta name="mention-id" content="{mid}"/>'
                f"<title>{_escape(title)}</title></head><body>"
                f"<h1>{_escape(title)}</h1>"
                f'<div class="authors">{authors}</div>'
                f'<p class="venue"><span class="venue">{_escape(venue)}</span>'
                f' <span class="year">{year}</span></p>'
                f'<div class="content">{_escape(body)}</div>'
                f"</body></html>"
            ).encode("utf-8")
            row = len(self.rows["url"])
            self.rows["url"].append(f"https://bench.test/{slug}/{mid}")
            self.rows["warc_ts"].append(1_600_000_000_000_000 + row * 60_000_000)
            self.rows["html"].append(html)
            self.rows["lang"].append("en")
            self.truth["mention_id"].append(mid)
            self.truth["block_key"].append(name.lower())
            self.truth["person_id"].append(f"{slug}#p{p_idx}")

    def tables(self) -> dict[str, pa.Table]:
        # shuffle page order so a block's pages are spread over the file,
        # as crawl order would spread them
        order = self.rng.permutation(len(self.rows["url"]))
        pages = pa.table({
            "url": pa.array([self.rows["url"][i] for i in order], pa.string()),
            "warc_ts": pa.array([self.rows["warc_ts"][i] for i in order], pa.timestamp("us")),
            "html": pa.array([self.rows["html"][i] for i in order], pa.binary()),
            "lang": pa.array([self.rows["lang"][i] for i in order], pa.string()),
        })
        truth = pa.table({k: pa.array(v, pa.string()) for k, v in self.truth.items()})
        return {"pages": pages, "truth": truth}


def _names(rng: np.random.Generator, n: int) -> list[str]:
    firsts = _words(rng, n, 2, 3)
    lasts = _words(rng, n, 3, 4)
    order = rng.permutation(n)
    return [f"{firsts[i].capitalize()} {lasts[j].capitalize()}" for i, j in enumerate(order)]


def generate_dense(seed: int, spec: DenseSpec) -> dict[str, pa.Table]:
    rng = np.random.default_rng(seed)
    w = _PageWriter(rng, spec.n_names * spec.persons_per_name)
    for k, name in enumerate(_names(rng, spec.n_names)):
        for p in range(spec.persons_per_name):
            w.add_person(name, spec.docs_per_person, k, p)
    return w.tables()


def web_key_sizes(rng: np.random.Generator, spec: WebSpec) -> list[int]:
    """Mentions per non-hot key: Zipf(a) truncated at max_key_docs, drawn
    until the sizes sum to exactly n_pages (the last one is cut), so every
    seed gives the same number of pages."""
    sizes: list[int] = []
    total = 0
    while total < spec.n_pages:
        for s in np.minimum(rng.zipf(spec.zipf_a, size=256), spec.max_key_docs):
            sizes.append(min(int(s), spec.n_pages - total))
            total += sizes[-1]
            if total == spec.n_pages:
                break
    return sizes


def generate_web(seed: int, spec: WebSpec) -> dict[str, pa.Table]:
    shape = np.random.default_rng(spec.shape_seed)
    sizes = web_key_sizes(shape, spec)
    # keys of >= 8 mentions hold two or three persons, smaller keys one
    persons = [1 if s < 8 else int(shape.integers(2, 4)) for s in sizes]
    rng = np.random.default_rng(seed)
    n_persons = sum(persons) + spec.hot_keys * spec.hot_persons
    w = _PageWriter(rng, n_persons)
    names = _names(rng, len(sizes) + spec.hot_keys)
    for k, (name, size, n_p) in enumerate(zip(names, sizes, persons)):
        share = [size // n_p + (1 if i < size % n_p else 0) for i in range(n_p)]
        for p, n_docs in enumerate(share):
            w.add_person(name, n_docs, k, p)
    for h in range(spec.hot_keys):
        k = len(sizes) + h
        for p in range(spec.hot_persons):
            w.add_person(names[k], spec.hot_docs_per_person, k, p)
    return w.tables()


def generate_docs(seed: int, spec: DocSpec) -> dict[str, pa.Table]:
    """docs(doc_id, text) and truth(doc_id, source_id, kind).

    Sources get ids 0..n_sources-1 and every planted copy a larger id, so
    the smallest id of a duplicate group is its source. A far variant is
    its own group (its source_id is its own id)."""
    rng = np.random.default_rng(seed)
    toks = rng.integers(0, spec.vocab, size=(spec.n_sources, spec.tokens_per_doc))
    texts = [" ".join(f"w{t}" for t in row) for row in toks]
    n_exact = int(spec.n_sources * spec.exact_frac)
    n_near = int(spec.n_sources * spec.near_frac)
    n_far = int(spec.n_sources * spec.far_frac)
    picks = rng.permutation(spec.n_sources)
    exact_src = np.sort(picks[:n_exact])
    near_src = np.sort(picks[n_exact:n_exact + n_near])
    far_src = np.sort(picks[n_exact + n_near:n_exact + n_near + n_far])
    ids = list(range(spec.n_sources))
    src = list(range(spec.n_sources))
    kind = ["source"] * spec.n_sources
    next_id = spec.n_sources
    for s in exact_src:
        texts.append(texts[s])
        ids.append(next_id)
        src.append(int(s))
        kind.append("exact")
        next_id += 1
    for kind_name, sources, edits in (("near", near_src, 1), ("far", far_src, spec.far_edits)):
        for s in sources:
            row = toks[s].copy()
            pos = rng.choice(spec.tokens_per_doc, size=edits, replace=False)
            # replacement tokens come from outside the sources' vocabulary
            row[pos] = spec.vocab + rng.integers(0, spec.vocab, size=edits)
            texts.append(" ".join(f"w{t}" for t in row))
            ids.append(next_id)
            src.append(int(s) if kind_name == "near" else next_id)
            kind.append(kind_name)
            next_id += 1
    order = rng.permutation(len(ids))
    docs = pa.table({
        "doc_id": pa.array([ids[i] for i in order], pa.int64()),
        "text": pa.array([texts[i] for i in order], pa.string()),
    })
    truth = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "source_id": pa.array(src, pa.int64()),
        "kind": pa.array(kind, pa.string()),
    })
    return {"docs": docs, "truth": truth}


GENERATORS = {DenseSpec: generate_dense, WebSpec: generate_web, DocSpec: generate_docs}


def cached_input(cache_root: str, seed: int, spec) -> dict[str, str]:
    """Paths of the input's Parquet files, generating them on a cache miss.

    The directory name is the (seed, spec) fingerprint; a `_done` marker is
    written last inside a private temporary directory that is then renamed
    into place, so a torn or concurrent write is never served."""
    final = os.path.join(cache_root, fingerprint(seed, spec))
    if not os.path.exists(os.path.join(final, "_done")):
        tmp = f"{final}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        for name, table in GENERATORS[type(spec)](seed, spec).items():
            pq.write_table(table, os.path.join(tmp, f"{name}.parquet"), row_group_size=2048)
        open(os.path.join(tmp, "_done"), "w").close()
        try:
            os.rename(tmp, final)
        except OSError:
            # another process published first, or a torn directory without
            # `_done` is in the way: move it aside, then publish
            if os.path.exists(os.path.join(final, "_done")):
                shutil.rmtree(tmp, ignore_errors=True)
            else:
                shutil.rmtree(final, ignore_errors=True)
                os.rename(tmp, final)
    names = [f[:-len(".parquet")] for f in os.listdir(final) if f.endswith(".parquet")]
    return {n: os.path.join(final, f"{n}.parquet") for n in sorted(names)}
