//! The seeded request streams of the four workloads. The program
//! under test receives only what these generate; `--seed` decides the
//! corpus, the Zipf picks, the template expansion and the append
//! batches, and each stream has an FNV-1a fingerprint so two reports
//! can prove they measured the same traffic.

use std::collections::HashSet;

use lpath_model::{generate, Corpus, GenConfig};

use crate::fixture;
use crate::seeded::{Fnv, Rng, Weighted};

/// A browsing session follows the paging token this many pages deep.
pub const MAX_PAGES: usize = 8;
/// After its pages a session asks for a count with this probability…
const P_COUNT: f64 = 0.2;
/// …and for a histogram with this one.
const P_HIST: f64 = 0.05;
/// Sessions per client that enter the stream fingerprint.
const FINGERPRINT_SESSIONS: usize = 4_096;

/// One browsing session: which fixture query it pages through and
/// which aggregates it asks for afterwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Session {
    /// Zero-based fixture query index.
    pub query: usize,
    pub count: bool,
    pub hist: bool,
}

/// One client's endless sequence of sessions.
pub struct BrowseScript {
    rng: Rng,
    zipf: Weighted,
}

impl BrowseScript {
    pub fn new(seed: u64, client: usize) -> Self {
        BrowseScript {
            rng: Rng::fork(seed, 0xB0 + client as u64),
            zipf: Weighted::zipf(fixture::QUERIES.len(), 1.0),
        }
    }

    pub fn next_session(&mut self) -> Session {
        Session {
            query: fixture::POPULARITY[self.zipf.sample(&mut self.rng)],
            count: self.rng.chance(P_COUNT),
            hist: self.rng.chance(P_HIST),
        }
    }
}

/// Fingerprint of the browsing stream of `clients` clients.
pub fn browse_fingerprint(seed: u64, clients: usize) -> u64 {
    let mut h = Fnv::new();
    for client in 0..clients {
        let mut script = BrowseScript::new(seed, client);
        for _ in 0..FINGERPRINT_SESSIONS {
            let s = script.next_session();
            h.write_str(fixture::QUERIES[s.query]);
            h.write(&[u8::from(s.count), u8::from(s.hist)]);
        }
    }
    h.finish()
}

/// Fingerprint of the `paper_engine` stream: one full-result pass and
/// one first-page pass over the fixture.
pub fn paper_fingerprint() -> u64 {
    let mut h = Fnv::new();
    for mode in ["query", "query_limit"] {
        for corpus in ["wsj", "swb"] {
            for q in fixture::QUERIES {
                h.write_str(mode);
                h.write_str(corpus);
                h.write_str(q);
            }
        }
    }
    h.finish()
}

/// Tags and words that occur in the generated corpus and survive a
/// round trip through the query parser, so every template expansion
/// is a valid query over vocabulary the corpus really has. Picks are
/// weighted by the square root of corpus frequency: an explorer asks
/// about `NP` far more often than about `NP-TMP-39`, but does get to
/// the rare categories, and those are what make shard pruning matter.
pub struct Vocabulary {
    pub tags: Vec<String>,
    pub words: Vec<String>,
    tag_weights: Weighted,
    word_weights: Weighted,
}

impl Vocabulary {
    pub fn of(corpus: &Corpus) -> Self {
        let usable = |histogram: Vec<(lpath_model::Sym, u64)>, probe: fn(&str) -> String| {
            let (names, weights): (Vec<String>, Vec<f64>) = histogram
                .into_iter()
                .map(|(sym, n)| (corpus.resolve(sym).to_string(), (n as f64).sqrt()))
                .filter(|(text, _)| {
                    let query = probe(text);
                    text.chars().all(|c| c.is_ascii_alphanumeric() || c == '-')
                        && lpath_syntax::parse(&query).is_ok_and(|ast| ast.to_string() == query)
                })
                .unzip();
            let weighted = Weighted::new(&weights);
            (names, weighted)
        };
        let (tags, tag_weights) = usable(corpus.tag_histogram(), |t| format!("//{t}"));
        let (words, word_weights) = usable(corpus.word_histogram(), |w| format!("//_[@lex={w}]"));
        Vocabulary {
            tags,
            words,
            tag_weights,
            word_weights,
        }
    }

    fn tag(&self, rng: &mut Rng) -> &str {
        &self.tags[self.tag_weights.sample(rng)]
    }

    fn word(&self, rng: &mut Rng) -> &str {
        &self.words[self.word_weights.sample(rng)]
    }
}

/// The query shapes ad-hoc exploration is expanded from. `a`, `b`,
/// `c` are tags, `w` a word. All but the last are anchored at `//a`.
type Template = fn(&str, &str, &str, &str) -> String;
const TEMPLATES: [Template; 11] = [
    |a, b, _, _| format!("//{a}[//{b}]"),
    |a, b, _, _| format!("//{a}->{b}"),
    |a, b, c, _| format!("//{a}/{b}-->{c}"),
    |a, b, _, _| format!("//{a}{{/{b}$}}"),
    |a, b, _, _| format!("//{a}[not(//{b})]"),
    |a, b, _, w| format!("//{a}[->{b}[//_[@lex={w}]]]"),
    |a, b, _, _| format!("//{a}/{b}"),
    |a, b, _, _| format!("//{a}=>{b}"),
    |a, b, c, _| format!("//{a}{{//{b}->{c}}}"),
    |a, _, _, w| format!("//{a}[//_[@lex={w}]]"),
    |_, _, _, w| format!("//_[@lex={w}]"),
];
/// Templates `0..ANCHORED` start at `//a` and can share an anchor.
const ANCHORED: usize = 10;
/// Queries in one `eval_multi` batch.
pub const MULTI_WIDTH: usize = 8;

/// What an exploration request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColdKind {
    Page1,
    Count,
    Exists,
    Multi,
}

/// One exploration request: one query, or eight siblings for a batch.
#[derive(Clone, Debug)]
pub struct ColdOp {
    pub kind: ColdKind,
    /// Template of the (first) query: the latency group.
    pub template: usize,
    pub queries: Vec<String>,
}

/// `ops` exploration requests, no query string used twice: 60 %
/// first pages, 20 % counts, 10 % existence tests, 10 % batches of
/// eight sibling queries sharing an anchor tag.
///
/// `seen` holds every query string already handed out and is extended:
/// two pools drawn through the same set share no query.
pub fn cold_pool(
    seed: u64,
    vocab: &Vocabulary,
    ops: usize,
    seen: &mut HashSet<String>,
) -> Vec<ColdOp> {
    let mut rng = Rng::fork(seed, 0xC0);
    // A template whose popular expansions are used up hands over to
    // the next one (among the first `among`) instead of spinning.
    let mut fresh = |rng: &mut Rng, mut template: usize, among: usize, anchor: Option<&str>| {
        for attempt in 1.. {
            let a = anchor.unwrap_or_else(|| vocab.tag(rng));
            let (b, c, w) = (vocab.tag(rng), vocab.tag(rng), vocab.word(rng));
            let q = TEMPLATES[template](a, b, c, w);
            if seen.insert(q.clone()) {
                return (template, q);
            }
            if attempt % 16 == 0 {
                template = (template + 1) % among;
            }
        }
        unreachable!("the loop only ends by returning")
    };
    let mut pool: Vec<ColdOp> = (0..ops)
        .map(|_| {
            let kind = match rng.below(10) {
                0..=5 => ColdKind::Page1,
                6 | 7 => ColdKind::Count,
                8 => ColdKind::Exists,
                _ => ColdKind::Multi,
            };
            if kind == ColdKind::Multi {
                let anchor = vocab.tag(&mut rng).to_string();
                let first = rng.below(ANCHORED);
                let queries = (0..MULTI_WIDTH)
                    .map(|i| fresh(&mut rng, (first + i) % ANCHORED, ANCHORED, Some(&anchor)).1)
                    .collect();
                ColdOp {
                    kind,
                    template: TEMPLATES.len(),
                    queries,
                }
            } else {
                let template = rng.below(TEMPLATES.len());
                let (template, query) = fresh(&mut rng, template, TEMPLATES.len(), None);
                ColdOp {
                    kind,
                    template,
                    queries: vec![query],
                }
            }
        })
        .collect();
    // Drawing without repetition uses the popular (and costly)
    // expansions up first; shuffling spreads them evenly, so any
    // stretch of the stream is the same mix and a faster program does
    // not reach cheaper queries just by getting further.
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i + 1));
    }
    pool
}

/// Fingerprint of an exploration stream.
pub fn cold_fingerprint(pool: &[ColdOp]) -> u64 {
    let mut h = Fnv::new();
    for op in pool {
        h.write(&[op.kind as u8]);
        for q in &op.queries {
            h.write_str(q);
        }
    }
    h.finish()
}

/// Sentences per append batch.
pub const APPEND_SENTENCES: usize = 20;

/// `batches` append payloads in bracketed form, cut from one freshly
/// generated corpus (so rare constructs appear at their usual rate,
/// not once per batch).
pub fn append_batches(seed: u64, batches: usize) -> Vec<String> {
    let fresh = generate(&GenConfig::wsj(batches * APPEND_SENTENCES).with_seed(seed ^ 0xA99E));
    (0..batches)
        .map(|i| {
            fresh
                .subcorpus(i * APPEND_SENTENCES..(i + 1) * APPEND_SENTENCES)
                .to_ptb_string()
        })
        .collect()
}

/// Fingerprint of the ingest stream: the reader's sessions plus every
/// append payload.
pub fn ingest_fingerprint(seed: u64, batches: &[String]) -> u64 {
    let mut h = Fnv::new();
    h.write(&browse_fingerprint(seed, 1).to_le_bytes());
    for b in batches {
        h.write_str(b);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_vocab(seed: u64) -> Vocabulary {
        Vocabulary::of(&generate(&GenConfig::wsj(300).with_seed(seed)))
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(browse_fingerprint(5, 2), browse_fingerprint(5, 2));
        assert_ne!(browse_fingerprint(5, 2), browse_fingerprint(6, 2));
        assert_ne!(browse_fingerprint(5, 2), browse_fingerprint(5, 1));

        let cold = |seed| {
            cold_fingerprint(&cold_pool(
                seed,
                &small_vocab(seed),
                2_000,
                &mut HashSet::new(),
            ))
        };
        assert_eq!(cold(5), cold(5));
        assert_ne!(cold(5), cold(6));

        let ingest = |seed| ingest_fingerprint(seed, &append_batches(seed, 3));
        assert_eq!(ingest(5), ingest(5));
        assert_ne!(ingest(5), ingest(6));
    }

    #[test]
    fn exploration_never_repeats_a_query_and_keeps_its_mix() {
        let vocab = small_vocab(9);
        assert!(vocab.tags.len() >= 32 && vocab.words.len() >= 200);
        // The most frequent tag is picked far more often than a rare one.
        let mut rng = Rng::fork(9, 1);
        let head = (0..2_000)
            .filter(|_| vocab.tag(&mut rng) == vocab.tags[0])
            .count();
        assert!(head > 2_000 / vocab.tags.len() * 3, "{head}");
        let mut taken = HashSet::new();
        let warm = cold_pool(1, &vocab, 200, &mut taken);
        let mut pool = cold_pool(9, &vocab, 30_000, &mut taken);
        pool.extend(warm);
        let mut seen = HashSet::new();
        for op in &pool {
            assert_eq!(
                op.queries.len(),
                if op.kind == ColdKind::Multi {
                    MULTI_WIDTH
                } else {
                    1
                }
            );
            for q in &op.queries {
                assert!(seen.insert(q.as_str()), "{q} repeated");
                assert!(lpath_syntax::parse(q).is_ok(), "{q} does not parse");
            }
        }
        assert!(seen.len() >= 30_000);
        let share = |kind| pool.iter().filter(|op| op.kind == kind).count() as f64 / 30_200.0;
        assert!((share(ColdKind::Page1) - 0.6).abs() < 0.02);
        assert!((share(ColdKind::Count) - 0.2).abs() < 0.02);
        assert!((share(ColdKind::Exists) - 0.1).abs() < 0.02);
        assert!((share(ColdKind::Multi) - 0.1).abs() < 0.02);
        // Batch members share their anchor tag.
        let multi = pool.iter().find(|op| op.kind == ColdKind::Multi).unwrap();
        let anchored_at = |q: &str, tag: &str| {
            q[2..].strip_prefix(tag).is_some_and(|rest| {
                // The tag must end here: no further tag character, and a
                // `-` only as the start of an arrow.
                let arrow = rest.starts_with("->") || rest.starts_with("-->");
                !rest.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && (arrow || !rest.starts_with('-'))
            })
        };
        assert!(vocab
            .tags
            .iter()
            .any(|tag| multi.queries.iter().all(|q| anchored_at(q, tag))));
    }

    #[test]
    fn browsing_sessions_follow_the_fixed_popularity_order() {
        let mut script = BrowseScript::new(3, 0);
        let mut hits = [0u32; 23];
        let (mut counts, mut hists) = (0u32, 0u32);
        for _ in 0..20_000 {
            let s = script.next_session();
            hits[s.query] += 1;
            counts += u32::from(s.count);
            hists += u32::from(s.hist);
        }
        let most = (0..23).max_by_key(|&q| hits[q]).unwrap();
        assert_eq!(most, fixture::POPULARITY[0]);
        assert!((f64::from(counts) / 20_000.0 - P_COUNT).abs() < 0.02);
        assert!((f64::from(hists) / 20_000.0 - P_HIST).abs() < 0.01);
    }

    #[test]
    fn append_batches_parse_back_to_their_sentence_count() {
        for b in append_batches(11, 3) {
            let parsed = lpath_model::ptb::parse_str(&b).unwrap();
            assert_eq!(parsed.trees().len(), APPEND_SENTENCES);
        }
    }
}
