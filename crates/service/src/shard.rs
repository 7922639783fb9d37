//! One shard: a contiguous slice of the corpus with its own relational
//! engine, symbol-presence index and tree-id offset.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use lpath_core::{Engine, EngineError, Paged, Position, Walker};
use lpath_model::{label_tree, Corpus, Label, NodeId};
use lpath_syntax::Path;

use crate::agg::{AggTables, FastClass};
use crate::plan::{CompiledQuery, Requirements};
use crate::stats::ShardStats;

/// A self-contained partition of the corpus.
///
/// The shard owns its tree slice — the service keeps no other copy of
/// the trees — with every symbol known at its build in its interner
/// (so ids agree across shards), and a fully built
/// [`lpath_core::Engine`] over it. Match results are reported in
/// *global* tree ids: the shard adds its `base` offset, so
/// concatenating per-shard result sets in shard order reproduces the
/// single-engine document order exactly.
pub struct Shard {
    corpus: Corpus,
    engine: Engine,
    /// Interval labels per tree, computed lazily on the first walker-
    /// fallback query (purely relational workloads never pay for
    /// them) and then reused for the shard's lifetime.
    labels: OnceLock<Vec<Vec<Label>>>,
    base: u32,
    /// Symbol-presence bitset over the shard's interner ids: tag
    /// names, attribute names and attribute values that occur in this
    /// shard's trees.
    present: Vec<u64>,
    /// Content-derived id of this build, used to scope caches — and,
    /// through the corpus stamp, page tokens — to the shard's
    /// *content*: an append rebuilds only the tail shard, so the other
    /// shards keep their build id (and everything cached against it)
    /// across the corpus generation bump. Derived by a stable hash
    /// over the shard's tree data plus the corpus generation it was
    /// built at, so the same content in a different process yields the
    /// same id: a token minted before a restart continues against an
    /// identical rebuild and is recovered as stale against anything
    /// else. (A process-local counter here would make cross-restart
    /// tokens meaningless — and, worse, could spuriously *match* a
    /// fresh process's counter.)
    build_id: u64,
    build_time: Duration,
    /// Aggregate tables precomputed by the build pass: O(1) exact
    /// counts for the tabulated query shapes (see [`crate::agg`]).
    agg: AggTables,
}

/// FNV-1a over `u32` words — the stable content hash behind
/// [`Shard::build_id`]. Seeded with the shard's base tree id and the
/// corpus generation, then fed every node's preorder position data
/// (interned name, child count, attributes): two builds hash equal
/// exactly when they cover the same slice of identical tree data at
/// the same generation.
struct ContentHash(u64);

impl ContentHash {
    fn new(base: u32, generation: u64) -> Self {
        let mut h = ContentHash(0xcbf2_9ce4_8422_2325);
        h.word(base);
        h.word(generation as u32);
        h.word((generation >> 32) as u32);
        h
    }

    fn word(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The final id; never zero, so callers can use zero as "no build".
    fn finish(&self) -> u64 {
        self.0.max(1)
    }
}

impl Shard {
    /// [`Shard::from_slice`] over a copy of `corpus.trees()[start..start + len]`.
    pub fn build(corpus: &Corpus, start: usize, len: usize, generation: u64) -> Shard {
        Shard::from_slice(
            corpus.subcorpus(start..start + len),
            start as u32,
            generation,
        )
    }

    /// Build a shard owning `corpus`, whose first tree has global id
    /// `base`, at corpus `generation` (see [`Shard::build_id`]).
    pub fn from_slice(corpus: Corpus, base: u32, generation: u64) -> Shard {
        let t = Instant::now();
        let mut present = vec![0u64; corpus.interner().len().div_ceil(64)];
        let mut mark = |raw: u32| {
            let (word, bit) = (raw as usize / 64, raw as usize % 64);
            if let Some(w) = present.get_mut(word) {
                *w |= 1 << bit;
            }
        };
        // One pass feeds the symbol-presence bitset, the content hash
        // behind the build id, and the aggregate count tables.
        let mut hash = ContentHash::new(base, generation);
        let mut agg = AggTables::default();
        for tree in corpus.trees() {
            hash.word(tree.len() as u32);
            agg.observe_tree(tree);
            for id in tree.preorder() {
                let node = tree.node(id);
                mark(node.name.raw());
                hash.word(node.name.raw());
                hash.word(node.children.len() as u32);
                for &(aname, aval) in &node.attrs {
                    mark(aname.raw());
                    mark(aval.raw());
                    hash.word(aname.raw());
                    hash.word(aval.raw());
                }
            }
        }
        let engine = Engine::build(&corpus);
        Shard {
            corpus,
            engine,
            labels: OnceLock::new(),
            base,
            present,
            build_id: hash.finish(),
            build_time: t.elapsed(),
            agg,
        }
    }

    /// The shard's first global tree id.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Process-unique id of this shard build (see the field docs).
    pub fn build_id(&self) -> u64 {
        self.build_id
    }

    /// Number of trees owned by the shard.
    pub fn trees(&self) -> usize {
        self.corpus.trees().len()
    }

    /// The shard's relational engine (for inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The shard's corpus slice.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Can this shard possibly contribute a match, given the query's
    /// requirements? Every required symbol must occur in the shard and
    /// every required tag pair in its pair tables, both resolved
    /// through the shard's own interner. `false` guarantees the empty
    /// answer.
    pub fn may_match(&self, required: &Requirements) -> bool {
        let interner = self.corpus.interner();
        let present = |sym: &String| {
            interner
                .get(sym)
                .is_some_and(|s| self.contains_sym(s.raw()))
        };
        required.symbols.iter().all(present)
            && required
                .edges
                .iter()
                .all(|e| self.agg.witnesses(e, interner))
    }

    /// The shard's interval labels, computed on first use.
    fn labels(&self) -> &[Vec<Label>] {
        self.labels
            .get_or_init(|| self.corpus.trees().iter().map(label_tree).collect())
    }

    fn contains_sym(&self, raw: u32) -> bool {
        let (word, bit) = (raw as usize / 64, raw as usize % 64);
        self.present.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Evaluate a compiled query on this shard, returning matches with
    /// *global* tree ids, in document order.
    ///
    /// The caller is expected to have consulted [`Shard::may_match`];
    /// evaluation is still correct without it, just slower.
    pub fn eval(&self, compiled: &CompiledQuery) -> Vec<(u32, NodeId)> {
        self.global(self.fresh(compiled, Engine::query_ast, |w, ast| w.eval(ast)))
    }

    /// Shard-local rows, renumbered to global tree ids.
    fn global(&self, mut rows: Vec<(u32, NodeId)>) -> Vec<(u32, NodeId)> {
        for row in &mut rows {
            row.0 += self.base;
        }
        rows
    }

    /// The dispatch of every evaluation, mirroring
    /// [`lpath_core::Engine`]'s fallback contract: the shard's engine
    /// where the relational translation covers the query, the walker —
    /// which answers the full language — where it does not.
    fn fresh<T>(
        &self,
        compiled: &CompiledQuery,
        engine: impl FnOnce(&Engine, &Path) -> Result<T, EngineError>,
        walker: impl FnOnce(Walker<'_>, &Path) -> T,
    ) -> T {
        engine(&self.engine, &compiled.ast).unwrap_or_else(|_| walker(self.walker(), &compiled.ast))
    }

    /// One page of the shard's document-ordered result from position
    /// `at` (shard-local tree ids): up to `limit` matches with *global*
    /// tree ids, plus the position after the last of them — `None`
    /// once the shard is exhausted (see
    /// [`lpath_core::Engine::page_ast`]). Concatenating the pages of a
    /// sweep is [`Shard::eval`]. A page from [`Position::START`] is
    /// the page bound pushed *into* the shard: page 1 over a large
    /// shard pays for a bounded prefix, not a full evaluation.
    pub fn page(&self, compiled: &CompiledQuery, at: Position, limit: usize) -> Paged {
        let (rows, next) = self.fresh(
            compiled,
            |e, ast| e.page_ast(ast, at, limit),
            |w, ast| w.eval_resume(ast, at, limit),
        );
        (self.global(rows), next)
    }

    /// A budgeted count from shard-local tree `from` on: whole trees
    /// until at least `budget` matches are counted, plus the tree to
    /// continue from — `None` once the shard is exhausted (see
    /// [`lpath_core::Engine::count_resume`]).
    pub fn count_resume(
        &self,
        compiled: &CompiledQuery,
        from: u32,
        budget: usize,
    ) -> (u64, Option<u32>) {
        self.fresh(
            compiled,
            |e, ast| e.count_resume(ast, from, budget),
            |w, ast| w.count_resume(ast, from, budget),
        )
    }

    /// Result count on this shard, without materializing the match
    /// set on the engine (a semijoin program or the streaming cursor).
    pub fn count(&self, compiled: &CompiledQuery) -> usize {
        self.fresh(compiled, Engine::count_ast, |w, ast| w.count(ast))
    }

    /// The shard's precomputed aggregate tables (see [`crate::agg`]).
    pub fn agg(&self) -> &AggTables {
        &self.agg
    }

    /// Exact count of a table-answerable query, without evaluation.
    pub fn tabulated(&self, fast: &FastClass) -> u64 {
        self.agg.count(fast, self.corpus.interner())
    }

    /// Does the query match anywhere on this shard? Stops at the
    /// first witness on both execution strategies.
    pub fn exists(&self, compiled: &CompiledQuery) -> bool {
        self.fresh(compiled, Engine::exists_ast, |w, ast| w.exists(ast))
    }

    fn walker(&self) -> Walker<'_> {
        Walker::with_labels(&self.corpus, self.labels())
    }

    /// Per-shard statistics snapshot.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            base: self.base,
            trees: self.corpus.trees().len(),
            relation_rows: self.engine.relation_size(),
            build_time: self.build_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::requirements;
    use lpath_model::ptb::parse_str;

    const SRC: &str = "\
( (S (NP-SBJ (PRP I)) (VP (VBD saw) (NP (DT the) (NN man))) (. .)) )
( (S (NP-SBJ (DT the) (NN man)) (VP (VBD left))) )
( (S (NP-SBJ (PRP we)) (VP (VBD ran) (NP (NN home)))) )
";

    fn compiled(q: &str) -> CompiledQuery {
        let ast = lpath_syntax::parse(q).unwrap();
        CompiledQuery {
            normalized: ast.to_string(),
            required: requirements(&ast),
            fast: crate::agg::classify(&ast),
            ast,
            statically_empty: false,
        }
    }

    #[test]
    fn shard_offsets_global_tids() {
        let master = parse_str(SRC).unwrap();
        let tail = Shard::build(&master, 1, 2, 0);
        assert_eq!(tail.base(), 1);
        let got = tail.eval(&compiled("//VBD"));
        let tids: Vec<u32> = got.iter().map(|(t, _)| *t).collect();
        assert_eq!(tids, [1, 2]);
    }

    #[test]
    fn presence_pruning_is_sound() {
        let master = parse_str(SRC).unwrap();
        let head = Shard::build(&master, 0, 1, 0);
        let tail = Shard::build(&master, 1, 2, 0);
        // "saw" occurs only in tree 0.
        let q = compiled("//_[@lex=saw]");
        assert!(head.may_match(&q.required));
        assert!(!tail.may_match(&q.required));
        // may_match=false really does mean the empty answer.
        assert_eq!(tail.eval(&q), []);
        // A symbol missing from the whole interner prunes everything.
        let q = compiled("//ZZZ");
        assert!(!head.may_match(&q.required));
        assert!(!tail.may_match(&q.required));
    }

    #[test]
    fn shard_equals_engine_on_its_slice() {
        let master = parse_str(SRC).unwrap();
        let shard = Shard::build(&master, 0, 3, 0);
        let engine = Engine::build(&master);
        for q in ["//NP", "//VBD->NP", "//S{/VP$}", "//_[@lex=the]"] {
            assert_eq!(shard.eval(&compiled(q)), engine.query(q).unwrap(), "{q}");
        }
    }

    #[test]
    fn page_one_is_a_prefix_of_eval() {
        let master = parse_str(SRC).unwrap();
        let shard = Shard::build(&master, 1, 2, 0);
        // The walker fallback (`//VP/_[last()]`) pushes the bound too.
        for q in [
            "//NP",
            "//VBD->NP",
            "//_[@lex=saw]",
            "//ZZZ",
            "//VP/_[last()]",
        ] {
            let c = compiled(q);
            let full = shard.eval(&c);
            for limit in 0..=full.len() + 2 {
                let (got, next) = shard.page(&c, Position::START, limit);
                assert_eq!(got, full[..limit.min(full.len())], "{q} limit {limit}");
                // Coming back short proves completeness.
                if got.len() < limit {
                    assert!(next.is_none(), "{q} limit {limit}");
                }
            }
        }
    }

    /// Page `c` on `shard` to exhaustion from `at`, `limit` rows a page.
    fn sweep(
        shard: &Shard,
        c: &CompiledQuery,
        mut at: Position,
        limit: usize,
    ) -> Vec<(u32, NodeId)> {
        let mut got = Vec::new();
        loop {
            let (rows, next) = shard.page(c, at, limit);
            got.extend(rows);
            match next {
                Some(p) => at = p,
                None => return got,
            }
        }
    }

    #[test]
    fn pages_continue_from_positions_on_both_strategies() {
        let master = parse_str(SRC).unwrap();
        let shard = Shard::build(&master, 1, 2, 0);
        for c in [
            compiled("//NP"),
            compiled("//VBD->NP"),
            compiled("//VP/_[last()]"),
        ] {
            let full = shard.eval(&c);
            for split in 1..=full.len() {
                let (head, next) = shard.page(&c, Position::START, split);
                assert_eq!(head, full[..split]);
                let (tail, end) = shard.page(&c, next.expect("a full page parks"), usize::MAX);
                assert_eq!(tail, full[split..]);
                assert!(end.is_none());
            }
            assert_eq!(sweep(&shard, &c, Position::START, 1), full);
        }
    }

    #[test]
    fn positions_outlive_an_append_to_the_tail() {
        // An append adds trees after the tail's last one: a position
        // taken before it names the same place after it, and paging on
        // from there reads the grown shard's result.
        let mut corpus = parse_str(SRC).unwrap();
        let before = Shard::build(&corpus, 1, 2, 0);
        lpath_model::ptb::parse_into("( (S (NP (NN snow)) (VP (VBD fell))) )", &mut corpus)
            .unwrap();
        let after = Shard::build(&corpus, 1, 3, 1);
        for q in ["//NP", "//VBD", "//VP/_[last()]"] {
            let c = compiled(q);
            let (head, at) = before.page(&c, Position::START, 1);
            let at = at.expect("more rows remain");
            let mut joined = head;
            joined.extend(sweep(&after, &c, at, 2));
            assert_eq!(joined, after.eval(&c), "{q}");
        }
    }

    #[test]
    fn build_ids_derive_from_content() {
        let master = parse_str(SRC).unwrap();
        // Identical content at the same generation: the same id, even
        // across separate builds (the cross-restart resume guarantee).
        let a = Shard::build(&master, 0, 2, 0);
        let b = Shard::build(&master, 0, 2, 0);
        assert_eq!(a.build_id(), b.build_id());
        assert_ne!(a.build_id(), 0);
        // Different content, base, or generation: different ids.
        assert_ne!(a.build_id(), Shard::build(&master, 0, 3, 0).build_id());
        assert_ne!(a.build_id(), Shard::build(&master, 1, 2, 0).build_id());
        assert_ne!(a.build_id(), Shard::build(&master, 0, 2, 1).build_id());
    }

    #[test]
    fn a_grown_slice_builds_what_a_slice_of_the_grown_corpus_builds() {
        // The service's append path: the tail's own slice plus the new
        // trees must be the same shard — same build id, same symbol ids
        // — as a slice of the whole grown corpus would be.
        let extra = "( (S (NEWTAG (NN bird)) (VP (VBD flew))) )";
        let mut corpus = parse_str(SRC).unwrap();
        let mut grown = Shard::build(&corpus, 1, 2, 0).corpus().clone();
        lpath_model::ptb::parse_into(extra, &mut grown).unwrap();
        lpath_model::ptb::parse_into(extra, &mut corpus).unwrap();
        let appended = Shard::from_slice(grown, 1, 1);
        let sliced = Shard::build(&corpus, 1, 3, 1);
        assert_eq!(appended.build_id(), sliced.build_id());
        assert_eq!(
            appended.corpus().interner().get("NEWTAG"),
            corpus.interner().get("NEWTAG")
        );
        assert_eq!(
            appended.corpus().to_ptb_string(),
            sliced.corpus().to_ptb_string()
        );
    }

    #[test]
    fn count_and_exists_agree_with_eval() {
        let master = parse_str(SRC).unwrap();
        let shard = Shard::build(&master, 1, 2, 0);
        for q in ["//NP", "//VBD->NP", "//_[@lex=saw]", "//ZZZ"] {
            let c = compiled(q);
            let full = shard.eval(&c);
            assert_eq!(shard.count(&c), full.len(), "{q}");
            assert_eq!(shard.exists(&c), !full.is_empty(), "{q}");
        }
        // The walker fallback too.
        let c = compiled("//VP/_[last()]");
        assert_eq!(shard.count(&c), shard.eval(&c).len());
        assert_eq!(shard.exists(&c), !shard.eval(&c).is_empty());
    }

    #[test]
    fn budgeted_counts_sum_to_the_count_on_both_strategies() {
        let master = parse_str(SRC).unwrap();
        let shard = Shard::build(&master, 0, 3, 0);
        for q in ["//NP", "//VBD->NP", "//ZZZ", "//VP/_[last()]"] {
            let c = compiled(q);
            let (mut sum, mut tree) = (0, 0);
            loop {
                let (n, next) = shard.count_resume(&c, tree, 1);
                sum += n;
                match next {
                    Some(t) => tree = t,
                    None => break,
                }
            }
            assert_eq!(sum as usize, shard.count(&c), "{q}");
        }
    }
}
