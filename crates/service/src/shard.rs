//! One shard: a contiguous slice of the corpus with its own relational
//! engine, symbol-presence index and tree-id offset.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use lpath_core::{Engine, EngineError, QueryCheckpoint, Walker, WalkerCheckpoint};
use lpath_model::{label_tree, Corpus, Label, NodeId};
use lpath_relstore::{wire, CursorCheckpoint};
use lpath_syntax::Path;

use crate::agg::{AggTables, FastClass};
use crate::plan::{CompiledQuery, ExecStrategy};
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
    /// Content-derived id of this build, used to scope caches — and
    /// serialized checkpoint tokens — to the shard's *content*: an
    /// append rebuilds only the tail shard, so the other shards keep
    /// their build id (and everything cached against it) across the
    /// corpus generation bump. Derived by a stable hash over the
    /// shard's tree data plus the corpus generation it was built at,
    /// so the same content in a different process yields the same id:
    /// a token minted before a restart resumes against an identical
    /// rebuild and is deterministically rejected against anything
    /// else. (A process-local counter here would make cross-restart
    /// tokens meaningless — and, worse, could spuriously *match* a
    /// fresh process's counter.)
    build_id: u64,
    build_time: Duration,
    /// Aggregate tables precomputed by the build pass: O(1) exact
    /// counts for the tabulated query shapes (see [`crate::agg`]).
    agg: AggTables,
}

/// A suspended per-shard sweep: the execution strategy's own
/// checkpoint — the engine payload `P` ([`lpath_core::QueryCheckpoint`]
/// when the sweep yields rows, [`lpath_relstore::CursorCheckpoint`]
/// when it only counts: the streaming cursor itself, no rows
/// materialized) or [`lpath_core::WalkerCheckpoint`] on the walker
/// fallback — tagged with the [`Shard::build_id`] it belongs to.
///
/// The tag makes misuse *recoverable*: a checkpoint resumed against a
/// shard whose content has changed (the tail shard after an
/// `append_ptb`-triggered rebuild) would silently yield rows of the
/// wrong corpus slice, so [`Shard::resume`] returns a typed
/// [`StaleCheckpoint`] error instead — never a panic, because with
/// serialized tokens a stale checkpoint is an expected runtime event
/// (an echoed token from before an append), not a caller bug. The
/// service degrades to a fresh evaluation when it sees one.
#[derive(Clone, Debug)]
pub struct Checkpoint<P> {
    build_id: u64,
    inner: Resume<P>,
}

/// A suspended page enumeration (see [`Shard::eval_resume`]).
pub type ShardCheckpoint = Checkpoint<QueryCheckpoint>;

/// A suspended count (see [`Shard::resume`]).
pub type ShardCountCheckpoint = Checkpoint<CursorCheckpoint>;

#[derive(Clone, Debug)]
enum Resume<P> {
    // Boxed: a suspended pipeline is much larger than a walker's
    // tree index, and checkpoints travel inside cache entries.
    Engine(Box<P>),
    Walker(WalkerCheckpoint),
}

/// The engine half of a sweep, by what the sweep keeps: how the
/// relational strategy resumes, serializes and thaws its suspended
/// state, and how the walker fallback's rows become the same kind of
/// chunk. Implemented for exactly the two payloads named on
/// [`Checkpoint`].
pub trait Payload: Sized {
    /// What one step yields: rows, or a number of matches.
    type Chunk;
    /// Resume (or begin) on the relational engine.
    fn resume(
        engine: &Engine,
        ast: &Path,
        checkpoint: Option<Self>,
        budget: usize,
    ) -> Result<(Self::Chunk, Option<Self>), EngineError>;
    /// A walker page, as this sweep's chunk.
    fn walked(rows: Vec<(u32, NodeId)>) -> Self::Chunk;
    /// Serialize the suspended state.
    fn encode_into(&self, w: &mut wire::Writer);
    /// Thaw it from untrusted bytes, validated against `engine`'s plan.
    fn decode(
        engine: &Engine,
        ast: &Path,
        r: &mut wire::Reader<'_>,
    ) -> Result<Self, wire::WireError>;
}

impl Payload for QueryCheckpoint {
    type Chunk = Vec<(u32, NodeId)>;
    fn resume(
        engine: &Engine,
        ast: &Path,
        checkpoint: Option<Self>,
        budget: usize,
    ) -> Result<(Self::Chunk, Option<Self>), EngineError> {
        engine.query_resume(ast, checkpoint, budget)
    }
    fn walked(rows: Vec<(u32, NodeId)>) -> Self::Chunk {
        rows
    }
    fn encode_into(&self, w: &mut wire::Writer) {
        self.encode_into(w);
    }
    fn decode(
        engine: &Engine,
        ast: &Path,
        r: &mut wire::Reader<'_>,
    ) -> Result<Self, wire::WireError> {
        engine.decode_checkpoint(ast, r)
    }
}

impl Payload for CursorCheckpoint {
    type Chunk = u64;
    fn resume(
        engine: &Engine,
        ast: &Path,
        checkpoint: Option<Self>,
        budget: usize,
    ) -> Result<(u64, Option<Self>), EngineError> {
        engine.count_resume(ast, checkpoint, budget)
    }
    fn walked(rows: Vec<(u32, NodeId)>) -> u64 {
        rows.len() as u64
    }
    fn encode_into(&self, w: &mut wire::Writer) {
        self.encode_into(w);
    }
    fn decode(
        engine: &Engine,
        ast: &Path,
        r: &mut wire::Reader<'_>,
    ) -> Result<Self, wire::WireError> {
        engine.decode_count_checkpoint(ast, r)
    }
}

/// A checkpoint was presented to a shard build it does not belong to
/// — its suspended positions index into different content and cannot
/// be continued correctly. Recoverable: re-evaluate the shard from
/// the start and skip the rows already served.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StaleCheckpoint {
    /// The build the checkpoint was suspended against.
    pub checkpoint_build: u64,
    /// The build of the shard it was presented to.
    pub shard_build: u64,
}

impl std::fmt::Display for StaleCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale checkpoint: suspended against shard build {:#x}, presented to {:#x}",
            self.checkpoint_build, self.shard_build
        )
    }
}

impl std::error::Error for StaleCheckpoint {}

impl<P: Payload> Checkpoint<P> {
    /// The shard build this checkpoint is valid against.
    pub fn build_id(&self) -> u64 {
        self.build_id
    }

    /// Serialize this checkpoint into `w`: the build id it is scoped
    /// to, the execution strategy, and the strategy's own suspended
    /// state. [`Shard::decode_checkpoint`] reverses it.
    pub fn encode_into(&self, w: &mut wire::Writer) {
        w.u64(self.build_id);
        match &self.inner {
            Resume::Engine(c) => {
                w.u8(0);
                c.encode_into(w);
            }
            Resume::Walker(c) => {
                w.u8(1);
                c.encode_into(w);
            }
        }
    }
}

/// Why a serialized shard checkpoint could not be turned back into a
/// live one.
#[derive(Debug)]
pub enum CheckpointDecodeError {
    /// The bytes are well-formed but belong to a different shard
    /// build — recover by re-evaluating (see [`StaleCheckpoint`]).
    Stale(StaleCheckpoint),
    /// The bytes are truncated, corrupted or structurally inconsistent
    /// with this shard's plan for the query — a protocol error.
    Wire(wire::WireError),
}

impl From<wire::WireError> for CheckpointDecodeError {
    fn from(e: wire::WireError) -> Self {
        CheckpointDecodeError::Wire(e)
    }
}

/// One chunk of a shard's enumeration: rows with *global* tree ids,
/// plus the checkpoint to continue from (`None` once exhausted).
pub type ShardPage = (Vec<(u32, NodeId)>, Option<ShardCheckpoint>);

/// FNV-1a over `u32` words — the stable content hash behind
/// [`Shard::build_id`]. Seeded with the shard's base tree id and the
/// corpus generation, then fed every node's preorder position data
/// (interned name, child count, attributes): two builds hash equal
/// exactly when they cover the same slice of identical tree data at
/// the same generation — the precise condition under which a
/// suspended checkpoint (whose positions index into the engine built
/// from that data) remains resumable.
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
    /// required symbols? `false` guarantees the empty answer.
    pub fn may_match(&self, required: &[String]) -> bool {
        required.iter().all(|sym| {
            self.corpus
                .interner()
                .get(sym)
                .is_some_and(|s| self.contains_sym(s.raw()))
        })
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

    /// The dispatch of every evaluation that starts fresh: the compiled
    /// strategy decides, the walker — which answers the full language —
    /// is the fallback. (The strategy was decided against an engine of
    /// the same dialect, so a relational error should be unreachable;
    /// fall back rather than fail the query.)
    fn fresh<T>(
        &self,
        compiled: &CompiledQuery,
        engine: impl FnOnce(&Engine, &Path) -> Result<T, EngineError>,
        walker: impl FnOnce(Walker<'_>, &Path) -> T,
    ) -> T {
        if compiled.strategy == ExecStrategy::Relational {
            if let Ok(out) = engine(&self.engine, &compiled.ast) {
                return out;
            }
        }
        walker(self.walker(), &compiled.ast)
    }

    /// The first `limit` matches of the shard's document-ordered
    /// result — the page bound pushed *into* the shard, so a page-1
    /// request over a large shard pays for a bounded prefix instead of
    /// a full [`Shard::eval`] — plus the checkpoint to continue from
    /// ([`Shard::eval_resume`] with `None`).
    ///
    /// A returned checkpoint of `None` proves the prefix is the
    /// shard's complete result (so does coming back short, which
    /// always yields `None`).
    pub fn eval_limit(&self, compiled: &CompiledQuery, limit: usize) -> ShardPage {
        // Starting fresh presents no checkpoint, so staleness is
        // impossible.
        match self.eval_resume(compiled, None, limit) {
            Ok(page) => page,
            Err(stale) => unreachable!("fresh evaluation reported {stale}"),
        }
    }

    /// Resume (or begin) the shard's document-ordered enumeration: up
    /// to `limit` further matches after `checkpoint` (from the start
    /// when `None`), with *global* tree ids, plus the checkpoint to
    /// continue from — `None` once the shard is known exhausted.
    /// Concatenating the chunks of successive calls is byte-identical
    /// to [`Shard::eval`]; already-returned matches are never
    /// re-enumerated. This is [`Shard::resume`] keeping rows: on the
    /// relational strategy it rides
    /// [`lpath_core::Engine::query_resume`] (a suspended pipeline for
    /// tree-id-ordered anchors, resumable adaptive chunks otherwise);
    /// the walker strategy resumes its tree scan at the next
    /// unvisited tree.
    ///
    /// # Errors
    ///
    /// [`StaleCheckpoint`], as [`Shard::resume`].
    pub fn eval_resume(
        &self,
        compiled: &CompiledQuery,
        checkpoint: Option<ShardCheckpoint>,
        limit: usize,
    ) -> Result<ShardPage, StaleCheckpoint> {
        let (rows, next) = self.resume(compiled, checkpoint, limit)?;
        Ok((self.global(rows), next))
    }

    /// Resume (or begin) a sweep of the shard's result, keeping what
    /// the payload `P` keeps: up to `budget` further matches after
    /// `checkpoint` (from the start when `None`) — as rows with
    /// *shard-local* tree ids, or merely counted, materialization-free
    /// through the suspended cursor — plus the checkpoint to continue
    /// from, `None` once the shard is exhausted. The chunks of
    /// successive calls add up to [`Shard::eval`] / [`Shard::count`];
    /// no match is ever produced twice.
    ///
    /// # Errors
    ///
    /// [`StaleCheckpoint`] if `checkpoint` carries a different
    /// [`Shard::build_id`] — it was taken over different shard content
    /// (an echoed token from before an append, say) and cannot be
    /// continued correctly. Nothing has been evaluated when this
    /// returns; the caller recovers by re-enumerating from the start
    /// and skipping what it already served.
    pub fn resume<P: Payload>(
        &self,
        compiled: &CompiledQuery,
        checkpoint: Option<Checkpoint<P>>,
        budget: usize,
    ) -> Result<(P::Chunk, Option<Checkpoint<P>>), StaleCheckpoint> {
        if let Some(c) = &checkpoint {
            self.check_build(c.build_id)?;
        }
        let walk = |w: Walker<'_>, ast: &Path, ck| {
            let (rows, next) = w.eval_resume(ast, ck, budget);
            (P::walked(rows), next.map(Resume::Walker))
        };
        let engine = |e: &Engine, ast: &Path, ck| {
            let (chunk, next) = P::resume(e, ast, ck, budget)?;
            Ok((chunk, next.map(|c| Resume::Engine(Box::new(c)))))
        };
        // Dispatch on the checkpoint's own strategy when resuming (a
        // first call that fell back to the walker must *stay* on the
        // walker), on the compiled strategy when starting fresh. The
        // checkpoint is consumed, not cloned: its pending rows and
        // dedup watermark move straight back into the executor.
        let (chunk, inner) = match checkpoint.map(|c| c.inner) {
            Some(Resume::Walker(ck)) => walk(self.walker(), &compiled.ast, Some(ck)),
            Some(Resume::Engine(ck)) => engine(&self.engine, &compiled.ast, Some(*ck))
                .expect("a resumed query translated before"),
            None => self.fresh(
                compiled,
                |e, ast| engine(e, ast, None),
                |w, ast| walk(w, ast, None),
            ),
        };
        let build_id = self.build_id;
        Ok((chunk, inner.map(|inner| Checkpoint { build_id, inner })))
    }

    /// The one staleness gate: does a checkpoint tagged `build_id`
    /// belong to this build of the shard?
    fn check_build(&self, build_id: u64) -> Result<(), StaleCheckpoint> {
        if build_id == self.build_id {
            return Ok(());
        }
        Err(StaleCheckpoint {
            checkpoint_build: build_id,
            shard_build: self.build_id,
        })
    }

    /// Decode a [`Checkpoint`] for `compiled` from untrusted bytes —
    /// the validate half of the token API, for either payload. The
    /// build id is checked first: a mismatch is
    /// [`CheckpointDecodeError::Stale`] without touching the strategy
    /// payload (which is only meaningful against the build that wrote
    /// it). A matching build then validates the payload structurally
    /// against this shard's engine (see
    /// [`lpath_core::Engine::decode_checkpoint`]); any inconsistency
    /// is a recoverable [`CheckpointDecodeError::Wire`], never a
    /// panic.
    pub fn decode_checkpoint<P: Payload>(
        &self,
        compiled: &CompiledQuery,
        r: &mut wire::Reader<'_>,
    ) -> Result<Checkpoint<P>, CheckpointDecodeError> {
        let build_id = r.u64()?;
        self.check_build(build_id)
            .map_err(CheckpointDecodeError::Stale)?;
        let inner = match r.u8()? {
            0 => Resume::Engine(Box::new(P::decode(&self.engine, &compiled.ast, r)?)),
            1 => Resume::Walker(WalkerCheckpoint::decode(r, self.corpus.trees().len())?),
            _ => {
                return Err(CheckpointDecodeError::Wire(wire::WireError::Malformed(
                    "shard resume strategy tag",
                )))
            }
        };
        Ok(Checkpoint { build_id, inner })
    }

    /// Result count on this shard, without materializing the match
    /// set (the relational path counts through the streaming cursor).
    pub fn count(&self, compiled: &CompiledQuery) -> usize {
        self.fresh(compiled, Engine::count_ast, |w, ast| w.count(ast))
    }

    /// The shard's precomputed aggregate tables (see [`crate::agg`]).
    pub fn agg(&self) -> &AggTables {
        &self.agg
    }

    /// Exact count of a table-answerable query, without evaluation.
    pub fn tabulated(&self, fast: &FastClass) -> u64 {
        self.agg.count(fast, self.corpus.interner(), &self.engine)
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
    use crate::plan::required_symbols;
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
            required: required_symbols(&ast),
            fast: crate::agg::classify(&ast),
            ast,
            strategy: ExecStrategy::Relational,
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
    fn eval_limit_is_a_prefix_of_eval() {
        let master = parse_str(SRC).unwrap();
        let shard = Shard::build(&master, 1, 2, 0);
        for q in ["//NP", "//VBD->NP", "//_[@lex=saw]", "//ZZZ"] {
            let c = compiled(q);
            let full = shard.eval(&c);
            for limit in 0..=full.len() + 2 {
                let (got, ckpt) = shard.eval_limit(&c, limit);
                assert_eq!(got, full[..limit.min(full.len())], "{q} limit {limit}");
                // Coming back short proves completeness.
                if got.len() < limit {
                    assert!(ckpt.is_none(), "{q} limit {limit}");
                }
            }
        }
        // The walker strategy pushes the bound too.
        let mut c = compiled("//VP/_[last()]");
        c.strategy = ExecStrategy::Walker;
        let full = shard.eval(&c);
        assert_eq!(shard.eval_limit(&c, 1).0, full[..1.min(full.len())]);
    }

    #[test]
    fn eval_resume_extends_without_replay_on_both_strategies() {
        let master = parse_str(SRC).unwrap();
        let shard = Shard::build(&master, 1, 2, 0);
        let mut walker_q = compiled("//VP/_[last()]");
        walker_q.strategy = ExecStrategy::Walker;
        for c in [compiled("//NP"), compiled("//VBD->NP"), walker_q] {
            let full = shard.eval(&c);
            for split in 1..=full.len().max(1) {
                let (head, ckpt) = shard.eval_resume(&c, None, split).unwrap();
                assert_eq!(head, full[..split.min(full.len())]);
                let Some(ckpt) = ckpt else { continue };
                assert_eq!(ckpt.build_id(), shard.build_id());
                let (tail, end) = shard.eval_resume(&c, Some(ckpt), usize::MAX).unwrap();
                assert_eq!(tail, full[split.min(full.len())..]);
                assert!(end.is_none());
            }
        }
    }

    #[test]
    fn resuming_against_a_different_build_is_a_typed_error() {
        let master = parse_str(SRC).unwrap();
        let a = Shard::build(&master, 0, 2, 0);
        // Same slice, different generation: different content stamp.
        let b = Shard::build(&master, 0, 2, 1);
        // One VBD per tree: stopping after the first leaves a live
        // checkpoint.
        let c = compiled("//VBD");
        let (_, ckpt) = a.eval_resume(&c, None, 1).unwrap();
        let ckpt = ckpt.unwrap();
        let stale = b.eval_resume(&c, Some(ckpt), 1).unwrap_err();
        assert_eq!(stale.checkpoint_build, a.build_id());
        assert_eq!(stale.shard_build, b.build_id());
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
    fn checkpoints_round_trip_through_the_wire() {
        let master = parse_str(SRC).unwrap();
        let shard = Shard::build(&master, 0, 3, 0);
        let mut walker_q = compiled("//VP/_[last()]");
        walker_q.strategy = ExecStrategy::Walker;
        for c in [compiled("//NP"), walker_q] {
            let full = shard.eval(&c);
            let (head, ckpt) = shard.eval_resume(&c, None, 1).unwrap();
            let ckpt = ckpt.expect("more rows remain");
            let mut w = wire::Writer::new();
            ckpt.encode_into(&mut w);
            let bytes = w.into_bytes();
            let mut r = wire::Reader::new(&bytes);
            let decoded = match shard.decode_checkpoint(&c, &mut r) {
                Ok(d) => d,
                Err(e) => panic!("decode failed: {e:?}"),
            };
            assert!(r.finished());
            let (tail, _) = shard.eval_resume(&c, Some(decoded), usize::MAX).unwrap();
            let mut joined = head.clone();
            joined.extend(tail);
            assert_eq!(joined, full);
        }
    }

    /// The serialized form of `c`'s checkpoint after one match on
    /// `shard`, for either payload.
    fn frozen<P: Payload>(shard: &Shard, c: &CompiledQuery) -> Vec<u8> {
        let (_, ckpt) = shard.resume::<P>(c, None, 1).unwrap();
        let mut w = wire::Writer::new();
        ckpt.expect("more matches remain").encode_into(&mut w);
        w.into_bytes()
    }

    fn rebuilt_shard_reports_stale<P: Payload + std::fmt::Debug>() {
        let master = parse_str(SRC).unwrap();
        let a = Shard::build(&master, 0, 3, 0);
        let b = Shard::build(&master, 0, 3, 7);
        let c = compiled("//NP");
        let bytes = frozen::<P>(&a, &c);
        match b.decode_checkpoint::<P>(&c, &mut wire::Reader::new(&bytes)) {
            Err(CheckpointDecodeError::Stale(s)) => {
                assert_eq!(s.checkpoint_build, a.build_id());
                assert_eq!(s.shard_build, b.build_id());
            }
            other => panic!("expected stale, got {other:?}"),
        }
    }

    #[test]
    fn decoding_against_a_rebuilt_shard_reports_stale() {
        rebuilt_shard_reports_stale::<QueryCheckpoint>();
        rebuilt_shard_reports_stale::<CursorCheckpoint>();
    }

    fn hostile_bytes_never_panic<P: Payload>() {
        let master = parse_str(SRC).unwrap();
        let shard = Shard::build(&master, 0, 3, 0);
        let c = compiled("//NP");
        let bytes = frozen::<P>(&shard, &c);
        // Every truncation decodes to an error, not a panic.
        for cut in 0..bytes.len() {
            let _ = shard.decode_checkpoint::<P>(&c, &mut wire::Reader::new(&bytes[..cut]));
        }
        // Every single-byte corruption either decodes (and can then
        // only yield bounded garbage) or errors — never panics.
        for i in 0..bytes.len() {
            for delta in [1u8, 0x80] {
                let mut bad = bytes.clone();
                bad[i] = bad[i].wrapping_add(delta);
                let _ = shard.decode_checkpoint::<P>(&c, &mut wire::Reader::new(&bad));
            }
        }
    }

    #[test]
    fn hostile_checkpoint_bytes_never_panic() {
        hostile_bytes_never_panic::<QueryCheckpoint>();
        hostile_bytes_never_panic::<CursorCheckpoint>();
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
        // Walker strategy too.
        let mut c = compiled("//VP/_[last()]");
        c.strategy = ExecStrategy::Walker;
        assert_eq!(shard.count(&c), shard.eval(&c).len());
        assert_eq!(shard.exists(&c), !shard.eval(&c).is_empty());
    }
}
