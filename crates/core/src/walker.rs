//! A direct tree-walking LPath evaluator.
//!
//! The walker evaluates queries against in-memory trees using the
//! interval labels and [`AxisRel`](lpath_model::AxisRel) predicates — no relational storage.
//! It supports the *full* language (including the horizontal `-or-self`
//! closures and `position()`/`last()`, which the relational translation
//! rejects), and serves as the reference implementation the SQL engine
//! is differentially tested against.

use lpath_model::{label, label_tree, Corpus, Label, NodeId, Tree};
use lpath_syntax::{Axis, CmpOp, NodeTest, Path, PosRhs, Pred, Step};

use crate::compile::{axis_rel, is_reverse_axis};
use crate::engine::{PageSink, Paged, Position};

/// A point of evaluation inside one tree.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Point {
    /// The implicit document node (context of absolute paths).
    Doc,
    Elem(NodeId),
    /// An attribute of an element, by interned *full* name (`@lex`).
    Attr(NodeId, lpath_model::Sym),
}

impl Point {
    fn element(self) -> Option<NodeId> {
        match self {
            Point::Doc => None,
            Point::Elem(e) | Point::Attr(e, _) => Some(e),
        }
    }
}

/// Tree-walking evaluator over a corpus. Labels every tree once at
/// construction (or borrows labels a caller computed once and keeps —
/// see [`Walker::with_labels`]).
pub struct Walker<'c> {
    corpus: &'c Corpus,
    labels: std::borrow::Cow<'c, [Vec<Label>]>,
}

impl<'c> Walker<'c> {
    /// Label every tree of `corpus` and keep the labels for axis tests.
    pub fn new(corpus: &'c Corpus) -> Self {
        let labels = corpus.trees().iter().map(label_tree).collect::<Vec<_>>();
        Walker {
            corpus,
            labels: std::borrow::Cow::Owned(labels),
        }
    }

    /// A walker over labels the caller computed (with
    /// [`label_tree`] per tree, in corpus order) and keeps alive —
    /// construction is then free, which matters to callers that make a
    /// walker per query over a long-lived corpus.
    pub fn with_labels(corpus: &'c Corpus, labels: &'c [Vec<Label>]) -> Self {
        debug_assert_eq!(corpus.trees().len(), labels.len());
        Walker {
            corpus,
            labels: std::borrow::Cow::Borrowed(labels),
        }
    }

    /// The corpus this walker evaluates over.
    pub fn corpus(&self) -> &'c Corpus {
        self.corpus
    }

    /// Evaluate an absolute query over the whole corpus. Results are
    /// `(tree index, node)` in document order, deduplicated; a final
    /// attribute step yields its owning element.
    pub fn eval(&self, query: &Path) -> Vec<(u32, NodeId)> {
        let mut out = Vec::new();
        for tid in 0..self.corpus.trees().len() {
            for node in self.eval_tree(tid, query) {
                out.push((tid as u32, node));
            }
        }
        out
    }

    /// Evaluate an absolute query against one tree.
    pub fn eval_tree(&self, tree_idx: usize, query: &Path) -> Vec<NodeId> {
        let ctx = TreeCtx {
            tree: &self.corpus.trees()[tree_idx],
            labels: &self.labels[tree_idx],
            corpus: self.corpus,
        };
        let start = if query.absolute {
            vec![Point::Doc]
        } else {
            vec![Point::Elem(ctx.tree.root())]
        };
        let mut scopes = Vec::new();
        let points = ctx.eval_path(start, query, &mut scopes);
        finish(points)
    }

    /// Evaluate a relative query from a specific context node.
    pub fn eval_from(&self, tree_idx: usize, context: NodeId, query: &Path) -> Vec<NodeId> {
        let ctx = TreeCtx {
            tree: &self.corpus.trees()[tree_idx],
            labels: &self.labels[tree_idx],
            corpus: self.corpus,
        };
        let start = if query.absolute {
            vec![Point::Doc]
        } else {
            vec![Point::Elem(context)]
        };
        let mut scopes = Vec::new();
        finish(ctx.eval_path(start, query, &mut scopes))
    }

    /// Result count over the corpus (the measure the paper reports).
    pub fn count(&self, query: &Path) -> usize {
        self.eval(query).len()
    }

    /// Does the query match anywhere in the corpus? Trees are checked
    /// in document order and the scan stops at the first tree with a
    /// match — the walker's early-exit mirror of the relational
    /// cursor's `exists`.
    pub fn exists(&self, query: &Path) -> bool {
        (0..self.corpus.trees().len()).any(|tid| !self.eval_tree(tid, query).is_empty())
    }

    /// The `[offset, offset + limit)` slice of [`Walker::eval`]'s
    /// document-ordered result, stopping the corpus scan as soon as
    /// enough matches have accumulated. Byte-identical to slicing the
    /// full enumeration.
    pub fn eval_limit(&self, query: &Path, offset: usize, limit: usize) -> Vec<(u32, NodeId)> {
        if limit == 0 {
            return Vec::new();
        }
        let (mut rows, _) = self.eval_resume(query, Position::START, offset.saturating_add(limit));
        rows.split_off(offset.min(rows.len()))
    }

    /// One page of the document-ordered result from position `at`:
    /// the walker mirror of [`crate::Engine::page_ast`], whose
    /// contract it keeps. Trees before `at.tree` are never evaluated.
    pub fn eval_resume(&self, query: &Path, at: Position, limit: usize) -> Paged {
        if limit == 0 {
            return (Vec::new(), Some(at));
        }
        let mut page = PageSink::new(at, limit);
        for t in at.tree as usize..self.corpus.trees().len() {
            if page
                .tree(t as u32, self.eval_tree(t, query).into_iter())
                .is_break()
            {
                break;
            }
        }
        page.finish()
    }

    /// A budgeted count from tree `from` on: the walker mirror of
    /// [`crate::Engine::count_resume`], whose contract it keeps.
    pub fn count_resume(&self, query: &Path, from: u32, budget: usize) -> (u64, Option<u32>) {
        let mut n = 0u64;
        for t in from as usize..self.corpus.trees().len() {
            if n >= budget as u64 {
                return (n, Some(t as u32));
            }
            n += self.eval_tree(t, query).len() as u64;
        }
        (n, None)
    }
}

fn finish(points: Vec<Point>) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = points.into_iter().filter_map(Point::element).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

struct TreeCtx<'a> {
    tree: &'a Tree,
    labels: &'a [Label],
    corpus: &'a Corpus,
}

impl TreeCtx<'_> {
    fn label(&self, n: NodeId) -> &Label {
        &self.labels[n.index()]
    }

    /// The innermost scope label, defaulting to the tree root (the
    /// paper: without braces, alignment refers to the whole tree).
    fn scope_label(&self, scopes: &[NodeId]) -> &Label {
        match scopes.last() {
            Some(&s) => self.label(s),
            None => self.label(self.tree.root()),
        }
    }

    fn eval_path(
        &self,
        mut points: Vec<Point>,
        path: &Path,
        scopes: &mut Vec<NodeId>,
    ) -> Vec<Point> {
        for step in &path.steps {
            points = self.eval_step(&points, step, scopes);
            if points.is_empty() {
                break;
            }
        }
        if let Some(inner) = &path.scope {
            let mut out = Vec::new();
            for p in points {
                let Some(e) = p.element() else { continue };
                scopes.push(e);
                out.extend(self.eval_path(vec![Point::Elem(e)], inner, scopes));
                scopes.pop();
            }
            dedup_points(&mut out);
            return out;
        }
        points
    }

    fn eval_step(&self, contexts: &[Point], step: &Step, scopes: &mut Vec<NodeId>) -> Vec<Point> {
        let mut out = Vec::new();
        for &c in contexts {
            let mut list = self.candidates(c, step, scopes);
            // Predicates filter sequentially, renumbering positions
            // (XPath 1.0 semantics).
            for pred in &step.predicates {
                let len = list.len();
                let mut kept = Vec::with_capacity(len);
                for (i, &x) in list.iter().enumerate() {
                    if self.pred_holds(x, pred, i + 1, len, scopes) {
                        kept.push(x);
                    }
                }
                list = kept;
            }
            out.extend(list);
        }
        dedup_points(&mut out);
        out
    }

    /// Candidate points for one context, post node-test, alignment and
    /// scope containment, ordered for `position()` (reverse axes run
    /// backwards).
    fn candidates(&self, c: Point, step: &Step, scopes: &[NodeId]) -> Vec<Point> {
        let mut cands: Vec<Point> = match step.axis {
            Axis::Attribute => {
                let Some(e) = c.element() else { return vec![] };
                self.tree
                    .node(e)
                    .attrs
                    .iter()
                    .filter(|(name, _)| match &step.test {
                        NodeTest::Any => true,
                        NodeTest::Tag(t) => {
                            self.corpus.interner().get(&format!("@{t}")) == Some(*name)
                        }
                    })
                    .map(|&(name, _)| Point::Attr(e, name))
                    .collect()
            }
            axis => {
                let rel = axis_rel(axis).expect("attribute handled above");
                let base: Vec<NodeId> = match c {
                    Point::Doc => match axis {
                        Axis::Child => vec![self.tree.root()],
                        Axis::Descendant | Axis::DescendantOrSelf => self.tree.preorder().collect(),
                        // Nothing precedes, follows or contains the
                        // document node.
                        _ => vec![],
                    },
                    Point::Elem(e) | Point::Attr(e, _) => {
                        let cl = self.label(e);
                        // Fast paths for structural axes; label scan
                        // otherwise.
                        match axis {
                            Axis::Child => self.tree.node(e).children.clone(),
                            Axis::Parent => self.tree.node(e).parent.into_iter().collect(),
                            Axis::SelfAxis => vec![e],
                            _ => self
                                .tree
                                .preorder()
                                .filter(|&x| rel.holds(self.label(x), cl))
                                .collect(),
                        }
                    }
                };
                base.into_iter()
                    .filter(|&x| match &step.test {
                        NodeTest::Any => true,
                        NodeTest::Tag(t) => {
                            self.corpus.interner().get(t) == Some(self.tree.node(x).name)
                        }
                    })
                    .map(Point::Elem)
                    .collect()
            }
        };

        // Scope containment: every navigation inside braces stays in
        // the scope subtree.
        if let Some(&s) = scopes.last() {
            let sl = *self.label(s);
            cands.retain(|p| match p.element() {
                Some(e) => label::in_scope(self.label(e), &sl),
                None => false,
            });
        }
        // Edge alignment against the innermost scope (or tree root).
        if step.left_align || step.right_align {
            let sl = *self.scope_label(scopes);
            cands.retain(|p| {
                let Some(e) = p.element() else { return false };
                let l = self.label(e);
                (!step.left_align || label::left_aligned(l, &sl))
                    && (!step.right_align || label::right_aligned(l, &sl))
            });
        }

        cands.sort_unstable_by_key(|p| match *p {
            Point::Doc => (0, 0),
            Point::Elem(e) => (e.0, 0),
            Point::Attr(e, a) => (e.0, a.raw() + 1),
        });
        if is_reverse_axis(step.axis) {
            cands.reverse();
        }
        cands
    }

    fn pred_holds(
        &self,
        x: Point,
        pred: &Pred,
        pos: usize,
        len: usize,
        scopes: &mut Vec<NodeId>,
    ) -> bool {
        match pred {
            Pred::And(a, b) => {
                self.pred_holds(x, a, pos, len, scopes) && self.pred_holds(x, b, pos, len, scopes)
            }
            Pred::Or(a, b) => {
                self.pred_holds(x, a, pos, len, scopes) || self.pred_holds(x, b, pos, len, scopes)
            }
            Pred::Not(p) => !self.pred_holds(x, p, pos, len, scopes),
            Pred::Position(op, rhs) => {
                let rhs = match rhs {
                    PosRhs::Const(n) => *n as usize,
                    PosRhs::Last => len,
                };
                match op {
                    CmpOp::Eq => pos == rhs,
                    CmpOp::Ne => pos != rhs,
                    CmpOp::Lt => pos < rhs,
                    CmpOp::Gt => pos > rhs,
                }
            }
            Pred::Exists(path) => !self.eval_path(vec![x], path, scopes).is_empty(),
            Pred::Cmp { path, op, value } => {
                self.any_string_value(x, path, scopes, |actual| match op {
                    CmpOp::Eq => actual == value,
                    CmpOp::Ne => actual != value,
                    CmpOp::Lt => actual < value.as_str(),
                    CmpOp::Gt => actual > value.as_str(),
                })
            }
            Pred::Count { path, op, value } => {
                let n = self.eval_path(vec![x], path, scopes).len() as u32;
                cmp_u32(*op, n, *value)
            }
            Pred::StrCmp { func, path, arg } => {
                self.any_string_value(x, path, scopes, |actual| func.apply(actual, arg))
            }
            Pred::StrLen { path, op, value } => self.any_string_value(x, path, scopes, |actual| {
                cmp_u32(*op, actual.chars().count() as u32, *value)
            }),
        }
    }

    /// Does any string value selected by `path` from context `x` satisfy
    /// `test`? Only attribute points carry a string value in this data
    /// model; element points silently fail (the relational engine
    /// rejects such queries instead).
    fn any_string_value(
        &self,
        x: Point,
        path: &Path,
        scopes: &mut Vec<NodeId>,
        test: impl Fn(&str) -> bool,
    ) -> bool {
        let points = self.eval_path(vec![x], path, scopes);
        points.iter().any(|p| match *p {
            Point::Attr(e, name) => {
                let Some(v) = self.tree.node(e).attr(name) else {
                    return false;
                };
                test(self.corpus.resolve(v))
            }
            _ => false,
        })
    }
}

fn cmp_u32(op: CmpOp, lhs: u32, rhs: u32) -> bool {
    match op {
        CmpOp::Eq => lhs == rhs,
        CmpOp::Ne => lhs != rhs,
        CmpOp::Lt => lhs < rhs,
        CmpOp::Gt => lhs > rhs,
    }
}

fn dedup_points(points: &mut Vec<Point>) {
    points.sort_unstable_by_key(|p| match *p {
        Point::Doc => (u32::MAX, 0),
        Point::Elem(e) => (e.0, 0),
        Point::Attr(e, a) => (e.0, a.raw() + 1),
    });
    points.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpath_model::ptb::parse_str;
    use lpath_syntax::parse;

    /// The paper's Figure 1 tree in bracketed form.
    const FIG1: &str = "( (S (NP I) (VP (V saw) (NP (NP (Det the) (Adj old) (N man)) \
                        (PP (Prep with) (NP (Det a) (N dog))))) (N today)) )";

    fn fig1() -> Corpus {
        parse_str(FIG1).unwrap()
    }

    fn names(c: &Corpus, w: &Walker<'_>, q: &str) -> Vec<String> {
        let query = parse(q).unwrap();
        w.eval(&query)
            .into_iter()
            .map(|(t, n)| c.resolve(c.trees()[t as usize].node(n).name).to_string())
            .collect()
    }

    fn count(w: &Walker<'_>, q: &str) -> usize {
        w.count(&parse(q).unwrap())
    }

    /// Figure 2 of the paper: every example query with its expected
    /// result set on the Figure 1 tree.
    #[test]
    fn figure2_results() {
        let c = fig1();
        let w = Walker::new(&c);
        // Q: sentence containing "saw" → {S1}
        assert_eq!(names(&c, &w, "//S[//_[@lex=saw]]"), ["S"]);
        // Immediate following sibling of V → {NP6}
        assert_eq!(count(&w, "//V=>NP"), 1);
        // Immediately following V → {NP6, NP7}
        assert_eq!(count(&w, "//V->NP"), 2);
        // Nouns following a V child of VP → {N9, N13, N14(today)}
        assert_eq!(count(&w, "//VP/V-->N"), 3);
        // …scoped to the VP → {N9, N13}
        assert_eq!(count(&w, "//VP{/V-->N}"), 2);
        // Rightmost child NP of VP → {NP6}
        assert_eq!(count(&w, "//VP{/NP$}"), 1);
        // Rightmost descendant NPs of VP → {NP6, NP11}
        assert_eq!(count(&w, "//VP{//NP$}"), 2);
    }

    #[test]
    fn vertical_navigation() {
        let c = fig1();
        let w = Walker::new(&c);
        assert_eq!(count(&w, "//NP"), 4);
        assert_eq!(count(&w, "/S"), 1);
        assert_eq!(count(&w, "/NP"), 0); // root is S
        assert_eq!(count(&w, "//PP/NP"), 1);
        assert_eq!(count(&w, "//NP\\\\VP"), 1); // VP with NP descendant
        assert_eq!(count(&w, "//Det\\NP"), 2); // NP parents of Det
        assert_eq!(count(&w, "//S//N"), 3);
    }

    #[test]
    fn horizontal_closures_and_or_self() {
        let c = fig1();
        let w = Walker::new(&c);
        // following-or-self of V at V: includes V itself.
        assert_eq!(count(&w, "//V->*V"), 1);
        assert_eq!(count(&w, "//V->*_"), 12); // V + 11 followers
        assert_eq!(count(&w, "//V-->_"), 11);
        // immediate preceding of NP6 is V.
        assert_eq!(names(&c, &w, "//NP<-_[@lex=saw]"), ["V"]);
        // preceding-sibling closure.
        assert_eq!(count(&w, "//N<==Adj"), 1);
        assert_eq!(count(&w, "//N<=Adj"), 1);
        assert_eq!(count(&w, "//N<==Det"), 2);
        // Only in "a dog" is the Det adjacent to the N ("the old man"
        // has Adj in between).
        assert_eq!(count(&w, "//N<=Det"), 1);
    }

    #[test]
    fn alignment_against_whole_tree_by_default() {
        let c = fig1();
        let w = Walker::new(&c);
        // ^NP: NPs starting at the sentence's left edge → NP2 ("I").
        assert_eq!(count(&w, "//^NP"), 1);
        // $N: N at the right edge → N(today).
        assert_eq!(count(&w, "//N$"), 1);
        // Within VP scope, $ moves to VP's right edge.
        assert_eq!(count(&w, "//VP{//N$}"), 1); // N13 (dog)
    }

    #[test]
    fn position_and_last() {
        let c = fig1();
        let w = Walker::new(&c);
        // The XPath circumlocution for immediate-following-sibling
        // (paper §2.2.1) gives the same answer as `=>`.
        assert_eq!(
            count(&w, "//V/following-sibling::_[position()=1][self::NP]"),
            count(&w, "//V=>NP"),
        );
        // Rightmost child of VP, XPath style (paper §2.2.3 example).
        assert_eq!(count(&w, "//VP/_[last()][self::NP]"), 1);
        // Reverse axis numbering: nearest ancestor first.
        assert_eq!(names(&c, &w, "//Prep\\ancestor::_[position()=1]"), ["PP"]);
    }

    #[test]
    fn putative_xpath_edge_alignment_differs() {
        let c = fig1();
        let w = Walker::new(&c);
        // Paper §2.2.3: the putative XPath //VP//_[last()][self::NP]
        // picks the doc-order-last descendant of VP (N13 "dog"), fails
        // the self::NP check, and returns ∅ — while the edge-alignment
        // query //VP{//NP$} returns {NP6, NP11}. Exactly the paper's
        // demonstration that `$` is not expressible with position().
        assert_eq!(count(&w, "//VP//_[last()][self::NP]"), 0);
        assert_eq!(count(&w, "//VP{//NP$}"), 2);
    }

    #[test]
    fn scoping_confines_predicates() {
        let c = fig1();
        let w = Walker::new(&c);
        // V whose following N exists … scoped: today is outside VP.
        assert_eq!(count(&w, "//VP{/V[-->N[@lex=today]]}"), 0);
        assert_eq!(count(&w, "//S{/VP/V[-->N[@lex=today]]}"), 1);
    }

    #[test]
    fn predicate_boolean_logic() {
        let c = fig1();
        let w = Walker::new(&c);
        assert_eq!(count(&w, "//NP[//Det and //Adj]"), 2); // NP6, NP7
        assert_eq!(count(&w, "//NP[//Det or //Adj]"), 3); // + NP11
        assert_eq!(count(&w, "//NP[not(//Det)]"), 1); // only NP2 ("I")
        assert_eq!(count(&w, "//NP[not(//ZZZ)]"), 4); // vacuous negation
    }

    #[test]
    fn attribute_steps() {
        let c = fig1();
        let w = Walker::new(&c);
        assert_eq!(count(&w, "//_[@lex=saw]"), 1);
        assert_eq!(count(&w, "//_[@lex]"), 9); // all terminals
        assert_eq!(count(&w, "//_[@lex!=saw]"), 8);
        assert_eq!(count(&w, "//_[@missing]"), 0);
        assert_eq!(count(&w, "//_[@lex=nonexistent]"), 0);
    }

    #[test]
    fn relative_evaluation_from_node() {
        let c = fig1();
        let w = Walker::new(&c);
        // VP is node 2 in preorder (S=0, NP=1, VP=2).
        let vp = NodeId(2);
        let q = parse("V").unwrap();
        assert_eq!(w.eval_from(0, vp, &q).len(), 1);
        let q = parse("//N").unwrap(); // absolute: ignores context
        assert_eq!(w.eval_from(0, vp, &q).len(), 3);
    }

    #[test]
    fn multi_tree_corpus() {
        let src = format!("{FIG1}\n{FIG1}");
        let c = parse_str(&src).unwrap();
        let w = Walker::new(&c);
        let q = parse("//V->NP").unwrap();
        let results = w.eval(&q);
        assert_eq!(results.len(), 4);
        assert_eq!(results.iter().filter(|(t, _)| *t == 0).count(), 2);
        assert_eq!(results.iter().filter(|(t, _)| *t == 1).count(), 2);
    }

    #[test]
    fn counts_park_at_tree_boundaries_and_sum_to_the_count() {
        let src: String = std::iter::repeat_n(FIG1, 5).collect::<Vec<_>>().join("\n");
        let c = parse_str(&src).unwrap();
        let w = Walker::new(&c);
        for q in ["//NP", "//V->NP", "//VP/_[last()]", "//ZZZ"] {
            let query = parse(q).unwrap();
            for budget in 1..4 {
                let (mut sum, mut tree) = (0, 0);
                loop {
                    let (n, next) = w.count_resume(&query, tree, budget);
                    sum += n;
                    match next {
                        Some(t) => {
                            assert!(t > tree && n >= budget as u64, "{q}");
                            tree = t;
                        }
                        None => break,
                    }
                }
                assert_eq!(sum as usize, w.count(&query), "{q} budget {budget}");
            }
        }
    }

    #[test]
    fn exists_and_eval_limit_agree_with_full_evaluation() {
        let src: String = std::iter::repeat_n(FIG1, 9).collect::<Vec<_>>().join("\n");
        let c = parse_str(&src).unwrap();
        let w = Walker::new(&c);
        for q in ["//V->NP", "//VP{//NP$}", "//NP[not(//Det)]", "//ZZZ"] {
            let query = parse(q).unwrap();
            let full = w.eval(&query);
            assert_eq!(w.exists(&query), !full.is_empty(), "{q}");
            for (offset, limit) in [(0, 0), (0, 3), (2, 4), (full.len(), 2), (999, 1), (0, 999)] {
                let want: Vec<(u32, NodeId)> =
                    full.iter().skip(offset).take(limit).copied().collect();
                assert_eq!(
                    w.eval_limit(&query, offset, limit),
                    want,
                    "{q} {offset}/{limit}"
                );
            }
        }
    }

    #[test]
    fn eval_resume_concatenation_is_exact_at_every_boundary() {
        let src: String = std::iter::repeat_n(FIG1, 9).collect::<Vec<_>>().join("\n");
        let c = parse_str(&src).unwrap();
        let w = Walker::new(&c);
        for q in ["//V->NP", "//VP/_[last()]", "//NP[not(//Det)]", "//ZZZ"] {
            let query = parse(q).unwrap();
            let full = w.eval(&query);
            for split in 1..=full.len() {
                let (head, next) = w.eval_resume(&query, Position::START, split);
                assert_eq!(head, full[..split], "{q} split {split}");
                let at = next.expect("a full page parks");
                let (tail, end) = w.eval_resume(&query, at, usize::MAX);
                assert_eq!(tail, full[split..], "{q} split {split}");
                assert!(end.is_none(), "{q} split {split}");
            }
            // Page-at-a-time sweep.
            let (mut got, mut at) = (Vec::new(), Position::START);
            loop {
                let (rows, next) = w.eval_resume(&query, at, 2);
                got.extend(rows);
                match next {
                    Some(p) => at = p,
                    None => break,
                }
            }
            assert_eq!(got, full, "{q} sweep");
        }
    }

    #[test]
    fn every_position_pages_a_suffix() {
        let src: String = std::iter::repeat_n(FIG1, 3).collect::<Vec<_>>().join("\n");
        let c = parse_str(&src).unwrap();
        let w = Walker::new(&c);
        for q in ["//NP", "//VP/_[last()]", "//ZZZ"] {
            let query = parse(q).unwrap();
            let full = w.eval(&query);
            for tree in 0..5 {
                for skip in [0, 1, 3, u32::MAX] {
                    let first = full.iter().position(|m| m.0 >= tree).unwrap_or(full.len());
                    let in_tree = full[first..].iter().take_while(|m| m.0 == tree).count();
                    let from = first + (skip as usize).min(in_tree);
                    let (rows, _) = w.eval_resume(&query, Position { tree, skip }, usize::MAX);
                    assert_eq!(rows, full[from..], "{q} at ({tree}, {skip})");
                }
            }
        }
    }

    #[test]
    fn empty_results_are_empty() {
        let c = fig1();
        let w = Walker::new(&c);
        assert_eq!(count(&w, "//ZZZ"), 0);
        assert_eq!(count(&w, "//NP/ZZZ"), 0);
        assert_eq!(count(&w, "//S\\_"), 0); // root has no parent element
    }
}
