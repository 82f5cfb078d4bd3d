//! Expanding subproblems: the bridge between the protocol (which deals only
//! in codes) and the actual B&B computation.
//!
//! Codes are self-contained (§5.3.1), so an [`Expander`] needs nothing but
//! the code (plus the initial problem data it was constructed with) to
//! bound and decompose any subproblem — including subproblems recovered by
//! complementing, which the local process has never seen.

use ftbb_bnb::BranchBound;
use ftbb_tree::{BasicTree, Code, Pair, Var};
use std::fmt;
use std::sync::Arc;

/// Result of expanding one subproblem.
#[derive(Debug, Clone, PartialEq)]
pub struct Expansion {
    /// Seconds of compute consumed by bounding + decomposing.
    pub cost: f64,
    /// This node's (re)computed lower bound.
    pub bound: f64,
    /// Feasible solution value discovered at this node, if any.
    pub solution: Option<f64>,
    /// Children produced by decomposition; `None` for a leaf.
    pub children: Option<ChildPair>,
}

/// The two children created by a Decompose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildPair {
    /// The branching variable.
    pub var: Var,
    /// Left child's (branch 0) lower bound.
    pub left_bound: f64,
    /// Right child's (branch 1) lower bound.
    pub right_bound: f64,
}

/// Bound + decompose subproblems identified by tree codes.
pub trait Expander {
    /// Expand the subproblem with this code. Must be deterministic, and must
    /// succeed for any code reachable in the problem's tree (panics on
    /// foreign codes are acceptable — they indicate protocol corruption).
    fn expand(&mut self, code: &Code) -> Expansion;

    /// The root problem's lower bound (to seed the initial pool).
    fn root_bound(&self) -> f64;
}

/// Replays a recorded [`BasicTree`] — the paper's simulation driver (§6.2).
/// The tree is shared (`Arc`) so that every simulated process replays the
/// same workload without copying it.
#[derive(Debug, Clone)]
pub struct TreeExpander {
    tree: Arc<BasicTree>,
    /// Granularity factor applied to recorded costs (§6.2: "we tuned this
    /// granularity by multiplying all time values by a constant factor").
    granularity: f64,
}

impl TreeExpander {
    /// Replay `tree` at granularity 1.
    pub fn new(tree: impl Into<Arc<BasicTree>>) -> Self {
        TreeExpander {
            tree: tree.into(),
            granularity: 1.0,
        }
    }

    /// Replay with a cost multiplier.
    pub fn with_granularity(tree: impl Into<Arc<BasicTree>>, granularity: f64) -> Self {
        assert!(granularity > 0.0 && granularity.is_finite());
        TreeExpander {
            tree: tree.into(),
            granularity,
        }
    }

    /// The replayed tree.
    pub fn tree(&self) -> &BasicTree {
        &self.tree
    }
}

impl Expander for TreeExpander {
    fn expand(&mut self, code: &Code) -> Expansion {
        let id = self
            .tree
            .locate(code)
            .unwrap_or_else(|| panic!("code {code} does not exist in the basic tree"));
        let node = self.tree.node(id);
        let children = node.children.map(|(l, r)| ChildPair {
            var: node.var,
            left_bound: self.tree.node(l).bound,
            right_bound: self.tree.node(r).bound,
        });
        Expansion {
            cost: node.cost * self.granularity,
            bound: node.bound,
            solution: node.solution,
            children,
        }
    }

    fn root_bound(&self) -> f64 {
        self.tree.node(self.tree.root()).bound
    }
}

/// Expands a live [`BranchBound`] problem by rebuilding node state from the
/// code — the "real implementation" path used by the threaded runtime,
/// exercising exactly the self-containedness the paper's encoding promises.
///
/// The expander remembers the path of the last code it expanded, so an
/// expansion replays only the decisions past the longest prefix it shares
/// with that path, and stepping into the last expansion's own children
/// costs nothing. Under depth-first local selection that is usually one
/// step. Codes stay self-contained: a code with nothing in common with the
/// path (one recovered by complementing, say) replays from the root, with
/// every [`BranchBound::step`] check `rebuild` makes. The cache holds
/// O(depth) nodes, and each clone (one per pool worker) keeps its own.
#[derive(Clone)]
pub struct ProblemExpander<P: BranchBound> {
    problem: P,
    path: Path<P::Node>,
}

/// The last expanded path: `nodes[d]` is the node reached by `pairs[..d]`
/// (`nodes[0]` is the root), and `children` is the decomposition of the
/// last node with its branching variable, when that node was expanded and
/// is not a leaf.
#[derive(Clone)]
struct Path<N> {
    pairs: Vec<Pair>,
    nodes: Vec<N>,
    children: Option<(Var, N, N)>,
}

impl<N> Path<N> {
    /// The node `code` names, replaying only what differs from the cached
    /// path and leaving the path at `code`; `None` if `code` does not
    /// replay, with the path cut back to the part that did.
    fn replay<P: BranchBound<Node = N>>(&mut self, problem: &P, code: &Code) -> Option<&N> {
        let shared = self
            .pairs
            .iter()
            .zip(code.pairs())
            .take_while(|(a, b)| **a == *b)
            .count();
        if shared < self.pairs.len() {
            self.pairs.truncate(shared);
            self.nodes.truncate(shared + 1);
            self.children = None;
        }
        for pair in code.pairs().skip(shared) {
            let next = match self.children.take() {
                Some((var, l, r)) if var == pair.var => {
                    if pair.bit {
                        r
                    } else {
                        l
                    }
                }
                _ => problem.step(self.nodes.last().expect("root is cached"), pair)?,
            };
            self.pairs.push(pair);
            self.nodes.push(next);
        }
        self.nodes.last()
    }
}

impl<P: BranchBound> ProblemExpander<P> {
    /// Wrap a problem.
    pub fn new(problem: P) -> Self {
        let root = problem.root();
        ProblemExpander {
            problem,
            path: Path {
                pairs: Vec::new(),
                nodes: vec![root],
                children: None,
            },
        }
    }

    /// The wrapped problem.
    pub fn problem(&self) -> &P {
        &self.problem
    }
}

impl<P: BranchBound + fmt::Debug> fmt::Debug for ProblemExpander<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProblemExpander")
            .field("problem", &self.problem)
            .field("path_depth", &self.path.pairs.len())
            .finish()
    }
}

/// The problem-agnostic expander: a [`ProblemExpander`] over
/// [`ftbb_bnb::AnyInstance`]. This is what deployment harnesses
/// (`ftbb-wire`'s `ftbb-noded`, the threaded runtime) use once the
/// workload has been materialized — whether locally from a spec or from
/// a peer's problem-announce frame — so the whole stack above this line
/// is generic over the problem kind.
pub type AnyExpander = ProblemExpander<ftbb_bnb::AnyInstance>;

impl<P: BranchBound> Expander for ProblemExpander<P> {
    fn expand(&mut self, code: &Code) -> Expansion {
        let problem = &self.problem;
        let node = self
            .path
            .replay(problem, code)
            .unwrap_or_else(|| panic!("code {code} does not replay in this problem"));
        let decomposed = match (problem.branching_var(node), problem.decompose(node)) {
            (Some(var), Some((l, r))) => Some((var, l, r)),
            _ => None,
        };
        let expansion = Expansion {
            cost: problem.cost(node),
            bound: problem.bound(node),
            solution: problem.solution(node),
            children: decomposed.as_ref().map(|(var, l, r)| ChildPair {
                var: *var,
                left_bound: problem.bound(l),
                right_bound: problem.bound(r),
            }),
        };
        self.path.children = decomposed;
        expansion
    }

    fn root_bound(&self) -> f64 {
        self.problem.bound(&self.problem.root())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbb_bnb::{Correlation, KnapsackInstance};
    use ftbb_tree::basic_tree::fig1_example;

    #[test]
    fn tree_expander_replays_fig1() {
        let mut e = TreeExpander::new(fig1_example());
        let root = e.expand(&Code::root());
        assert_eq!(root.bound, 0.0);
        assert_eq!(root.cost, 1.0);
        let kids = root.children.unwrap();
        assert_eq!(kids.var, 1);
        assert_eq!(kids.left_bound, 1.0);
        assert_eq!(kids.right_bound, 2.0);
        // The optimum leaf.
        let leaf = e.expand(&Code::from_decisions(&[(1, false), (2, true)]));
        assert_eq!(leaf.solution, Some(7.0));
        assert!(leaf.children.is_none());
    }

    #[test]
    fn granularity_scales_cost_only() {
        let mut a = TreeExpander::new(fig1_example());
        let mut b = TreeExpander::with_granularity(fig1_example(), 10.0);
        let (ea, eb) = (a.expand(&Code::root()), b.expand(&Code::root()));
        assert_eq!(eb.cost, ea.cost * 10.0);
        assert_eq!(eb.bound, ea.bound);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn foreign_code_panics() {
        let mut e = TreeExpander::new(fig1_example());
        e.expand(&Code::from_decisions(&[(99, true)]));
    }

    /// Shared body: a live expander over `problem` must agree with a
    /// [`TreeExpander`] replaying the tree recorded from that same
    /// problem, on every recorded node (bounds may differ only by the
    /// recorder's monotonicity clamp).
    fn assert_expander_agrees_with_recorder<P>(problem: P)
    where
        P: ftbb_bnb::BranchBound,
        P::Node: Clone,
    {
        let tree = ftbb_bnb::record_basic_tree(&problem, ftbb_bnb::RecordLimits::default())
            .expect("recordable instance");
        let mut live = ProblemExpander::new(problem);
        let mut replay = TreeExpander::new(tree.clone());
        for id in (0..tree.len() as u32).step_by(7) {
            let code = tree.code_of(id);
            let a = live.expand(&code);
            let b = replay.expand(&code);
            assert_eq!(a.children.map(|c| c.var), b.children.map(|c| c.var));
            assert_eq!(a.solution, b.solution);
            assert!(a.bound <= b.bound + 1e-9);
        }
        assert_eq!(live.root_bound(), replay.root_bound());
    }

    #[test]
    fn problem_expander_agrees_with_recorder() {
        assert_expander_agrees_with_recorder(KnapsackInstance::generate(
            10,
            30,
            Correlation::Uncorrelated,
            0.5,
            3,
        ));
    }

    #[test]
    fn problem_expander_agrees_with_recorder_maxsat() {
        // MAX-SAT branches on a *dynamically chosen* variable, so this
        // additionally checks that recorded ⟨var, value⟩ codes replay
        // through rebuild() when branching order differs across subtrees.
        assert_expander_agrees_with_recorder(ftbb_bnb::MaxSatInstance::generate(8, 22, 6));
    }

    #[test]
    fn problem_expander_agrees_with_recorder_recorded_tree() {
        // A recorded tree wrapped back into a BranchBound problem and
        // re-recorded: the round trip must be exact (the tree path has no
        // bound clamp to hide behind).
        let k = KnapsackInstance::generate(9, 25, Correlation::Weak, 0.5, 8);
        let tree = ftbb_bnb::record_basic_tree(&k, ftbb_bnb::RecordLimits::default()).unwrap();
        assert_expander_agrees_with_recorder(ftbb_bnb::BasicTreeProblem::new(tree));
    }

    /// `a` and `b` are the same expansion, every f64 compared bitwise.
    fn assert_bitwise_eq(a: &Expansion, b: &Expansion, code: &Code) {
        let bits = |e: &Expansion| {
            (
                e.cost.to_bits(),
                e.bound.to_bits(),
                e.solution.map(f64::to_bits),
                e.children
                    .map(|c| (c.var, c.left_bound.to_bits(), c.right_bound.to_bits())),
            )
        };
        assert_eq!(bits(a), bits(b), "expansions differ at {code}");
    }

    /// Expand `stream` with one reused expander and with a fresh one per
    /// code: the path cache must be invisible.
    fn assert_reuse_matches_fresh<P: BranchBound + Clone>(problem: &P, stream: &[Code]) {
        assert!(!stream.is_empty());
        let mut reused = ProblemExpander::new(problem.clone());
        for code in stream {
            let fresh = ProblemExpander::new(problem.clone()).expand(code);
            assert_bitwise_eq(&reused.expand(code), &fresh, code);
        }
    }

    /// The codes a sequential solve under `rule` expands, in order.
    /// `DepthFirst` is the protocol's local selection rule.
    fn solve_stream<P: BranchBound>(problem: &P, rule: ftbb_bnb::SelectRule) -> Vec<Code> {
        let mut stream = Vec::new();
        let config = ftbb_bnb::SolveConfig {
            rule,
            ..Default::default()
        };
        ftbb_bnb::solve_observed(problem, &config, |code, _| stream.push(code.clone()));
        stream
    }

    /// A random walk over `problem`'s whole tree that jumps to the root,
    /// to ancestors, to siblings, to anywhere, and down into codes that
    /// extend the current one.
    fn shuffled_stream<P: BranchBound>(problem: &P, seed: u64, len: usize) -> Vec<Code> {
        use rand::{Rng, SeedableRng};
        let tree = ftbb_bnb::record_basic_tree(problem, ftbb_bnb::RecordLimits::default())
            .expect("recordable instance");
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut at = tree.root();
        let mut stream = Vec::with_capacity(len);
        while stream.len() < len {
            at = match rng.gen_range(0..6u32) {
                0 => tree.root(),
                1 => {
                    let up = rng.gen_range(1..=tree.depth_of(at).max(1));
                    (0..up).fold(at, |id, _| tree.node(id).parent.map_or(id, |(p, _)| p))
                }
                2 => match tree.node(at).parent {
                    Some((p, bit)) => {
                        let (l, r) = tree.node(p).children.expect("a parent branches");
                        if bit {
                            l
                        } else {
                            r
                        }
                    }
                    None => at,
                },
                3 => rng.gen_range(0..tree.len() as u32),
                _ => {
                    let down = rng.gen_range(1..=3);
                    (0..down).fold(at, |id, _| match tree.node(id).children {
                        Some((l, r)) => {
                            if rng.gen_bool(0.5) {
                                r
                            } else {
                                l
                            }
                        }
                        None => id,
                    })
                }
            };
            stream.push(tree.code_of(at));
        }
        stream
    }

    /// Every stream shape over one problem.
    fn assert_cache_is_invisible<P: BranchBound + Clone>(problem: P) {
        use ftbb_bnb::SelectRule;
        assert_reuse_matches_fresh(&problem, &solve_stream(&problem, SelectRule::DepthFirst));
        assert_reuse_matches_fresh(&problem, &solve_stream(&problem, SelectRule::BestFirst));
        assert_reuse_matches_fresh(&problem, &shuffled_stream(&problem, 7, 600));
    }

    #[test]
    fn reused_expander_matches_fresh_knapsack() {
        assert_cache_is_invisible(KnapsackInstance::generate(
            14,
            60,
            Correlation::Strong,
            0.5,
            4,
        ));
    }

    #[test]
    fn reused_expander_matches_fresh_maxsat() {
        assert_cache_is_invisible(ftbb_bnb::MaxSatInstance::generate(10, 36, 5));
    }

    #[test]
    fn reused_expander_matches_fresh_recorded_tree() {
        let k = KnapsackInstance::generate(9, 25, Correlation::Weak, 0.5, 8);
        let tree = ftbb_bnb::record_basic_tree(&k, ftbb_bnb::RecordLimits::default()).unwrap();
        assert_cache_is_invisible(ftbb_bnb::BasicTreeProblem::new(tree));
    }

    /// An expander warmed by a depth-first stream and left on the deepest
    /// code that branches, with that code's children.
    fn warm_knapsack() -> (ProblemExpander<KnapsackInstance>, ChildPair) {
        let k = KnapsackInstance::generate(12, 40, Correlation::Uncorrelated, 0.5, 3);
        let stream = solve_stream(&k, ftbb_bnb::SelectRule::DepthFirst);
        let mut e = ProblemExpander::new(k);
        let mut deepest: Option<(usize, Code)> = None;
        for code in &stream {
            if e.expand(code).children.is_some()
                && deepest.as_ref().is_none_or(|(d, _)| code.depth() > *d)
            {
                deepest = Some((code.depth(), code.clone()));
            }
        }
        let (_, code) = deepest.expect("the stream branches");
        let children = e.expand(&code).children.expect("branches");
        (e, children)
    }

    #[test]
    #[should_panic(expected = "does not replay")]
    fn foreign_variable_panics_after_the_path_is_warm() {
        // Diverge at the root on the cached children's variable: once the
        // path is cut back, those children must not be reused.
        let (mut e, cached) = warm_knapsack();
        assert_ne!(
            Some(cached.var),
            e.problem().branching_var(&e.problem().root())
        );
        e.expand(&Code::root().child(cached.var, false));
    }

    #[test]
    #[should_panic(expected = "does not replay")]
    fn foreign_child_of_the_cached_node_panics() {
        // The step into the last expansion's children must still check
        // the variable: extend the cached path with a wrong one.
        let (mut e, _) = warm_knapsack();
        let root = e.expand(&Code::root());
        let wrong = root.children.expect("root branches").var + 1;
        e.expand(&Code::root().child(wrong, true));
    }

    #[test]
    #[should_panic(expected = "does not replay")]
    fn descent_past_a_cached_leaf_panics() {
        let (mut e, _) = warm_knapsack();
        let leaf = solve_stream(e.problem(), ftbb_bnb::SelectRule::DepthFirst)
            .into_iter()
            .find(|c| e.expand(c).children.is_none())
            .expect("the stream reaches a leaf");
        e.expand(&leaf.child(0, false));
    }

    #[test]
    fn any_expander_dispatches_all_variants() {
        use ftbb_bnb::AnyInstance;
        let k = KnapsackInstance::generate(10, 30, Correlation::Uncorrelated, 0.5, 3);
        let tree = ftbb_bnb::record_basic_tree(&k, ftbb_bnb::RecordLimits::default()).unwrap();
        let variants: Vec<AnyInstance> = vec![
            k.into(),
            ftbb_bnb::MaxSatInstance::generate(8, 22, 6).into(),
            tree.into(),
        ];
        for any in variants {
            assert_expander_agrees_with_recorder(any);
        }
    }
}
