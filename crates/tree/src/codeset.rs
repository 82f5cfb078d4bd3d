//! Contracting sets of completed subproblem codes (§5.3.2).
//!
//! Every process keeps a *table* of the completed problems it knows about.
//! The table is a trie over decision pairs with two rewrite rules applied
//! eagerly on insertion:
//!
//! 1. **Sibling contraction** — the codes of two completed siblings are
//!    replaced by their parent's code ("the completion of a parent node
//!    implies the completion of its children"), recursively.
//! 2. **Ancestor subsumption** — a code whose ancestor is already completed
//!    is redundant and dropped.
//!
//! Termination detection (§5.4) falls out for free: the computation is done
//! exactly when contraction produces the root code ([`CodeSet::is_root_done`]).
//!
//! ## Arena layout
//!
//! The trie lives in a flat arena of node *words*, one per node, instead
//! of per-node `Box` allocations. A node's entire hot state is its word:
//! [`EMPTY`] (unexplored branch), [`DONE`] (completed subtree), or the
//! base index of its child pair — the two children are allocated
//! together as adjacent slots, the child for branch bit `b` at
//! `base + b`. Branching variables live in a parallel array (`vars[i]`,
//! valid iff word `i` holds a pair base) that only the cold walks
//! (minimal codes, complement) and debug assertions read. That buys
//! three things:
//!
//! - the descent in `contains`/`insert` is one dependent word load and
//!   one compare per level — the word *is* the next index;
//! - siblings always share a cache line, so the contraction check
//!   (both children done?) and the complement walk pay for one line;
//! - the hot data is small enough to live in cache while reports and
//!   gossip stream through it.
//!
//! The word width adapts to the table: arenas start with `u16` words
//! (a 20k-node table is ~40 KiB of hot data — L1-resident) and migrate
//! once, in place, to `u32` words if the table ever needs more than
//! 64Ki slots ([`Arena`] is generic over the width; indices are
//! preserved by the migration). A pair may have only one real child;
//! the unused slot stays [`EMPTY`] and reads as an absent branch
//! everywhere. The hot operations are pure index walks over contiguous
//! memory — `contains` on the grant path and `insert`/`merge` on the
//! report/gossip path never allocate per node. Pairs vacated by
//! contraction or subsumption go onto a free list (of pair bases) and
//! are reused by later inserts, so a long-running table recycles its
//! own storage; [`CodeSet::memory_bytes`] reports the real arena
//! footprint (capacity, not just live slots). Insertion is iterative:
//! the descent records the walked path, contraction walks it back
//! upward — no recursion, no per-insert allocation once the scratch is
//! warm — and the recorded walk persists between inserts so the next
//! code fast-forwards over the prefix it shares with the previous one
//! using plain pair compares instead of arena loads (reports arrive in
//! depth-first bursts from a finished subtree, so consecutive codes
//! typically diverge only near the leaf). Producers that run per report
//! flush have `_into` variants ([`CodeSet::minimal_codes_into`],
//! [`CodeSet::complement_into`]) that write into caller-owned buffers
//! instead of allocating fresh `Vec<Code>`s.

use crate::code::{Code, Pair, PairsKind, Var};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Node word: an unexplored branch (and the unused half of a pair
/// whose sibling carries the real child) — reads as absent everywhere.
const EMPTY: u32 = 0;
/// Node word: the entire subtree below this position is completed.
const DONE: u32 = 1;
/// The root's arena slot; never freed.
const ROOT: u32 = 0;
/// Lowest valid pair base: slot 0 is the root and slot 1 a permanent
/// pad, so no base ever collides with the [`EMPTY`]/[`DONE`] sentinels
/// and any word `>= FIRST_BASE` is a child-pair base.
const FIRST_BASE: u32 = 2;

/// A storage width for arena node words. The arena starts narrow
/// (`u16`) and widens to `u32` when it outgrows [`ArenaWord::LIMIT`].
trait ArenaWord: Copy {
    /// Maximum slot count this width can address.
    const LIMIT: usize;
    fn of(v: u32) -> Self;
    fn get(self) -> u32;
}

impl ArenaWord for u16 {
    const LIMIT: usize = u16::MAX as usize;
    #[inline]
    fn of(v: u32) -> u16 {
        debug_assert!(v <= u16::MAX as u32);
        v as u16
    }
    #[inline]
    fn get(self) -> u32 {
        self as u32
    }
}

impl ArenaWord for u32 {
    const LIMIT: usize = u32::MAX as usize;
    #[inline]
    fn of(v: u32) -> u32 {
        v
    }
    #[inline]
    fn get(self) -> u32 {
        self
    }
}

/// Outcome of merging codes into a [`CodeSet`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Codes that added new information.
    pub inserted: usize,
    /// Codes already covered by the table (redundant gossip).
    pub already_known: usize,
    /// Number of sibling contractions triggered.
    pub contractions: usize,
}

impl MergeOutcome {
    /// Total codes processed.
    pub fn processed(&self) -> usize {
        self.inserted + self.already_known
    }

    fn absorb(&mut self, other: MergeOutcome) {
        self.inserted += other.inserted;
        self.already_known += other.already_known;
        self.contractions += other.contractions;
    }
}

/// The flat trie storage at one word width; all structural operations
/// live here, generic over the width, so the narrow and wide arenas
/// share one implementation.
#[derive(Clone)]
struct Arena<W> {
    /// The arena of node words; slot [`ROOT`] is the root, slot 1 a
    /// pad, child pairs follow.
    nodes: Vec<W>,
    /// Branching variable per slot, parallel to `nodes`; `vars[i]` is
    /// valid iff word `i` holds a pair base. Read only by cold walks.
    vars: Vec<Var>,
    /// Vacated pair bases awaiting reuse.
    free: Vec<u32>,
    /// Live arena slots (for storage accounting).
    node_count: usize,
    /// The previous insert's still-valid walk: `path[i]` is the
    /// interior node at depth `i` and `prev_pairs[i]` the decision
    /// taken there. Consecutive inserts (a worker reporting a subtree
    /// it finished depth-first) share long prefixes; the next insert
    /// fast-forwards over the match with plain pair compares — no
    /// arena loads — and resumes the descent at the divergence point.
    /// Contraction pops entries it retires, so the recorded walk never
    /// names a freed node.
    path: Vec<u32>,
    prev_pairs: Vec<Pair>,
    /// Reusable stack for iterative subtree frees.
    free_stack: Vec<u32>,
}

impl<W: ArenaWord> Arena<W> {
    fn new() -> Self {
        Arena {
            nodes: vec![W::of(EMPTY); FIRST_BASE as usize],
            vars: vec![0; FIRST_BASE as usize],
            free: Vec::new(),
            node_count: 1,
            path: Vec::new(),
            prev_pairs: Vec::new(),
            free_stack: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.resize(FIRST_BASE as usize, W::of(EMPTY));
        self.vars.clear();
        self.vars.resize(FIRST_BASE as usize, 0);
        self.free.clear();
        self.node_count = 1;
        // The recorded walk points into the dropped structure.
        self.path.clear();
        self.prev_pairs.clear();
    }

    #[inline]
    fn word(&self, idx: u32) -> u32 {
        debug_assert!((idx as usize) < self.nodes.len());
        // SAFETY: arena indices are only minted by `alloc_pair` (always
        // below `nodes.len()`), the arena never shrinks while indices
        // are live (`clear` drops all of them together), and every
        // caller tests for the sentinels before descending. Skipping
        // the bounds check keeps the descent — a chain of dependent
        // loads — free of per-level check uops; the debug assertion
        // keeps the invariant enforced under `cargo test`.
        unsafe { self.nodes.get_unchecked(idx as usize).get() }
    }

    #[inline]
    fn set_word(&mut self, idx: u32, w: u32) {
        debug_assert!((idx as usize) < self.nodes.len());
        // SAFETY: as in `word` above.
        unsafe { *self.nodes.get_unchecked_mut(idx as usize) = W::of(w) }
    }

    #[inline]
    fn set_var_at(&mut self, idx: u32, var: Var) {
        debug_assert!((idx as usize) < self.vars.len());
        // SAFETY: `vars` always has the same length as `nodes`.
        unsafe { *self.vars.get_unchecked_mut(idx as usize) = var }
    }

    /// Take a child pair from the free list or grow the arena by two
    /// adjacent slots; returns the pair's base index. The caller
    /// guarantees the arena stays within `W::LIMIT` (the width upgrade
    /// in [`CodeSet::insert`] runs before any walk starts).
    fn alloc_pair(&mut self) -> u32 {
        self.node_count += 2;
        match self.free.pop() {
            Some(base) => {
                self.nodes[base as usize] = W::of(EMPTY);
                self.nodes[base as usize + 1] = W::of(EMPTY);
                base
            }
            None => {
                let base = self.nodes.len() as u32;
                debug_assert!(self.nodes.len() + 2 <= W::LIMIT);
                // One growth check for both slots of the pair.
                self.nodes.extend_from_slice(&[W::of(EMPTY), W::of(EMPTY)]);
                self.vars.extend_from_slice(&[0, 0]);
                base
            }
        }
    }

    /// Return one child pair to the free list.
    #[inline]
    fn free_pair(&mut self, base: u32) {
        self.free.push(base);
        self.node_count -= 2;
    }

    /// Return the pair at `base` and every pair below it to the free list.
    fn free_subtree(&mut self, base: u32) {
        let mut stack = std::mem::take(&mut self.free_stack);
        debug_assert!(stack.is_empty());
        stack.push(base);
        while let Some(b) = stack.pop() {
            for slot in [b, b + 1] {
                let w = self.word(slot);
                if w >= FIRST_BASE {
                    stack.push(w);
                }
            }
            self.free.push(b);
            self.node_count -= 2;
        }
        self.free_stack = stack;
    }

    #[inline]
    fn contains_walk(&self, pairs: impl Iterator<Item = Pair>) -> bool {
        // One word load and one compare per level: the node word either
        // is a sentinel — answering for both "unknown branch"
        // ([`EMPTY`]) and "covered by ancestor" ([`DONE`]) — or *is*
        // the base of the next level's pair.
        let mut w = self.word(ROOT);
        for p in pairs {
            if w < FIRST_BASE {
                return w == DONE;
            }
            w = self.word(w + p.bit as u32);
        }
        w == DONE
    }

    fn insert_walk(&mut self, mut pairs: impl Iterator<Item = Pair>) -> MergeOutcome {
        let mut out = MergeOutcome::default();
        debug_assert_eq!(self.path.len(), self.prev_pairs.len());

        // Fast-forward over the prefix shared with the previous insert:
        // matching levels cost one pair compare each — no arena loads,
        // no dependent-load chain. Reports arrive in depth-first bursts
        // from a finished subtree, so consecutive codes typically agree
        // on all but the last level or two.
        let mut level = 0usize;
        let mut pending: Option<Pair> = None;
        for p in pairs.by_ref() {
            if level < self.path.len() && self.prev_pairs[level] == p {
                level += 1;
            } else {
                pending = Some(p);
                break;
            }
        }
        self.path.truncate(level);
        self.prev_pairs.truncate(level);
        // Resume at the node the recorded walk reached below the match:
        // the child of the last matched interior (the root if nothing
        // matched). Entries never name freed nodes — contraction pops
        // what it retires — so the one load here is into live structure.
        let mut idx = match level {
            0 => ROOT,
            _ => {
                let parent = self.path[level - 1];
                let base = self.word(parent);
                debug_assert!(base >= FIRST_BASE, "recorded walk entries stay interior");
                base + self.prev_pairs[level - 1].bit as u32
            }
        };

        // Descend the existing structure — one word load per level;
        // interior nodes already carry their variable, so nothing is
        // written until the walk leaves known territory. An empty slot
        // reads as an absent branch and turns into the head of the
        // fresh chain. Each level extends the recorded walk for the
        // contraction walk-back and the next insert's fast-forward.
        let mut covered = false;
        let mut leave_at = None;
        loop {
            let w = self.word(idx);
            if w < FIRST_BASE {
                // Off the hot interior loop: completed ancestor, or the
                // frontier where the fresh chain starts.
                if w == DONE {
                    covered = true;
                } else {
                    leave_at = pending.take().or_else(|| pairs.next());
                }
                break;
            }
            let Some(p) = pending.take().or_else(|| pairs.next()) else {
                // The target itself: an interior node about to be
                // completed (its subtree gets freed below).
                break;
            };
            debug_assert!(
                self.vars[idx as usize] == p.var,
                "inconsistent branching variable in code set (corrupt code?)"
            );
            self.path.push(idx);
            self.prev_pairs.push(p);
            idx = w + p.bit as u32;
        }

        if let (false, Some(first)) = (covered, leave_at) {
            // Grow a fresh chain for the remaining suffix. A fresh
            // pair's unused slot is empty (not done), so fresh levels
            // can never contract — the walk-back below sees the empty
            // sibling and stops — but they do join the recorded walk so
            // the next insert can resume deep inside the new subtree.
            let mut p = first;
            loop {
                self.path.push(idx);
                self.prev_pairs.push(p);
                let base = self.alloc_pair();
                self.set_word(idx, base);
                self.set_var_at(idx, p.var);
                idx = base + p.bit as u32;
                match pairs.next() {
                    Some(next) => p = next,
                    None => break,
                }
            }
        }

        if covered {
            // An ancestor (or the slot itself) is already done: redundant.
            out.already_known = 1;
        } else {
            // Mark the slot done, dropping any now-subsumed subtree.
            let w = self.word(idx);
            if w >= FIRST_BASE {
                self.free_subtree(w);
            }
            self.set_word(idx, DONE);
            out.inserted = 1;

            // Sibling contraction, walking the recorded path upward.
            // The pair's two slots are adjacent: one cache line checks
            // both children. Entries are popped only when actually
            // contracted, so the surviving walk stays valid for the
            // next insert's fast-forward.
            while let Some(&parent) = self.path.last() {
                let base = self.word(parent);
                debug_assert!(base >= FIRST_BASE, "path entries always have children");
                if self.word(base) != DONE || self.word(base + 1) != DONE {
                    break;
                }
                self.path.pop();
                // Done nodes have no children: freeing the pair is O(1).
                self.free_pair(base);
                self.set_word(parent, DONE);
                out.contractions += 1;
            }
            self.prev_pairs.truncate(self.path.len());
        }

        out
    }

    fn collect_done(&self, idx: u32, path: &mut Vec<Pair>, out: &mut Vec<Code>) {
        let w = self.word(idx);
        if w == DONE {
            out.push(path.iter().copied().collect());
            return;
        }
        if w == EMPTY {
            return;
        }
        let var = self.vars[idx as usize];
        for bit in [false, true] {
            let kid = w + bit as u32;
            if self.word(kid) != EMPTY {
                path.push(Pair { var, bit });
                self.collect_done(kid, path, out);
                path.pop();
            }
        }
    }

    fn collect_complement(&self, idx: u32, path: &mut Vec<Pair>, out: &mut Vec<Code>) {
        let w = self.word(idx);
        debug_assert!(
            w >= FIRST_BASE,
            "complement only recurses into interior nodes"
        );
        let var = self.vars[idx as usize];
        for bit in [false, true] {
            let kid = w + bit as u32;
            match self.word(kid) {
                EMPTY => {
                    // This whole branch is unknown territory.
                    path.push(Pair { var, bit });
                    out.push(path.iter().copied().collect());
                    path.pop();
                }
                DONE => {}
                _ => {
                    path.push(Pair { var, bit });
                    self.collect_complement(kid, path, out);
                    path.pop();
                }
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<W>()
            + self.vars.capacity() * std::mem::size_of::<Var>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

/// The two arena widths a table can be in. Tables start narrow and
/// widen once, permanently, if they outgrow `u16` indexing.
#[derive(Clone)]
enum Storage {
    Narrow(Arena<u16>),
    Wide(Arena<u32>),
}

/// Dispatch a body over whichever width the arena currently has.
macro_rules! on_arena {
    ($storage:expr, $a:ident => $body:expr) => {
        match $storage {
            Storage::Narrow($a) => $body,
            Storage::Wide($a) => $body,
        }
    };
}

/// A set of completed codes, kept contracted at all times.
#[derive(Clone, Serialize, Deserialize)]
#[serde(into = "Vec<Code>", from = "Vec<Code>")]
pub struct CodeSet {
    storage: Storage,
    /// Lifetime counters.
    total_inserts: u64,
    total_contractions: u64,
}

impl Default for CodeSet {
    fn default() -> Self {
        CodeSet::new()
    }
}

impl CodeSet {
    /// An empty table.
    pub fn new() -> Self {
        CodeSet {
            storage: Storage::Narrow(Arena::new()),
            total_inserts: 0,
            total_contractions: 0,
        }
    }

    /// Reset to an empty table, retaining the arena's capacity (and
    /// width) — for reusable compression scratch sets.
    pub fn clear(&mut self) {
        on_arena!(&mut self.storage, a => a.clear());
        self.total_inserts = 0;
        self.total_contractions = 0;
    }

    /// Is the whole tree completed? (The termination condition, §5.4.)
    pub fn is_root_done(&self) -> bool {
        on_arena!(&self.storage, a => a.word(ROOT) == DONE)
    }

    /// Is `code`'s subtree known completed (directly or via an ancestor)?
    #[inline]
    pub fn contains(&self, code: &Code) -> bool {
        on_arena!(&self.storage, a => {
            // A sentinel root answers for every code without a walk:
            // the common end-game state (root done) makes the grant
            // path's containment probe a single load.
            let w = a.word(ROOT);
            if w < FIRST_BASE {
                return w == DONE;
            }
            match code.pairs_kind() {
                PairsKind::Inline(it) => a.contains_walk(it),
                PairsKind::Spill(it) => a.contains_walk(it),
            }
        })
    }

    /// Insert one completed code. Returns the merge outcome for this code.
    #[inline]
    pub fn insert(&mut self, code: &Code) -> MergeOutcome {
        self.total_inserts += 1;

        // Widen the arena up front if this insert could outgrow `u16`
        // indexing (worst case: one fresh pair per decision). Indices
        // are preserved, so the walk below is width-agnostic.
        if let Storage::Narrow(a) = &self.storage {
            if a.free.len() < code.depth()
                && a.nodes.len() + 2 * (code.depth() - a.free.len()) > <u16 as ArenaWord>::LIMIT
            {
                self.widen();
            }
        }

        let out = on_arena!(&mut self.storage, a => match code.pairs_kind() {
            PairsKind::Inline(it) => a.insert_walk(it),
            PairsKind::Spill(it) => a.insert_walk(it),
        });
        self.total_contractions += out.contractions as u64;
        out
    }

    /// Migrate the narrow arena to `u32` words, preserving indices.
    /// Runs at most once per table lifetime (`clear` keeps the width).
    fn widen(&mut self) {
        if let Storage::Narrow(a) = &mut self.storage {
            self.storage = Storage::Wide(Arena {
                nodes: a.nodes.iter().map(|w| w.get()).collect(),
                vars: std::mem::take(&mut a.vars),
                free: std::mem::take(&mut a.free),
                node_count: a.node_count,
                // Indices survive the migration, so the recorded walk
                // stays valid too.
                path: std::mem::take(&mut a.path),
                prev_pairs: std::mem::take(&mut a.prev_pairs),
                free_stack: Vec::new(),
            });
        }
    }

    /// Merge many codes (e.g. a received work report). Returns the combined
    /// outcome; `contractions` is the total contraction work performed, used
    /// by the simulator to charge list-contraction time.
    pub fn merge<'a>(&mut self, codes: impl IntoIterator<Item = &'a Code>) -> MergeOutcome {
        let mut total = MergeOutcome::default();
        for c in codes {
            total.absorb(self.insert(c));
        }
        total
    }

    /// Merge another set (by its minimal codes).
    pub fn merge_set(&mut self, other: &CodeSet) -> MergeOutcome {
        let codes = other.minimal_codes();
        self.merge(codes.iter())
    }

    /// The minimal (contracted) codes covering everything completed: done
    /// nodes are maximal by construction.
    pub fn minimal_codes(&self) -> Vec<Code> {
        let mut out = Vec::new();
        self.minimal_codes_into(&mut out);
        out
    }

    /// [`Self::minimal_codes`] into a caller-owned buffer (cleared first) —
    /// the allocation-free report/gossip producer.
    pub fn minimal_codes_into(&self, out: &mut Vec<Code>) {
        out.clear();
        let mut path: Vec<Pair> = Vec::new();
        on_arena!(&self.storage, a => a.collect_done(ROOT, &mut path, out));
    }

    /// The minimal codes covering the *uncompleted* space — the complement
    /// used by failure recovery (§5.3.2). Empty iff the root is done. If the
    /// table is empty, the complement is the root code itself.
    pub fn complement(&self) -> Vec<Code> {
        let mut out = Vec::new();
        self.complement_into(&mut out);
        out
    }

    /// [`Self::complement`] into a caller-owned buffer (cleared first).
    pub fn complement_into(&self, out: &mut Vec<Code>) {
        out.clear();
        on_arena!(&self.storage, a => match a.word(ROOT) {
            DONE => {}
            EMPTY => out.push(Code::root()),
            _ => {
                let mut path: Vec<Pair> = Vec::new();
                a.collect_complement(ROOT, &mut path, out);
            }
        });
    }

    /// Number of live arena slots.
    pub fn node_count(&self) -> usize {
        on_arena!(&self.storage, a => a.node_count)
    }

    /// Resident memory of the table, in bytes (the paper's storage-space
    /// metric): the arena's real footprint — allocated slots and the free
    /// list — not just the live nodes.
    pub fn memory_bytes(&self) -> usize {
        on_arena!(&self.storage, a => a.memory_bytes())
    }

    /// Bytes needed to ship the whole table in a message (table gossip).
    pub fn wire_size(&self) -> usize {
        2 + self
            .minimal_codes()
            .iter()
            .map(|c| c.wire_size())
            .sum::<usize>()
    }

    /// Lifetime number of insert operations.
    pub fn total_inserts(&self) -> u64 {
        self.total_inserts
    }

    /// Lifetime number of contractions performed.
    pub fn total_contractions(&self) -> u64 {
        self.total_contractions
    }

    /// True when nothing has been completed yet.
    pub fn is_empty(&self) -> bool {
        on_arena!(&self.storage, a => a.word(ROOT) == EMPTY)
    }

    /// Test-only: total arena slots currently allocated (live + vacated).
    #[cfg(test)]
    fn arena_slots(&self) -> usize {
        on_arena!(&self.storage, a => a.nodes.len())
    }

    /// Test-only: arena slot capacity.
    #[cfg(test)]
    fn arena_capacity(&self) -> usize {
        on_arena!(&self.storage, a => a.nodes.capacity())
    }

    /// Test-only: vacated pair bases awaiting reuse.
    #[cfg(test)]
    fn free_pairs(&self) -> usize {
        on_arena!(&self.storage, a => a.free.len())
    }

    /// Test-only: has the arena widened to `u32` words?
    #[cfg(test)]
    fn is_wide(&self) -> bool {
        matches!(self.storage, Storage::Wide(_))
    }
}

impl PartialEq for CodeSet {
    fn eq(&self, other: &Self) -> bool {
        self.minimal_codes() == other.minimal_codes()
    }
}
impl Eq for CodeSet {}

impl fmt::Debug for CodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.minimal_codes()).finish()
    }
}

impl From<Vec<Code>> for CodeSet {
    fn from(codes: Vec<Code>) -> Self {
        let mut s = CodeSet::new();
        s.merge(codes.iter());
        s
    }
}

impl From<CodeSet> for Vec<Code> {
    fn from(s: CodeSet) -> Vec<Code> {
        s.minimal_codes()
    }
}

/// Compress a list of completed codes into its minimal contracted form —
/// the work-report compression of §5.3.2. A protocol process never holds
/// the raw list: it inserts each completion into a [`CodeSet`] as it
/// happens and ships the set's minimal codes, which are exactly this.
pub fn compress(codes: &[Code]) -> Vec<Code> {
    let mut set = CodeSet::new();
    set.merge(codes);
    set.minimal_codes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(dec: &[(Var, bool)]) -> Code {
        Code::from_decisions(dec)
    }

    #[test]
    fn empty_set() {
        let s = CodeSet::new();
        assert!(s.is_empty());
        assert!(!s.is_root_done());
        assert!(s.minimal_codes().is_empty());
        assert_eq!(s.complement(), vec![Code::root()]);
        assert!(!s.contains(&c(&[(1, false)])));
        assert_eq!(s.node_count(), 1);
    }

    #[test]
    fn single_insert() {
        let mut s = CodeSet::new();
        let code = c(&[(1, false), (2, true)]);
        let out = s.insert(&code);
        assert_eq!(out.inserted, 1);
        assert_eq!(out.contractions, 0);
        assert!(s.contains(&code));
        assert!(!s.contains(&c(&[(1, false)])));
        // Descendants of a completed code are contained.
        assert!(s.contains(&c(&[(1, false), (2, true), (7, false)])));
        assert_eq!(s.minimal_codes(), vec![code]);
    }

    #[test]
    fn sibling_contraction() {
        let mut s = CodeSet::new();
        s.insert(&c(&[(1, false), (2, false)]));
        let out = s.insert(&c(&[(1, false), (2, true)]));
        assert_eq!(out.contractions, 1);
        // The pair contracted to the parent.
        assert_eq!(s.minimal_codes(), vec![c(&[(1, false)])]);
        assert!(s.contains(&c(&[(1, false)])));
    }

    #[test]
    fn recursive_contraction_to_root() {
        // Figure 1's tree: completing all four leaves contracts to the root.
        let mut s = CodeSet::new();
        s.insert(&c(&[(1, false), (2, false)]));
        s.insert(&c(&[(1, false), (2, true)]));
        assert!(!s.is_root_done());
        s.insert(&c(&[(1, true), (3, true)]));
        let out = s.insert(&c(&[(1, true), (3, false)]));
        // Contracts x3-pair -> (x1,1), then x1-pair -> root.
        assert_eq!(out.contractions, 2);
        assert!(s.is_root_done());
        assert_eq!(s.minimal_codes(), vec![Code::root()]);
        assert!(s.complement().is_empty());
        // Everything is contained now.
        assert!(s.contains(&c(&[(9, true), (4, false)])));
        // Root-done table is a single node.
        assert_eq!(s.node_count(), 1);
    }

    #[test]
    fn ancestor_subsumes_descendant() {
        let mut s = CodeSet::new();
        s.insert(&c(&[(1, false)]));
        let out = s.insert(&c(&[(1, false), (2, true)]));
        assert_eq!(out.already_known, 1);
        assert_eq!(out.inserted, 0);
        assert_eq!(s.minimal_codes(), vec![c(&[(1, false)])]);
    }

    #[test]
    fn descendants_deleted_when_ancestor_inserted() {
        let mut s = CodeSet::new();
        s.insert(&c(&[(1, false), (2, true), (5, false)]));
        s.insert(&c(&[(1, false), (2, false)]));
        let before = s.node_count();
        // Now complete (x1,0) directly: both deep entries become redundant.
        s.insert(&c(&[(1, false)]));
        assert_eq!(s.minimal_codes(), vec![c(&[(1, false)])]);
        assert!(s.node_count() < before);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut s = CodeSet::new();
        // Build a deep chain, then subsume it from near the root.
        s.insert(&c(&[(1, false), (2, false), (3, false), (4, false)]));
        let arena_high = s.arena_slots();
        s.insert(&c(&[(1, false)]));
        assert!(s.free_pairs() > 0, "contraction vacated slots");
        // New growth on the other side reuses vacated slots: the arena
        // does not grow while the free list feeds allocs.
        s.insert(&c(&[(1, true), (7, false), (8, true)]));
        assert_eq!(s.arena_slots(), arena_high);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut s = CodeSet::new();
        for i in 0..8u32 {
            s.insert(&c(&[(1, i & 1 != 0), (2, i & 2 != 0), (3, i & 4 != 0)]));
        }
        let cap = s.arena_capacity();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.node_count(), 1);
        assert_eq!(s.total_inserts(), 0);
        assert_eq!(s.arena_capacity(), cap);
        // And it is fully usable again.
        s.insert(&c(&[(3, true)]));
        assert!(s.contains(&c(&[(3, true), (9, false)])));
    }

    #[test]
    fn large_table_widens_and_stays_correct() {
        // Depth-17 codes indexed by a counter's bits, with the last
        // decision's bit pinned to `false` so no pair ever has both
        // children done — nothing contracts, the arena just grows
        // until it outgrows u16 indexing and migrates to u32 words.
        let decisions = |i: u32| -> Vec<(Var, bool)> {
            (0..17u32)
                .map(|j| (j as Var + 1, (i >> j) & 1 != 0))
                .collect()
        };
        let mut s = CodeSet::new();
        assert!(!s.is_wide());
        let mut inserted = Vec::new();
        for i in 0..1u32 << 16 {
            let code = c(&decisions(i));
            assert_eq!(s.insert(&code).inserted, 1);
            inserted.push(code);
            if s.is_wide() {
                break;
            }
        }
        assert!(s.is_wide(), "table growth widens the arena");
        // Semantics survive the migration: everything inserted before
        // and across the width boundary is still contained, minimal.
        for code in &inserted {
            assert!(s.contains(code));
        }
        assert_eq!(s.minimal_codes().len(), inserted.len());
        // Contraction works across the boundary: completing the last
        // code's sibling contracts their pair to the parent.
        let last = inserted.last().unwrap();
        let mut sibling: Vec<Pair> = last.pairs().collect();
        sibling.last_mut().unwrap().bit = true;
        let sib: Vec<(Var, bool)> = sibling.iter().map(|p| (p.var, p.bit)).collect();
        assert!(s.insert(&c(&sib)).contractions >= 1);
        // The two sibling leaves merged into one parent code.
        assert_eq!(s.minimal_codes().len(), inserted.len());
        // Widened tables keep working after clear (width is retained).
        s.clear();
        assert!(s.is_wide());
        assert!(s.is_empty());
        s.insert(&c(&[(7, true)]));
        assert!(s.contains(&c(&[(7, true), (8, false)])));
    }

    #[test]
    fn complement_of_partial_table() {
        let mut s = CodeSet::new();
        s.insert(&c(&[(1, false), (2, true)]));
        let comp = s.complement();
        // Uncovered: (x1,0)(x2,0) and (x1,1).
        assert!(comp.contains(&c(&[(1, false), (2, false)])));
        assert!(comp.contains(&c(&[(1, true)])));
        assert_eq!(comp.len(), 2);
        // Complement and table are disjoint and cover everything:
        for code in &comp {
            assert!(!s.contains(code));
        }
    }

    #[test]
    fn complement_then_complete_closes_root() {
        let mut s = CodeSet::new();
        s.insert(&c(&[(1, false), (2, true), (5, false)]));
        s.insert(&c(&[(1, true)]));
        for code in s.complement() {
            s.insert(&code);
        }
        assert!(s.is_root_done());
    }

    #[test]
    fn into_buffers_reuse_without_stale_contents() {
        let mut s = CodeSet::new();
        s.insert(&c(&[(1, false), (2, true)]));
        let mut buf = vec![Code::root(); 7]; // stale junk
        s.minimal_codes_into(&mut buf);
        assert_eq!(buf, s.minimal_codes());
        s.complement_into(&mut buf);
        assert_eq!(buf, s.complement());
    }

    #[test]
    fn compress_matches_paper_example() {
        // Reports containing both children of (x1,0) plus a deep redundant
        // descendant compress to just (x1,0).
        let raw = vec![
            c(&[(1, false), (2, false)]),
            c(&[(1, false), (2, true), (5, false)]),
            c(&[(1, false), (2, true), (5, true)]),
        ];
        assert_eq!(compress(&raw), vec![c(&[(1, false)])]);
    }

    #[test]
    fn merge_outcome_counts() {
        let mut s = CodeSet::new();
        let batch = [
            c(&[(1, false), (2, false)]),
            c(&[(1, false), (2, true)]),
            c(&[(1, false)]), // redundant after contraction of the first two
        ];
        let out = s.merge(batch.iter());
        assert_eq!(out.already_known, 1);
        assert_eq!(out.inserted, 2);
        assert_eq!(out.contractions, 1);
        assert_eq!(out.processed(), 3);
    }

    #[test]
    fn serde_round_trip_preserves_semantics() {
        let mut s = CodeSet::new();
        s.insert(&c(&[(1, false), (2, true)]));
        s.insert(&c(&[(1, true), (3, false)]));
        let codes: Vec<Code> = s.clone().into();
        let rebuilt = CodeSet::from(codes);
        assert_eq!(s, rebuilt);
    }

    #[test]
    fn wire_size_shrinks_with_contraction() {
        let mut uncompressed = 0usize;
        let mut s = CodeSet::new();
        for bits in [(false, false), (false, true), (true, false), (true, true)] {
            let code = c(&[(1, bits.0), (2, bits.1)]);
            uncompressed += code.wire_size();
            s.insert(&code);
        }
        // Contracted to root: one empty code.
        assert!(s.wire_size() < uncompressed);
        assert_eq!(s.minimal_codes(), vec![Code::root()]);
    }

    #[test]
    fn double_insert_counts_known() {
        let mut s = CodeSet::new();
        let code = c(&[(4, true)]);
        s.insert(&code);
        let out = s.insert(&code);
        assert_eq!(out.already_known, 1);
        assert_eq!(out.inserted, 0);
    }
}
