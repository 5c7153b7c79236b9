//! A small CDCL SAT solver for the equivalence-checking pass.
//!
//! Hand-rolled, dependency-free (per the workspace policy), and deliberately
//! minimal: two-watched-literal propagation, first-UIP conflict analysis with
//! local clause minimization, VSIDS-style activity decisions with phase
//! saving, Luby restarts, and solving under assumptions. There is no clause
//! deletion *inside* the solver — every call runs under a *conflict budget*,
//! which bounds both time and learned-clause memory, and budget exhaustion
//! returns [`Verdict::Unknown`] rather than a wrong answer. The prover treats
//! `Unknown` as "not proved", never as "proved", so the solver being cut off
//! can cost completeness but never soundness. Long-running callers keep the
//! clause database lean from outside instead: [`Solver::num_clauses`] exposes
//! the growth and [`Solver::level0_facts`] the derived top-level units, so a
//! caller can rebuild a fresh solver from its own permanent clauses plus the
//! harvested facts once learned garbage accumulates.
//!
//! # Layout
//!
//! The search is defined by a reference solver kept for the tests
//! (`sat/reference.rs`): one `Vec<Lit>` per clause, `Option<bool>` per
//! variable, every clause on the same watch path. This solver runs the
//! same search — every decision, propagation order, learned clause and
//! model — over a layout that reads less memory per propagation:
//!
//! - **values per literal**: one byte per literal (true, false or
//!   undefined), so a literal's value is a single load with no polarity
//!   fix-up;
//! - **a flat clause arena**: each clause is a length header followed by
//!   its literals in one `Vec`, and a clause reference is the header's
//!   offset;
//! - **binary clauses watched inline**: a binary watcher carries the
//!   clause's other literal, so visiting it reads no clause memory. The
//!   reference order of a binary clause (implied literal first, false
//!   literal second) is written to the arena only when the clause
//!   enqueues or conflicts, the only times conflict analysis reads it;
//! - **`(activity, var)` heap entries**: the decision heap compares
//!   activities held in its own entries, rescaled together with the side
//!   array, with the same strict comparisons as before.
//!
//! Long clauses carry **no blocker literal**. A blocker that is true lets
//! a watcher be skipped without touching the clause, but the reference
//! moves a watch whenever its first literal is not true; a stale blocker
//! would keep a watch that the reference moves, and every later watch
//! list, propagation order and conflict would differ.

/// A boolean variable, densely numbered from 0.
pub type Var = u32;

/// A literal: a variable with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The literal `var` (positive) or `¬var` (negative).
    pub fn new(var: Var, negative: bool) -> Lit {
        Lit(var << 1 | u32::from(negative))
    }

    /// The positive literal of `var`.
    pub fn pos(var: Var) -> Lit {
        Lit::new(var, false)
    }

    /// The negative literal of `var`.
    pub fn neg(var: Var) -> Lit {
        Lit::new(var, true)
    }

    /// This literal's variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// Whether this is the negative polarity.
    pub fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A satisfying assignment was found (readable via [`Solver::model_value`]).
    Sat,
    /// The formula is unsatisfiable under the given assumptions.
    Unsat,
    /// The conflict budget ran out before a verdict was reached.
    Unknown,
}

const NO_REASON: u32 = u32::MAX;

/// Per-literal values.
const TRUE: u8 = 0;
const FALSE: u8 = 1;
const UNDEF: u8 = 2;

/// The `other` literal of a long-clause watcher.
const LONG: Lit = Lit(u32::MAX);

/// A watch-list entry: the clause's arena offset and, for a binary
/// clause, its other literal ([`LONG`] otherwise).
#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: u32,
    other: Lit,
}

/// A decision-heap entry: the variable's activity, kept equal to
/// `Solver::activity`, beside the variable.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    act: f64,
    var: Var,
}

const NOT_IN_HEAP: u32 = u32::MAX;

/// Cumulative search statistics, for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts encountered across all `solve` calls.
    pub conflicts: u64,
    /// Decisions made across all `solve` calls.
    pub decisions: u64,
    /// Unit propagations performed across all `solve` calls.
    pub propagations: u64,
    /// Restarts performed across all `solve` calls.
    pub restarts: u64,
    /// Clauses learned across all `solve` calls.
    pub learned: u64,
}

impl std::ops::AddAssign for SolverStats {
    fn add_assign(&mut self, o: SolverStats) {
        self.conflicts += o.conflicts;
        self.decisions += o.decisions;
        self.propagations += o.propagations;
        self.restarts += o.restarts;
        self.learned += o.learned;
    }
}

/// The CDCL solver. Clauses are added incrementally at decision level 0;
/// [`Solver::solve`] may be called repeatedly with different assumptions and
/// budgets, and learned clauses persist across calls.
#[derive(Debug)]
pub struct Solver {
    /// Every attached clause: a length header (the length in a `Lit`'s
    /// raw word) followed by the literals.
    arena: Vec<Lit>,
    num_clauses: usize,
    /// Per-literal watch lists; `watches[l]` holds the clauses in which `¬l`
    /// is one of the two watched literals (so they must be visited when `l`
    /// becomes true).
    watches: Vec<Vec<Watch>>,
    /// Per-literal value: [`TRUE`], [`FALSE`] or [`UNDEF`].
    values: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<HeapEntry>,
    heap_pos: Vec<u32>,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// The clause being learned, reused across conflicts.
    learnt: Vec<Lit>,
    ok: bool,
    model: Vec<bool>,
    stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// An empty solver with no variables or clauses.
    pub fn new() -> Solver {
        Solver {
            arena: Vec::new(),
            num_clauses: 0,
            watches: Vec::new(),
            values: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            learnt: Vec::new(),
            ok: true,
            model: Vec::new(),
            stats: SolverStats::default(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Number of attached clauses (problem and learned; unit clauses are
    /// enqueued directly and not counted).
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Seeds the cumulative statistics, so a caller rebuilding a solver
    /// can carry the counters over instead of resetting them.
    pub fn adopt_stats(&mut self, stats: SolverStats) {
        self.stats = stats;
    }

    /// The literals assigned at decision level 0.
    ///
    /// Between `solve` calls these are consequences of the clause set
    /// alone (no assumptions), so they are theorems the caller may
    /// re-assert after rebuilding a solver.
    pub fn level0_facts(&self) -> &[Lit] {
        let end = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        &self.trail[..end]
    }

    /// Creates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = self.level.len() as Var;
        self.values.push(UNDEF);
        self.values.push(UNDEF);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_pos.push(NOT_IN_HEAP);
        self.heap_insert(v);
        v
    }

    fn value(&self, l: Lit) -> u8 {
        self.values[l.index()]
    }

    /// The literals of the clause at arena offset `ci`.
    fn lits(&self, ci: u32) -> &[Lit] {
        let base = ci as usize + 1;
        &self.arena[base..base + self.arena[ci as usize].0 as usize]
    }

    /// Adds a clause (at decision level 0). Returns `false` if the clause
    /// set became unsatisfiable at the top level.
    ///
    /// # Panics
    ///
    /// Panics if called while the solver is not at decision level 0 or a
    /// literal names a variable that was never created.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(self.trail_lim.is_empty(), "add_clause above level 0");
        if !self.ok {
            return false;
        }
        // Simplify: drop false literals, drop the clause if any literal is
        // true, dedupe, and detect tautologies.
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            assert!((l.var() as usize) < self.num_vars(), "unknown variable");
            match self.value(l) {
                TRUE => return true,
                FALSE => {}
                _ => {
                    if c.contains(&!l) {
                        return true;
                    }
                    if !c.contains(&l) {
                        c.push(l);
                    }
                }
            }
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(c[0], NO_REASON);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach(&c);
                true
            }
        }
    }

    /// Appends a clause of two or more literals to the arena and watches
    /// its first two; returns its arena offset.
    fn attach(&mut self, lits: &[Lit]) -> u32 {
        let ci = u32::try_from(self.arena.len())
            .ok()
            .filter(|&ci| ci != NO_REASON)
            .expect("clause arena exceeds u32 offsets");
        self.arena.push(Lit(lits.len() as u32));
        self.arena.extend_from_slice(lits);
        // A binary watcher carries the other literal; a long one none.
        let other = |k: usize| if lits.len() == 2 { lits[k] } else { LONG };
        self.watches[(!lits[0]).index()].push(Watch {
            cref: ci,
            other: other(1),
        });
        self.watches[(!lits[1]).index()].push(Watch {
            cref: ci,
            other: other(0),
        });
        self.num_clauses += 1;
        ci
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert!(self.value(l) == UNDEF);
        let v = l.var() as usize;
        self.values[l.index()] = TRUE;
        self.values[(!l).index()] = FALSE;
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Propagates until fixpoint; returns the conflicting clause offset, if
    /// any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // The list is out of `watches` while it is scanned: a moved
            // watch always goes to another literal's list.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut confl = None;
            let mut i = 0;
            'watch: while i < ws.len() {
                let Watch { cref, other } = ws[i];
                let base = cref as usize + 1;
                if other != LONG {
                    let v = self.value(other);
                    if v != TRUE {
                        // Analysis reads the clause only as a reason or a
                        // conflict: give it the reference order now.
                        self.arena[base] = other;
                        self.arena[base + 1] = false_lit;
                        if v == FALSE {
                            confl = Some(cref);
                            break;
                        }
                        self.enqueue(other, cref);
                    }
                    i += 1;
                    continue;
                }
                // Normalize so the false watched literal is in slot 1.
                if self.arena[base] == false_lit {
                    self.arena.swap(base, base + 1);
                }
                let first = self.arena[base];
                if self.value(first) == TRUE {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.arena[cref as usize].0 as usize;
                for k in 2..len {
                    let lk = self.arena[base + k];
                    if self.value(lk) != FALSE {
                        self.arena.swap(base + 1, base + k);
                        debug_assert!(!lk != p, "a clause repeats a literal");
                        self.watches[(!lk).index()].push(Watch { cref, other: LONG });
                        ws.swap_remove(i);
                        continue 'watch;
                    }
                }
                // No new watch: the clause is unit or conflicting.
                if self.value(first) == FALSE {
                    confl = Some(cref);
                    break;
                }
                self.enqueue(first, cref);
                i += 1;
            }
            self.watches[p.index()] = ws;
            if confl.is_some() {
                self.qhead = self.trail.len();
                return confl;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        let v = v as usize;
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            for e in &mut self.heap {
                e.act *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        let pos = self.heap_pos[v];
        if pos != NOT_IN_HEAP {
            self.heap[pos as usize].act = self.activity[v];
            self.heap_up(pos as usize);
        }
    }

    /// First-UIP conflict analysis. Leaves the learned clause (asserting
    /// literal first) in `self.learnt` and returns the backtrack level.
    fn analyze(&mut self, confl: u32) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::pos(0)); // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl;
        let mut trail_ix = self.trail.len();
        let cur_level = self.trail_lim.len() as u32;
        loop {
            let start = usize::from(p.is_some());
            let base = confl as usize + 1;
            let len = self.arena[confl as usize].0 as usize;
            for k in start..len {
                let q = self.arena[base + k];
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next seen literal on the trail.
            loop {
                trail_ix -= 1;
                if self.seen[self.trail[trail_ix].var() as usize] {
                    break;
                }
            }
            let q = self.trail[trail_ix];
            self.seen[q.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !q;
                break;
            }
            p = Some(q);
            confl = self.reason[q.var() as usize];
            debug_assert!(confl != NO_REASON);
        }
        // Local minimization: drop literals whose reason clause is entirely
        // subsumed by the rest of the learned clause.
        for l in &learnt {
            self.seen[l.var() as usize] = true;
        }
        let mut kept = 1;
        for k in 1..learnt.len() {
            let l = learnt[k];
            let r = self.reason[l.var() as usize];
            let redundant = r != NO_REASON
                && self.lits(r).iter().all(|&q| {
                    q.var() == l.var()
                        || self.seen[q.var() as usize]
                        || self.level[q.var() as usize] == 0
                });
            if !redundant {
                // Swap, not overwrite: a dropped literal stays in the list
                // until its mark is cleared below.
                learnt.swap(kept, k);
                kept += 1;
            }
        }
        for l in &learnt {
            self.seen[l.var() as usize] = false;
        }
        learnt.truncate(kept);
        let back_level = learnt[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        self.learnt = learnt;
        back_level
    }

    fn cancel_until(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("non-empty");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("non-empty");
                let v = l.var() as usize;
                self.phase[v] = !l.is_negative();
                self.values[l.index()] = UNDEF;
                self.values[(!l).index()] = UNDEF;
                self.reason[v] = NO_REASON;
                if self.heap_pos[v] == NOT_IN_HEAP {
                    self.heap_insert(v as Var);
                }
            }
        }
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            if self.value(Lit::pos(v)) == UNDEF {
                return Some(Lit::new(v, !self.phase[v as usize]));
            }
        }
        None
    }

    /// Solves under `assumptions` with a conflict budget.
    ///
    /// Returns [`Verdict::Sat`] with a model, [`Verdict::Unsat`] if
    /// unsatisfiable under the assumptions, or [`Verdict::Unknown`] once
    /// `budget` conflicts have been spent in this call.
    pub fn solve(&mut self, assumptions: &[Lit], budget: u64) -> Verdict {
        if !self.ok {
            return Verdict::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return Verdict::Unsat;
        }
        let mut conflicts_here = 0u64;
        let mut restart_ix = 0u32;
        let mut restart_lim = 64 * luby(restart_ix);
        let mut conflicts_since_restart = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                conflicts_since_restart += 1;
                if self.trail_lim.is_empty() {
                    self.ok = false;
                    return Verdict::Unsat;
                }
                // A conflict inside the assumption prefix means the
                // assumptions themselves are inconsistent with the clauses.
                if self.trail_lim.len() <= assumptions.len() {
                    // Only if every decision so far was an assumption.
                    let assumed = self.trail_lim.iter().enumerate().all(|(k, &lim)| {
                        self.trail
                            .get(lim)
                            .is_some_and(|&d| k < assumptions.len() && d == assumptions[k])
                    });
                    if assumed {
                        self.cancel_until(0);
                        return Verdict::Unsat;
                    }
                }
                let back_level = self.analyze(confl);
                self.cancel_until(back_level);
                self.stats.learned += 1;
                let asserting = self.learnt[0];
                if self.learnt.len() == 1 {
                    self.cancel_until(0);
                    match self.value(asserting) {
                        FALSE => {
                            self.ok = false;
                            return Verdict::Unsat;
                        }
                        UNDEF => self.enqueue(asserting, NO_REASON),
                        _ => {}
                    }
                } else {
                    let learnt = std::mem::take(&mut self.learnt);
                    let ci = self.attach(&learnt);
                    self.learnt = learnt;
                    self.enqueue(asserting, ci);
                }
                self.var_inc /= 0.95;
                if conflicts_here >= budget {
                    self.cancel_until(0);
                    return Verdict::Unknown;
                }
                if conflicts_since_restart >= restart_lim {
                    self.stats.restarts += 1;
                    restart_ix += 1;
                    restart_lim = 64 * luby(restart_ix);
                    conflicts_since_restart = 0;
                    self.cancel_until(0);
                }
            } else {
                // Assumption decisions come first, in order.
                let dl = self.trail_lim.len();
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.value(a) {
                        TRUE => {
                            // Already implied: open an empty decision level
                            // so assumption indexing stays aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        FALSE => {
                            self.cancel_until(0);
                            return Verdict::Unsat;
                        }
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.stats.decisions += 1;
                            self.enqueue(a, NO_REASON);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => {
                        self.model = self.values.iter().step_by(2).map(|&v| v == TRUE).collect();
                        self.cancel_until(0);
                        return Verdict::Sat;
                    }
                    Some(l) => {
                        self.trail_lim.push(self.trail.len());
                        self.stats.decisions += 1;
                        self.enqueue(l, NO_REASON);
                    }
                }
            }
        }
    }

    /// The value of `var` in the most recent satisfying assignment.
    ///
    /// Only meaningful after a [`Verdict::Sat`] result.
    pub fn model_value(&self, var: Var) -> bool {
        self.model.get(var as usize).copied().unwrap_or(false)
    }

    // ---- activity heap (binary max-heap with position index) ----

    fn heap_insert(&mut self, v: Var) {
        debug_assert!(self.heap_pos[v as usize] == NOT_IN_HEAP);
        self.heap.push(HeapEntry {
            act: self.activity[v as usize],
            var: v,
        });
        let ix = self.heap.len() - 1;
        self.heap_pos[v as usize] = ix as u32;
        self.heap_up(ix);
    }

    /// Moves the entry at `ix` up past every parent of strictly lower
    /// activity.
    fn heap_up(&mut self, mut ix: usize) {
        let e = self.heap[ix];
        while ix > 0 {
            let parent = (ix - 1) / 2;
            let pe = self.heap[parent];
            if e.act > pe.act {
                self.heap[ix] = pe;
                self.heap_pos[pe.var as usize] = ix as u32;
                ix = parent;
            } else {
                break;
            }
        }
        self.heap[ix] = e;
        self.heap_pos[e.var as usize] = ix as u32;
    }

    /// Moves the entry at `ix` down below every child of strictly higher
    /// activity, preferring the left child on a tie.
    fn heap_down(&mut self, mut ix: usize) {
        let e = self.heap[ix];
        let n = self.heap.len();
        loop {
            let l = 2 * ix + 1;
            if l >= n {
                break;
            }
            let mut best = ix;
            let mut best_act = e.act;
            if self.heap[l].act > best_act {
                best = l;
                best_act = self.heap[l].act;
            }
            let r = l + 1;
            if r < n && self.heap[r].act > best_act {
                best = r;
            }
            if best == ix {
                break;
            }
            let be = self.heap[best];
            self.heap[ix] = be;
            self.heap_pos[be.var as usize] = ix as u32;
            ix = best;
        }
        self.heap[ix] = e;
        self.heap_pos[e.var as usize] = ix as u32;
    }

    fn heap_pop(&mut self) -> Option<Var> {
        let last = self.heap.pop()?;
        let top = match self.heap.first() {
            Some(&top) => {
                self.heap[0] = last;
                self.heap_down(0);
                top.var
            }
            None => last.var,
        };
        self.heap_pos[top as usize] = NOT_IN_HEAP;
        Some(top)
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, …
fn luby(i: u32) -> u64 {
    let mut k = 1u32;
    while (1u64 << k) < u64::from(i) + 2 {
        k += 1;
    }
    let mut i = u64::from(i);
    let mut size = (1u64 << k) - 1;
    while size > 1 {
        let half = size / 2;
        if i == size - 1 {
            return 1 << (k - 1).min(63);
        }
        if i >= half {
            i -= half;
        }
        size = half;
        k -= 1;
    }
    1
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn pigeonhole(solver: &mut Solver, pigeons: usize, holes: usize) {
        // x[p][h] = pigeon p sits in hole h.
        let vars: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| solver.new_var()).collect())
            .collect();
        for row in &vars {
            let clause: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            assert!(solver.add_clause(&clause));
        }
        for (p1, row1) in vars.iter().enumerate() {
            for row2 in &vars[p1 + 1..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    solver.add_clause(&[Lit::neg(a), Lit::neg(b)]);
                }
            }
        }
    }

    #[test]
    fn pigeonhole_unsat() {
        for holes in 2..6 {
            let mut s = Solver::new();
            pigeonhole(&mut s, holes + 1, holes);
            assert_eq!(s.solve(&[], u64::MAX), Verdict::Unsat);
        }
    }

    #[test]
    fn pigeonhole_exact_fit_sat_with_valid_model() {
        let mut s = Solver::new();
        let pigeons = 4;
        let holes = 4;
        let base = s.num_vars();
        pigeonhole(&mut s, pigeons, holes);
        assert_eq!(s.solve(&[], u64::MAX), Verdict::Sat);
        // Model check: every pigeon has a hole, no hole is shared.
        let at = |p: usize, h: usize| s.model_value((base + p * holes + h) as Var);
        for p in 0..pigeons {
            assert!((0..holes).any(|h| at(p, h)), "pigeon {p} has no hole");
        }
        for h in 0..holes {
            assert!((0..pigeons).filter(|&p| at(p, h)).count() <= 1);
        }
    }

    #[test]
    fn budget_exhaustion_returns_unknown() {
        let mut s = Solver::new();
        // A hard-enough instance that one conflict cannot settle it.
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(&[], 1), Verdict::Unknown);
        // With the budget lifted the verdict is still correct afterwards.
        assert_eq!(s.solve(&[], u64::MAX), Verdict::Unsat);
    }

    #[test]
    fn assumptions_flip_verdict() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        // (a ∨ b) ∧ (¬a ∨ b)
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        assert_eq!(s.solve(&[Lit::neg(b)], u64::MAX), Verdict::Unsat);
        assert_eq!(s.solve(&[Lit::pos(b)], u64::MAX), Verdict::Sat);
        // The solver is reusable after an assumption-unsat.
        assert_eq!(s.solve(&[], u64::MAX), Verdict::Sat);
        assert!(s.model_value(b));
    }

    #[test]
    fn contradictory_assumptions_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(
            s.solve(&[Lit::pos(a), Lit::neg(a)], u64::MAX),
            Verdict::Unsat
        );
    }

    /// Brute-force model counting agreement on random small formulas — the
    /// "proptest" of the issue checklist, with a deterministic seeded
    /// xorshift generator like the rest of the repo.
    #[test]
    fn random_formulas_agree_with_brute_force() {
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..300 {
            let nvars = 3 + (rng() % 18) as usize; // ≤ 20 variables
            let nclauses = 2 + (rng() % (3 * nvars as u64)) as usize;
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..nclauses {
                let len = 1 + (rng() % 3) as usize;
                let mut c = Vec::new();
                for _ in 0..len {
                    let v = (rng() % nvars as u64) as Var;
                    c.push(Lit::new(v, rng() & 1 == 1));
                }
                clauses.push(c);
            }
            let brute_sat = (0u32..1 << nvars).any(|assign| {
                clauses.iter().all(|c| {
                    c.iter()
                        .any(|l| ((assign >> l.var()) & 1 == 1) != l.is_negative())
                })
            });
            let mut s = Solver::new();
            for _ in 0..nvars {
                s.new_var();
            }
            let mut top_unsat = false;
            for c in &clauses {
                if !s.add_clause(c) {
                    top_unsat = true;
                    break;
                }
            }
            let verdict = if top_unsat {
                Verdict::Unsat
            } else {
                s.solve(&[], u64::MAX)
            };
            let expect = if brute_sat {
                Verdict::Sat
            } else {
                Verdict::Unsat
            };
            assert_eq!(verdict, expect, "round {round} disagrees");
            if verdict == Verdict::Sat {
                // The returned model must actually satisfy every clause.
                for c in &clauses {
                    assert!(
                        c.iter().any(|l| s.model_value(l.var()) != l.is_negative()),
                        "round {round}: model violates a clause"
                    );
                }
            }
        }
    }
}
