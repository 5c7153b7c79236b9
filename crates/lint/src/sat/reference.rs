//! Lockstep tests of the CDCL solver against a reference solver: the
//! straightforward layout the fast solver's search is defined by. Every
//! clause is its own `Vec<Lit>`, values are `Option<bool>` per variable,
//! binary clauses take the long-clause path, and the VSIDS heap compares
//! activities through the side array. Both solvers take the same seeded
//! stream of incremental `add_clause` and `solve` calls, and after every
//! step verdicts, models, every [`SolverStats`] field, `num_clauses` and
//! `level0_facts` must agree exactly.

use super::{luby, Lit, Solver as Fast, SolverStats, Var, Verdict, NO_REASON};

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
}

/// The CDCL solver. Clauses are added incrementally at decision level 0;
/// [`Solver::solve`] may be called repeatedly with different assumptions and
/// budgets, and learned clauses persist across calls.
#[derive(Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// Per-literal watch lists; `watches[l]` holds the clauses in which `¬l`
    /// is one of the two watched literals (so they must be visited when `l`
    /// becomes true).
    watches: Vec<Vec<u32>>,
    assigns: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<Var>,
    heap_pos: Vec<u32>,
    phase: Vec<bool>,
    seen: Vec<bool>,
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
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
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
            ok: true,
            model: Vec::new(),
            stats: SolverStats::default(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Number of attached clauses (problem and learned; unit clauses are
    /// enqueued directly and not counted).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
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
        let v = self.assigns.len() as Var;
        self.assigns.push(None);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_pos.push(u32::MAX);
        self.heap_insert(v);
        v
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assigns[l.var() as usize].map(|b| b != l.is_negative())
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
            assert!((l.var() as usize) < self.assigns.len(), "unknown variable");
            match self.value(l) {
                Some(true) => return true,
                Some(false) => {}
                None => {
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
                self.attach(c);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>) -> u32 {
        let ci = self.clauses.len() as u32;
        self.watches[(!lits[0]).index()].push(ci);
        self.watches[(!lits[1]).index()].push(ci);
        self.clauses.push(Clause { lits });
        ci
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert!(self.value(l).is_none());
        let v = l.var() as usize;
        self.assigns[v] = Some(!l.is_negative());
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Propagates until fixpoint; returns the conflicting clause index, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut i = 0;
            'watch: while i < self.watches[p.index()].len() {
                let ci = self.watches[p.index()][i];
                let false_lit = !p;
                // Normalize so the false watched literal is in slot 1.
                {
                    let lits = &mut self.clauses[ci as usize].lits;
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                }
                let first = self.clauses[ci as usize].lits[0];
                if self.value(first) == Some(true) {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..self.clauses[ci as usize].lits.len() {
                    let lk = self.clauses[ci as usize].lits[k];
                    if self.value(lk) != Some(false) {
                        self.clauses[ci as usize].lits.swap(1, k);
                        self.watches[(!lk).index()].push(ci);
                        self.watches[p.index()].swap_remove(i);
                        continue 'watch;
                    }
                }
                // No new watch: the clause is unit or conflicting.
                if self.value(first) == Some(false) {
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                self.enqueue(first, ci);
                i += 1;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap_update(v);
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl;
        let mut trail_ix = self.trail.len();
        let cur_level = self.trail_lim.len() as u32;
        loop {
            let start = usize::from(p.is_some());
            for k in start..self.clauses[confl as usize].lits.len() {
                let q = self.clauses[confl as usize].lits[k];
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
        let mut kept: Vec<Lit> = vec![learnt[0]];
        for &l in &learnt[1..] {
            let r = self.reason[l.var() as usize];
            let redundant = r != NO_REASON
                && self.clauses[r as usize].lits.iter().all(|&q| {
                    q.var() == l.var()
                        || self.seen[q.var() as usize]
                        || self.level[q.var() as usize] == 0
                });
            if !redundant {
                kept.push(l);
            }
        }
        for l in &learnt {
            self.seen[l.var() as usize] = false;
        }
        let back_level = kept[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        (kept, back_level)
    }

    fn cancel_until(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("non-empty");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("non-empty");
                let v = l.var() as usize;
                self.phase[v] = !l.is_negative();
                self.assigns[v] = None;
                self.reason[v] = NO_REASON;
                if self.heap_pos[v] == u32::MAX {
                    self.heap_insert(v as Var);
                }
            }
        }
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v as usize].is_none() {
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
                let (learnt, back_level) = self.analyze(confl);
                self.cancel_until(back_level);
                self.stats.learned += 1;
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.cancel_until(0);
                    if self.value(asserting) == Some(false) {
                        self.ok = false;
                        return Verdict::Unsat;
                    }
                    if self.value(asserting).is_none() {
                        self.enqueue(asserting, NO_REASON);
                    }
                } else {
                    let ci = self.attach(learnt);
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
                        Some(true) => {
                            // Already implied: open an empty decision level
                            // so assumption indexing stays aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            self.cancel_until(0);
                            return Verdict::Unsat;
                        }
                        None => {
                            self.trail_lim.push(self.trail.len());
                            self.stats.decisions += 1;
                            self.enqueue(a, NO_REASON);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => {
                        self.model = self.assigns.iter().map(|a| a.unwrap_or(false)).collect();
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

    fn heap_less(&self, a: Var, b: Var) -> bool {
        self.activity[a as usize] > self.activity[b as usize]
    }

    fn heap_insert(&mut self, v: Var) {
        debug_assert!(self.heap_pos[v as usize] == u32::MAX);
        self.heap.push(v);
        let ix = self.heap.len() - 1;
        self.heap_pos[v as usize] = ix as u32;
        self.heap_up(ix);
    }

    fn heap_update(&mut self, v: Var) {
        let pos = self.heap_pos[v as usize];
        if pos != u32::MAX {
            self.heap_up(pos as usize);
        }
    }

    fn heap_up(&mut self, mut ix: usize) {
        while ix > 0 {
            let parent = (ix - 1) / 2;
            if self.heap_less(self.heap[ix], self.heap[parent]) {
                self.heap.swap(ix, parent);
                self.heap_pos[self.heap[ix] as usize] = ix as u32;
                self.heap_pos[self.heap[parent] as usize] = parent as u32;
                ix = parent;
            } else {
                break;
            }
        }
    }

    fn heap_down(&mut self, mut ix: usize) {
        loop {
            let l = 2 * ix + 1;
            let r = 2 * ix + 2;
            let mut best = ix;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == ix {
                break;
            }
            self.heap.swap(ix, best);
            self.heap_pos[self.heap[ix] as usize] = ix as u32;
            self.heap_pos[self.heap[best] as usize] = best as u32;
            ix = best;
        }
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top as usize] = u32::MAX;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_down(0);
        }
        Some(top)
    }
}

/// A seeded xorshift stream, as in the solver's other tests.
struct Stream(u64);

impl Stream {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        usize::try_from(self.0 % n as u64).expect("below a usize")
    }

    fn lit(&mut self, vars: usize) -> Lit {
        let v = Var::try_from(self.below(vars)).expect("few variables");
        Lit::new(v, self.below(2) == 1)
    }

    /// A budget of one conflict, a small one, or none.
    fn budget(&mut self) -> u64 {
        match self.below(3) {
            0 => 1,
            1 => 2 + self.below(40) as u64,
            _ => u64::MAX,
        }
    }
}

/// The fast solver and the reference, stepped together.
struct Lockstep {
    fast: Fast,
    reference: Solver,
    steps: usize,
}

impl Lockstep {
    fn new() -> Lockstep {
        Lockstep {
            fast: Fast::default(),
            reference: Solver::default(),
            steps: 0,
        }
    }

    fn new_var(&mut self) {
        let v = self.fast.new_var();
        assert_eq!(v, self.reference.new_var(), "step {}", self.steps);
        self.check();
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        let ok = self.fast.add_clause(lits);
        assert_eq!(
            ok,
            self.reference.add_clause(lits),
            "step {}: {lits:?}",
            self.steps
        );
        self.check();
        ok
    }

    fn solve(&mut self, assumptions: &[Lit], budget: u64) -> Verdict {
        let v = self.fast.solve(assumptions, budget);
        assert_eq!(
            v,
            self.reference.solve(assumptions, budget),
            "step {}: solve under {assumptions:?}, budget {budget}",
            self.steps
        );
        self.check();
        v
    }

    /// Every observable of the two solvers agrees.
    fn check(&mut self) {
        let (f, r) = (&self.fast, &self.reference);
        let step = self.steps;
        assert_eq!(f.stats(), r.stats(), "step {step}: stats");
        assert_eq!(f.num_vars(), r.num_vars(), "step {step}: variables");
        assert_eq!(f.num_clauses(), r.num_clauses(), "step {step}: clauses");
        assert_eq!(
            f.level0_facts(),
            r.level0_facts(),
            "step {step}: level-0 facts"
        );
        for v in 0..=f.num_vars() as Var {
            assert_eq!(
                f.model_value(v),
                r.model_value(v),
                "step {step}: model of {v}"
            );
        }
        self.steps += 1;
    }
}

/// Random incremental streams: an opening batch of random clauses near
/// the 3-SAT threshold, then new variables and clauses of one to six
/// literals (duplicates, tautologies and falsified literals included)
/// interleaved with solves under up to six random assumptions, each with
/// a budget of one conflict, a small one or none.
#[test]
fn fast_solver_matches_reference_on_incremental_streams() {
    let mut rng = Stream(0x5eed_0f5a_7c0d_e5ed);
    let instances = if cfg!(debug_assertions) { 200 } else { 1_000 };
    let (mut sat, mut unsat, mut unknown, mut conflicts) = (0, 0, 0, 0);
    for _ in 0..instances {
        let mut s = Lockstep::new();
        let mut vars = 10 + rng.below(50);
        for _ in 0..vars {
            s.new_var();
        }
        let mut live = true;
        let opening = vars * (35 + rng.below(8)) / 10;
        for k in 0..opening + 120 {
            if !live {
                break;
            }
            let step = if k < opening { 1 } else { rng.below(10) };
            match step {
                0 => {
                    s.new_var();
                    vars += 1;
                }
                1..=5 => {
                    let len = match rng.below(40) {
                        _ if k < opening => 3,
                        0 => 1,
                        1..=8 => 2,
                        9..=30 => 3,
                        k => 4 + k % 3,
                    };
                    let lits: Vec<Lit> = (0..len).map(|_| rng.lit(vars)).collect();
                    live = s.add_clause(&lits);
                }
                _ => {
                    let n = rng.below(7);
                    let assumptions: Vec<Lit> = (0..n).map(|_| rng.lit(vars)).collect();
                    match s.solve(&assumptions, rng.budget()) {
                        Verdict::Sat => sat += 1,
                        Verdict::Unsat => unsat += 1,
                        Verdict::Unknown => unknown += 1,
                    }
                }
            }
        }
        conflicts += s.fast.stats().conflicts;
        let carried = SolverStats {
            conflicts: 7,
            decisions: 11,
            propagations: 13,
            restarts: 1,
            learned: 5,
        };
        s.fast.adopt_stats(carried);
        s.reference.adopt_stats(carried);
        s.check();
    }
    assert!(
        sat > 0 && unsat > 0 && unknown > 0 && conflicts > 5 * instances,
        "{sat} sat, {unsat} unsat, {unknown} unknown, {conflicts} conflicts"
    );
}

/// One long-lived pigeonhole instance (nine pigeons, eight holes), hard
/// for resolution, solved again and again under budgets and fresh
/// assumptions: enough conflicts to run through the Luby restarts and the
/// activity rescale (the increment passes 1e100 after about 4 500
/// conflicts), with the learned clauses of every call kept for the next.
#[test]
fn fast_solver_matches_reference_through_restarts_and_rescale() {
    let mut rng = Stream(0x0ddb_a11c_afe0_0001);
    let (pigeons, holes) = (9, 8);
    let vars = pigeons * holes;
    let mut s = Lockstep::new();
    for _ in 0..vars {
        s.new_var();
    }
    let at = |p: usize, h: usize| (p * holes + h) as Var;
    for p in 0..pigeons {
        let row: Vec<Lit> = (0..holes).map(|h| Lit::pos(at(p, h))).collect();
        assert!(s.add_clause(&row));
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                assert!(s.add_clause(&[Lit::neg(at(p1, h)), Lit::neg(at(p2, h))]));
            }
        }
    }
    for _ in 0..100 {
        if s.fast.stats().conflicts >= 6_000 {
            break;
        }
        let n = rng.below(3);
        let assumptions: Vec<Lit> = (0..n).map(|_| rng.lit(vars)).collect();
        s.solve(&assumptions, 300 + rng.below(300) as u64);
    }
    let stats = s.fast.stats();
    assert!(stats.conflicts >= 6_000 && stats.restarts > 0, "{stats:?}");
}
