//! SAT-based combinational equivalence checking: from sampling to proof.
//!
//! For each format mode of a multi-format unit, the netlist is folded
//! into an [`Aig`] under the mode's `frmt` ties, the bit-blasted
//! reference datapath ([`crate::refmodel`]) is built *in the same graph*
//! over the netlist's free operand inputs, and every mode-visible output
//! is mitered (`netlist ⊕ reference`) and discharged by the in-tree
//! CDCL solver ([`crate::sat`]).
//!
//! Three devices keep the cones tractable:
//!
//! - **hash-consing**: the reference construction mirrors the netlist
//!   generators, so structurally identical regions fold to the *same*
//!   AIG node and their miters are constant false before SAT ever runs;
//! - **simulation-guided SAT sweeping**: random 64-pattern rounds give
//!   every node a signature; signature-equal node pairs are proved
//!   equivalent inside-out in topological order and recorded as learned
//!   equality clauses, which reduce the remaining adder-architecture
//!   differences (Kogge–Stone vs ripple, carry-select vs seamed ripple)
//!   to chains of one-bit steps; the model of every failed merge is
//!   simulated at once, with single-input flips of it, so later false
//!   candidates of the same pass are told apart without a SAT call;
//! - **recode-digit case splits**: an output that exhausts its conflict
//!   budget is re-solved under all 16 assignments of the multiplier
//!   digit group with the largest cone support (recursively, up to
//!   [`ProveOptions::split_groups`] groups). A cone that still exhausts
//!   its budget is reported [`ConeVerdict::Unknown`] — never a false
//!   `Proved`.
//!
//! A `Sat` answer is concretized into a [`Counterexample`] and replayed
//! through **both** simulation backends (event-driven and compiled) so a
//! refutation ships with a machine-checked reproduction, not just a SAT
//! model.

use crate::aig::{Aig, Lit, NetlistAig};
use crate::refmodel::{self, AigBits, Mode, RefOutputs};
use crate::sat::{Lit as SatLit, Solver, SolverStats, Var, Verdict};
use crate::ternary;
use crate::units::BuiltUnit;
use mfm_gatesim::{CompiledNetlist, CompiledSim, NetId, Netlist, Simulator};
use mfmult::meta::ModeSpec;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Options controlling the prover.
#[derive(Debug, Clone)]
pub struct ProveOptions {
    /// Total conflict budget per output cone, shared across its
    /// case-split branches.
    pub budget: u64,
    /// Enable simulation-guided SAT sweeping before the output solves.
    pub sweep: bool,
    /// Conflict budget per sweeping merge attempt (each takes two
    /// solver calls). Deliberately small: a candidate pair that is too
    /// hard right now almost always collapses structurally on a later
    /// pass once the merges below it land, so a large first-attempt
    /// budget mostly buys wasted conflicts on premature queries.
    pub sweep_budget: u64,
    /// Initial random 64-pattern simulation rounds for signatures.
    pub rounds: usize,
    /// Maximum sweep passes (each signs its candidate classes with every
    /// counterexample of the passes before it).
    pub refine_limit: usize,
    /// Maximum recode digit groups to case-split on budget exhaustion
    /// (16 branches per group, so at most `16^split_groups` leaves).
    pub split_groups: usize,
    /// Seed for the simulation patterns.
    pub seed: u64,
    /// If set, only outputs whose label starts with one of these
    /// prefixes are proved (e.g. `["flags"]`, `["ph[6"]`).
    pub outputs: Option<Vec<String>>,
    /// If set, only these modes are proved.
    pub modes: Option<Vec<Mode>>,
}

impl Default for ProveOptions {
    fn default() -> ProveOptions {
        ProveOptions {
            budget: 400_000,
            sweep: true,
            sweep_budget: 200,
            rounds: 8,
            refine_limit: 32,
            split_groups: 2,
            seed: 0x6d66_6d5f_7072_6f76,
            outputs: None,
            modes: None,
        }
    }
}

/// The verdict for one output cone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConeVerdict {
    /// The output equals the reference for **all** input assignments.
    Proved,
    /// A concrete input pair distinguishes netlist and reference.
    Refuted,
    /// The conflict budget was exhausted before a proof or refutation.
    Unknown,
}

impl ConeVerdict {
    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ConeVerdict::Proved => "proved",
            ConeVerdict::Refuted => "refuted",
            ConeVerdict::Unknown => "unknown",
        }
    }
}

/// A concrete distinguishing input, replayed on both simulation
/// backends.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Multiplicand operand word.
    pub xa: u64,
    /// Multiplier operand word.
    pub yb: u64,
    /// The `frmt` value of the mode under proof.
    pub frmt: u64,
    /// The refuted output label.
    pub output: String,
    /// The folded netlist's value at the counterexample (AIG side).
    pub netlist_value: bool,
    /// The reference circuit's value at the counterexample.
    pub reference_value: bool,
    /// The event-driven simulator's value at the counterexample.
    pub event_value: bool,
    /// The compiled simulator's value at the counterexample.
    pub compiled_value: bool,
}

impl Counterexample {
    /// `true` when both simulation backends reproduce the AIG's netlist
    /// value and that value differs from the reference — the refutation
    /// is confirmed end to end.
    pub fn confirmed(&self) -> bool {
        self.event_value == self.netlist_value
            && self.compiled_value == self.netlist_value
            && self.netlist_value != self.reference_value
    }
}

/// The result for one output cone.
#[derive(Debug, Clone)]
pub struct ConeResult {
    /// Output label (e.g. `ph[63]`).
    pub output: String,
    /// The verdict.
    pub verdict: ConeVerdict,
    /// Solver conflicts spent on this cone.
    pub conflicts: u64,
    /// Case-split leaves solved (1 when no split was needed).
    pub cases: u32,
    /// The counterexample, when refuted.
    pub cex: Option<Counterexample>,
}

/// The per-mode proof summary.
#[derive(Debug, Clone)]
pub struct ModeReport {
    /// Mode name.
    pub mode: String,
    /// AIG nodes after folding netlist + reference + miters.
    pub aig_nodes: usize,
    /// AND nodes in the shared graph.
    pub aig_ands: usize,
    /// Output miters that folded to constant false (proved by
    /// hash-consing alone, zero SAT conflicts).
    pub structural_proofs: usize,
    /// Sweeping merges proved (equality clauses learned).
    pub merges_proved: usize,
    /// Sweeping candidates refuted by SAT (each model and its flips are
    /// simulated at once and refine the signatures).
    pub merges_refuted: usize,
    /// Sweeping candidates told apart by simulating earlier refutations
    /// of the same pass, with no SAT call.
    pub merges_sim_refuted: usize,
    /// Sweeping attempts abandoned on budget.
    pub merges_unknown: usize,
    /// Simulation signature rounds when the sweep converged.
    pub sim_rounds: usize,
    /// Total solver conflicts for the mode.
    pub conflicts: u64,
    /// The mode's solver counters, summed over every sweep pass, solver
    /// rebuild and output solve (`solver.conflicts` equals `conflicts`).
    /// Not part of [`ProveReport::to_json`].
    pub solver: SolverStats,
    /// Solver rebuilds (a fresh solver from the permanent clauses and the
    /// level-0 facts, dropping every learned clause) over every sweep
    /// pass and output solve. Not part of [`ProveReport::to_json`].
    pub rebuilds: u64,
    /// Per-output results.
    pub cones: Vec<ConeResult>,
}

impl ModeReport {
    /// How many cones carry the given verdict.
    pub fn count(&self, v: ConeVerdict) -> usize {
        self.cones.iter().filter(|c| c.verdict == v).count()
    }
}

/// The whole-unit proof report.
#[derive(Debug, Clone)]
pub struct ProveReport {
    /// Unit name.
    pub unit: String,
    /// One entry per proved mode.
    pub modes: Vec<ModeReport>,
}

impl ProveReport {
    /// Total proved cones.
    pub fn proved(&self) -> usize {
        self.modes
            .iter()
            .map(|m| m.count(ConeVerdict::Proved))
            .sum()
    }

    /// Total refuted cones.
    pub fn refuted(&self) -> usize {
        self.modes
            .iter()
            .map(|m| m.count(ConeVerdict::Refuted))
            .sum()
    }

    /// Total unknown cones.
    pub fn unknown(&self) -> usize {
        self.modes
            .iter()
            .map(|m| m.count(ConeVerdict::Unknown))
            .sum()
    }

    /// Serializes the report as JSON (dependency-free, hand-rolled; all
    /// emitted strings are ASCII identifiers and hex literals).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"unit\":\"{}\",\"proved\":{},\"refuted\":{},\"unknown\":{},\"modes\":[",
            self.unit,
            self.proved(),
            self.refuted(),
            self.unknown()
        );
        for (mi, m) in self.modes.iter().enumerate() {
            if mi > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"mode\":\"{}\",\"aig_nodes\":{},\"aig_ands\":{},\
                 \"structural_proofs\":{},\"merges_proved\":{},\
                 \"merges_refuted\":{},\"merges_sim_refuted\":{},\
                 \"merges_unknown\":{},\"sim_rounds\":{},\"conflicts\":{},\
                 \"proved\":{},\"refuted\":{},\"unknown\":{},\"cones\":[",
                m.mode,
                m.aig_nodes,
                m.aig_ands,
                m.structural_proofs,
                m.merges_proved,
                m.merges_refuted,
                m.merges_sim_refuted,
                m.merges_unknown,
                m.sim_rounds,
                m.conflicts,
                m.count(ConeVerdict::Proved),
                m.count(ConeVerdict::Refuted),
                m.count(ConeVerdict::Unknown)
            );
            for (ci, c) in m.cones.iter().enumerate() {
                if ci > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"output\":\"{}\",\"verdict\":\"{}\",\"conflicts\":{},\"cases\":{}",
                    c.output,
                    c.verdict.name(),
                    c.conflicts,
                    c.cases
                );
                if let Some(cex) = &c.cex {
                    let _ = write!(
                        s,
                        ",\"cex\":{{\"xa\":\"{:#018x}\",\"yb\":\"{:#018x}\",\
                         \"frmt\":{},\"netlist\":{},\"reference\":{},\
                         \"event\":{},\"compiled\":{},\"confirmed\":{}}}",
                        cex.xa,
                        cex.yb,
                        cex.frmt,
                        cex.netlist_value,
                        cex.reference_value,
                        cex.event_value,
                        cex.compiled_value,
                        cex.confirmed()
                    );
                }
                s.push('}');
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The splitmix64 finalizer: a cheap, well-spread 64-bit hash step.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// On-demand Tseitin encoding of AIG cones into the CDCL solver.
///
/// The solver has no internal clause deletion, so the encoder keeps every
/// *permanent* clause (Tseitin definitions and proven equality theorems)
/// on the side and rebuilds a fresh solver — same variable numbering —
/// once learned garbage dominates, harvesting the old solver's level-0
/// facts so derived constants survive the reset.
struct Encoder {
    solver: Solver,
    var_of: Vec<Option<Var>>,
    /// The permanent clauses' literals, back to back.
    permanent: Vec<SatLit>,
    /// Where each permanent clause ends in `permanent`.
    permanent_ends: Vec<usize>,
    /// The level-0 facts harvested at the last rebuild, in trail order.
    unit_facts: Vec<SatLit>,
    /// Solver rebuilds so far.
    rebuilds: u64,
}

/// Learned-clause surplus over the permanent set that triggers a solver
/// rebuild. Low enough to keep watchlists lean, high enough that rebuild
/// time (one clause-database replay) stays negligible. Unit tests use a
/// slack small enough that a `flags` cone rebuilds several times.
const REBUILD_SLACK: usize = if cfg!(test) { 300 } else { 25_000 };

impl Encoder {
    fn new() -> Encoder {
        Encoder {
            solver: Solver::new(),
            var_of: Vec::new(),
            permanent: Vec::new(),
            permanent_ends: Vec::new(),
            unit_facts: Vec::new(),
            rebuilds: 0,
        }
    }

    /// Adds a permanent clause: recorded for replay on rebuild.
    fn clause(&mut self, lits: &[SatLit]) {
        self.permanent.extend_from_slice(lits);
        self.permanent_ends.push(self.permanent.len());
        self.solver.add_clause(lits);
    }

    /// Rebuilds a fresh solver from the permanent clauses once learned
    /// clauses outnumber them by [`REBUILD_SLACK`]. Must be called with
    /// the solver at decision level 0 (it always is between solves).
    fn maybe_rebuild(&mut self) {
        if self.solver.num_clauses() <= self.permanent_ends.len() + REBUILD_SLACK {
            return;
        }
        // The facts re-asserted at the last rebuild sit on this solver's
        // level-0 trail, so the trail alone holds every fact harvested so
        // far, each once, in an order that is the same on every run.
        let facts = self.solver.level0_facts();
        debug_assert!(self.unit_facts.iter().all(|f| facts.contains(f)));
        self.unit_facts = facts.to_vec();
        let num_vars = self.solver.num_vars();
        let mut fresh = Solver::new();
        for _ in 0..num_vars {
            fresh.new_var();
        }
        for &f in &self.unit_facts {
            fresh.add_clause(&[f]);
        }
        let mut start = 0;
        for &end in &self.permanent_ends {
            fresh.add_clause(&self.permanent[start..end]);
            start = end;
        }
        let stats = self.solver.stats();
        fresh.adopt_stats(stats);
        self.solver = fresh;
        self.rebuilds += 1;
    }

    /// The solver variable of an AIG node, encoding its cone if new.
    fn var(&mut self, aig: &Aig, node: usize) -> Var {
        if self.var_of.len() < aig.num_nodes() {
            self.var_of.resize(aig.num_nodes(), None);
        }
        if let Some(v) = self.var_of[node] {
            return v;
        }
        // Iterative DFS so deep ripple chains cannot overflow the stack.
        let mut stack = vec![node];
        while let Some(&n) = stack.last() {
            if self.var_of[n].is_some() {
                stack.pop();
                continue;
            }
            if let Some((a, b)) = aig.and_fanin(n) {
                let mut ready = true;
                for f in [a.node(), b.node()] {
                    if self.var_of[f].is_none() {
                        ready = false;
                        stack.push(f);
                    }
                }
                if !ready {
                    continue;
                }
                stack.pop();
                let v = self.solver.new_var();
                let va = self.lit(a);
                let vb = self.lit(b);
                self.var_of[n] = Some(v);
                // v ↔ va ∧ vb.
                self.clause(&[SatLit::neg(v), va]);
                self.clause(&[SatLit::neg(v), vb]);
                self.clause(&[SatLit::pos(v), !va, !vb]);
            } else {
                stack.pop();
                let v = self.solver.new_var();
                self.var_of[n] = Some(v);
                if n == 0 {
                    // The constant node: forced false.
                    self.clause(&[SatLit::neg(v)]);
                }
            }
        }
        self.var_of[node].expect("just encoded")
    }

    /// The solver literal of an already-encoded AIG literal.
    fn lit(&self, l: Lit) -> SatLit {
        let v = self.var_of[l.node()].expect("fanin encoded before node");
        SatLit::new(v, l.is_complemented())
    }

    /// The solver literal of an AIG literal, encoding its cone if new.
    fn sat_lit(&mut self, aig: &Aig, l: Lit) -> SatLit {
        let v = self.var(aig, l.node());
        SatLit::new(v, l.is_complemented())
    }
}

/// Nodes reachable from any of `roots` (including inputs/constants).
fn cone_marks(aig: &Aig, roots: &[Lit]) -> Vec<bool> {
    let mut seen = vec![false; aig.num_nodes()];
    let mut stack: Vec<usize> = roots.iter().map(|l| l.node()).collect();
    while let Some(n) = stack.pop() {
        if seen[n] {
            continue;
        }
        seen[n] = true;
        if let Some((a, b)) = aig.and_fanin(n) {
            stack.push(a.node());
            stack.push(b.node());
        }
    }
    seen
}

/// Free-input ordinals in the cone of `root`.
fn cone_support(aig: &Aig, root: Lit) -> Vec<usize> {
    let marks = cone_marks(aig, &[root]);
    let mut support = Vec::new();
    for (n, &m) in marks.iter().enumerate() {
        if m {
            if let Some(ix) = aig.input_index(n) {
                support.push(ix);
            }
        }
    }
    support.sort_unstable();
    support
}

/// Lanes one sweep counterexample occupies in a simulation round: the SAT
/// model itself plus `CEX_LANES - 1` single-input flips of it, so four
/// counterexamples share one 64-lane round.
const CEX_LANES: usize = 16;

/// Simulation signature state over the *specification* graph (the AIG
/// holding the folded netlist, the reference and the miters): per-round
/// input pattern words (ordinal-indexed) and whole-graph node words.
struct SimRounds {
    rng: u64,
    input_rounds: Vec<Vec<u64>>,
    node_rounds: Vec<Vec<u64>>,
    /// Counterexample lanes already used in the last round, while that
    /// round is still open for more.
    open_lanes: Option<usize>,
    /// Per node: the signature hash over its first `signed` rounds, and
    /// that count. Signed rounds are closed and never change again.
    sig_hash: Vec<u64>,
    signed: Vec<usize>,
}

impl SimRounds {
    fn new(seed: u64) -> SimRounds {
        SimRounds {
            rng: seed | 1,
            input_rounds: Vec::new(),
            node_rounds: Vec::new(),
            open_lanes: None,
            sig_hash: Vec::new(),
            signed: Vec::new(),
        }
    }

    /// Random input words for the next round. Rounds cycle through
    /// ones-density skews (uniform, 75%, 25%, 87.5%, 12.5%) — datapath
    /// compare chains (exponent overflow/underflow, all-ones significands)
    /// only separate on dense or sparse operands, which uniform bits
    /// essentially never produce, and an unseparated false candidate
    /// costs a SAT refutation.
    fn random_words(&mut self, num_inputs: usize) -> Vec<u64> {
        let style = self.node_rounds.len() % 5;
        (0..num_inputs)
            .map(|_| {
                let x = xorshift(&mut self.rng);
                let y = xorshift(&mut self.rng);
                let z = xorshift(&mut self.rng);
                match style {
                    0 => x,
                    1 => x | y,
                    2 => x & y,
                    3 => x | y | z,
                    _ => x & y & z,
                }
            })
            .collect()
    }

    /// Simulates one random 64-pattern round on `aig`.
    fn add_round(&mut self, aig: &Aig) {
        let words = self.random_words(aig.num_inputs());
        self.node_rounds.push(aig.simulate(&words));
        self.input_rounds.push(words);
    }

    /// Writes `pattern` and up to `CEX_LANES - 1` single-input flips of
    /// it (distinct inputs drawn from `flippable`) into the next free
    /// lanes of the open round, opening a fresh random round when none
    /// has room, then re-simulates that round on `aig`. Lanes no
    /// counterexample claims keep their random patterns.
    fn add_counterexample(&mut self, aig: &Aig, pattern: &[bool], flippable: &[usize]) {
        let lane0 = match self.open_lanes {
            Some(used) if used + CEX_LANES <= 64 => used,
            _ => {
                let words = self.random_words(aig.num_inputs());
                self.input_rounds.push(words);
                self.node_rounds.push(Vec::new());
                0
            }
        };
        // A partial Fisher–Yates draw of the flipped inputs.
        let mut pool = flippable.to_vec();
        let flips = pool.len().min(CEX_LANES - 1);
        for k in 0..flips {
            let left = (pool.len() - k) as u64;
            let pick =
                usize::try_from(xorshift(&mut self.rng) % left).expect("below the pool size");
            pool.swap(k, k + pick);
        }
        let words = self.input_rounds.last_mut().expect("a round is open");
        for lane in 0..=flips {
            let bit = 1u64 << (lane0 + lane);
            let flipped = lane.checked_sub(1).map(|k| pool[k]);
            for (i, w) in words.iter_mut().enumerate() {
                let v = pattern[i] ^ (flipped == Some(i));
                *w = (*w & !bit) | if v { bit } else { 0 };
            }
        }
        self.open_lanes = Some(lane0 + CEX_LANES);
        let last = self.node_rounds.len() - 1;
        self.node_rounds[last] = aig.simulate(&self.input_rounds[last]);
    }

    fn rounds(&self) -> usize {
        self.node_rounds.len()
    }

    /// The signature word of `lit` in round `r`.
    fn word(&self, r: usize, lit: Lit) -> u64 {
        Aig::lit_word(&self.node_rounds[r], lit)
    }

    /// The canonical signature of `node` over the first `rounds` rounds,
    /// hashed, and its canonicalizing polarity: the signature is
    /// complemented so lane 0 of round 0 is clear.
    ///
    /// The hash is kept per node and extended by the rounds added since
    /// the node was last signed, so `rounds` must not fall between calls
    /// for a node, and the rounds it covers must be closed (no open
    /// counterexample round).
    fn signature(&mut self, rounds: usize, node: usize) -> (u64, bool) {
        let flip = self.node_rounds[0][node] & 1 == 1;
        let mask = if flip { !0 } else { 0 };
        let nodes = self.node_rounds[0].len();
        if self.sig_hash.len() < nodes {
            self.sig_hash.resize(nodes, 0);
            self.signed.resize(nodes, 0);
        }
        let done = self.signed[node];
        debug_assert!(done <= rounds, "signature rounds went back");
        let hash = self.node_rounds[done..rounds]
            .iter()
            .fold(self.sig_hash[node], |h, words| mix(h ^ words[node] ^ mask));
        self.sig_hash[node] = hash;
        self.signed[node] = rounds;
        (hash, flip)
    }

    /// `true` when some round tells `a` and `b` apart.
    fn separates(&self, a: Lit, b: Lit) -> bool {
        (0..self.rounds()).any(|r| self.word(r, a) != self.word(r, b))
    }
}

impl Encoder {
    /// Extracts the current SAT model as an input pattern over the input
    /// ordinals (inputs the solver never saw default to false — they are
    /// irrelevant to the cone that produced the model).
    fn model_pattern(&self, input_node: &[usize]) -> Vec<bool> {
        input_node
            .iter()
            .map(|&n| {
                self.var_of
                    .get(n)
                    .copied()
                    .flatten()
                    .is_some_and(|v| self.solver.model_value(v))
            })
            .collect()
    }

    /// Attempts to prove `a == b` in `aig`; on success records the
    /// equality as permanent clauses (they are theorems, so they stay
    /// valid for every later solve). `Unsat` means *equal*; on `Sat` the
    /// model is left readable.
    fn prove_equal(&mut self, aig: &Aig, a: Lit, b: Lit, budget: u64) -> Verdict {
        let sa = self.sat_lit(aig, a);
        let sb = self.sat_lit(aig, b);
        match self.solver.solve(&[sa, !sb], budget) {
            Verdict::Sat => return Verdict::Sat,
            Verdict::Unknown => return Verdict::Unknown,
            Verdict::Unsat => {}
        }
        match self.solver.solve(&[!sa, sb], budget) {
            Verdict::Sat => Verdict::Sat,
            Verdict::Unknown => Verdict::Unknown,
            Verdict::Unsat => {
                self.clause(&[!sa, sb]);
                self.clause(&[sa, !sb]);
                Verdict::Unsat
            }
        }
    }

    /// Budget-bounded satisfiability under recursive recode-group case
    /// splits. `groups` are candidate yb digit groups (densest cone
    /// support first); `remaining` is the cone's shared conflict pool;
    /// `cases` counts solved leaves.
    #[allow(clippy::too_many_arguments)]
    fn split_solve(
        &mut self,
        aig: &Aig,
        input_node: &[usize],
        assumptions: &mut Vec<SatLit>,
        groups: &[usize],
        depth: usize,
        remaining: &mut u64,
        cases: &mut u32,
    ) -> Verdict {
        if *remaining == 0 {
            return Verdict::Unknown;
        }
        *cases += 1;
        let before = self.solver.stats().conflicts;
        let v = self.solver.solve(assumptions, *remaining);
        let used = self.solver.stats().conflicts - before;
        *remaining = remaining.saturating_sub(used);
        match v {
            Verdict::Sat => return Verdict::Sat,
            Verdict::Unsat => return Verdict::Unsat,
            Verdict::Unknown => {}
        }
        let Some(&g) = groups.get(depth) else {
            return Verdict::Unknown;
        };
        let bits: Vec<Var> = (0..4)
            .map(|k| self.var(aig, input_node[64 + 4 * g + k]))
            .collect();
        let mut all_unsat = true;
        for case in 0..16u32 {
            for (k, &v) in bits.iter().enumerate() {
                assumptions.push(SatLit::new(v, (case >> k) & 1 == 0));
            }
            let r = self.split_solve(
                aig,
                input_node,
                assumptions,
                groups,
                depth + 1,
                remaining,
                cases,
            );
            assumptions.truncate(assumptions.len() - 4);
            match r {
                Verdict::Sat => return Verdict::Sat,
                Verdict::Unknown => all_unsat = false,
                Verdict::Unsat => {}
            }
        }
        if all_unsat {
            Verdict::Unsat
        } else {
            Verdict::Unknown
        }
    }
}

fn label_lit(r: &RefOutputs<Lit>, label: &str) -> Option<Lit> {
    let (bus, rest) = label.split_once('[')?;
    let idx: usize = rest.strip_suffix(']')?.parse().ok()?;
    match bus {
        "ph" => r.ph.get(idx).copied(),
        "pl" => r.pl.get(idx).copied(),
        "flags" => r.flags.get(idx).copied(),
        _ => None,
    }
}

/// Replays a counterexample on both simulation backends, returning the
/// (event-driven, compiled) values of the output net.
#[allow(clippy::too_many_arguments)]
fn replay(
    netlist: &Netlist,
    compiled: &CompiledNetlist,
    ties: &[(NetId, bool)],
    xa_nets: &[NetId],
    yb_nets: &[NetId],
    out_net: NetId,
    xa: u64,
    yb: u64,
) -> (bool, bool) {
    let mut sim = Simulator::new(netlist);
    for &(net, v) in ties {
        sim.set_net(net, v);
    }
    sim.set_bus(xa_nets, u128::from(xa));
    sim.set_bus(yb_nets, u128::from(yb));
    sim.settle();
    let event = sim.read_net(out_net);

    let mut csim = CompiledSim::new(compiled);
    for &(net, v) in ties {
        csim.set_bus_all(&[net], u128::from(v));
    }
    csim.set_bus_all(xa_nets, u128::from(xa));
    csim.set_bus_all(yb_nets, u128::from(yb));
    csim.propagate();
    (event, csim.read_net_lane(out_net, 0))
}

fn pattern_words(pattern: &[bool]) -> (u64, u64) {
    let mut xa = 0u64;
    let mut yb = 0u64;
    for i in 0..64 {
        if pattern[i] {
            xa |= 1 << i;
        }
        if pattern[64 + i] {
            yb |= 1 << i;
        }
    }
    (xa, yb)
}

/// Sweep counters, reported per mode (see the same-named [`ModeReport`]
/// fields).
#[derive(Debug, Default, Clone, Copy)]
struct SweepStats {
    merges_proved: usize,
    merges_refuted: usize,
    merges_sim_refuted: usize,
    merges_unknown: usize,
    conflicts: u64,
    /// Solver counters and rebuilds of the passes before the last (the
    /// last pass's encoder lives on in [`Swept::enc`]).
    solver: SolverStats,
    rebuilds: u64,
}

/// The outcome of [`fraig_sweep`].
struct Swept {
    /// The collapsed graph of the last pass.
    g: Aig,
    /// The solver holding its encoding and the proven equalities.
    enc: Encoder,
    /// Specification node → literal in `g`.
    repr: Vec<Lit>,
    /// The input nodes of `g`, by ordinal.
    input_node: Vec<usize>,
    /// Counters over all passes.
    stats: SweepStats,
}

/// Fraig-style sweep of the cones of `roots` in the specification graph
/// `aig`.
///
/// Each pass rebuilds a fresh structurally-hashed graph from `aig` in
/// topological order, substituting every equivalence the moment it is
/// proved, so functionally-duplicate logic downstream of a merge
/// collapses by hash-consing instead of needing its own SAT proof.
/// Signature classes come from the rounds of `sim` on the specification
/// graph; SAT queries run on the collapsed graph, where a candidate pair
/// shares its already-merged fanin cone and the difference is local.
///
/// A `Sat` answer is simulated at once: the model and single-input flips
/// of it join the open round of `sim`, and every later candidate pair of
/// the pass is first checked against the rounds the pass added. A pair
/// those rounds tell apart is skipped without a SAT call. The rounds sign
/// the next pass's classes; the sweep ends after a pass with no `Sat`
/// answer (or after [`ProveOptions::refine_limit`] passes).
fn fraig_sweep(aig: &Aig, roots: &[Lit], sim: &mut SimRounds, opts: &ProveOptions) -> Swept {
    let in_cone = cone_marks(aig, roots);
    let mut stats = SweepStats::default();
    // Proven equivalences over specification nodes (node -> representative
    // literal), replayed as substitutions by the next pass.
    let mut spec_equal: HashMap<usize, Lit> = HashMap::new();
    let mut no_retry: HashSet<(usize, usize)> = HashSet::new();
    let mut passes = 0;
    loop {
        passes += 1;
        let mut g = Aig::new();
        let input_lit: Vec<Lit> = (0..aig.num_inputs()).map(|_| g.input()).collect();
        let input_node: Vec<usize> = input_lit.iter().map(|l| l.node()).collect();
        let mut enc = Encoder::new();
        let mut repr: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
        // Earlier passes' rounds are signature rounds now: counterexamples
        // of this pass open a new one.
        sim.open_lanes = None;
        let rounds = sim.rounds();
        // Signature hash -> (representative node, its canonical
        // polarity). The constant node heads the all-zero class, so a
        // node constant on every pattern is a candidate against constant
        // false.
        let mut class: HashMap<u64, (usize, bool)> = HashMap::new();
        class.insert(sim.signature(rounds, 0).0, (0, false));
        for n in 1..aig.num_nodes() {
            if let Some(&eq) = spec_equal.get(&n) {
                repr[n] = repr[eq.node()].xor_sign(eq.is_complemented());
                continue;
            }
            if let Some(ix) = aig.input_index(n) {
                repr[n] = input_lit[ix];
            } else if !in_cone[n] {
                continue;
            } else if let Some((a, b)) = aig.and_fanin(n) {
                let fa = repr[a.node()].xor_sign(a.is_complemented());
                let fb = repr[b.node()].xor_sign(b.is_complemented());
                repr[n] = g.and(fa, fb);
            } else {
                continue;
            }
            if !opts.sweep || !in_cone[n] {
                continue;
            }
            let (sig, flip) = sim.signature(rounds, n);
            let Some(&(r, rflip)) = class.get(&sig) else {
                class.insert(sig, (n, flip));
                continue;
            };
            // The class representative, in `n`'s polarity.
            let spec_rep = Lit::positive(r).xor_sign(rflip ^ flip);
            let rep = repr[r].xor_sign(rflip ^ flip);
            if rep == repr[n] {
                // Collapsed structurally in this pass; remember it so the
                // next pass substitutes without a rebuild.
                spec_equal.insert(n, spec_rep);
                continue;
            }
            if no_retry.contains(&(r, n)) {
                continue;
            }
            // The rounds this pass added (and, with negligible odds, a
            // hash collision in the older ones) may tell the pair apart.
            if sim.separates(spec_rep, Lit::positive(n)) {
                stats.merges_sim_refuted += 1;
                continue;
            }
            let before = enc.solver.stats().conflicts;
            match enc.prove_equal(&g, rep, repr[n], opts.sweep_budget) {
                Verdict::Unsat => {
                    stats.merges_proved += 1;
                    spec_equal.insert(n, spec_rep);
                    repr[n] = rep;
                }
                Verdict::Sat => {
                    stats.merges_refuted += 1;
                    // Flip only inputs the pair depends on: neighbours of
                    // the model then probe the same corner of the logic.
                    let support = cone_marks(&g, &[rep, repr[n]]);
                    let flippable: Vec<usize> = input_node
                        .iter()
                        .enumerate()
                        .filter(|&(_, &node)| support[node])
                        .map(|(ix, _)| ix)
                        .collect();
                    sim.add_counterexample(aig, &enc.model_pattern(&input_node), &flippable);
                    debug_assert!(sim.separates(spec_rep, Lit::positive(n)));
                }
                Verdict::Unknown => {
                    stats.merges_unknown += 1;
                    no_retry.insert((r, n));
                }
            }
            stats.conflicts += enc.solver.stats().conflicts - before;
            enc.maybe_rebuild();
        }
        if sim.rounds() == rounds || passes >= opts.refine_limit {
            return Swept {
                g,
                enc,
                repr,
                input_node,
                stats,
            };
        }
        stats.solver += enc.solver.stats();
        stats.rebuilds += enc.rebuilds;
    }
}

fn prove_mode(
    unit: &BuiltUnit,
    compiled: &CompiledNetlist,
    spec: &ModeSpec,
    mode: Mode,
    quad_lanes: bool,
    opts: &ProveOptions,
) -> ModeReport {
    let netlist = &unit.netlist;
    let values = ternary::sweep(netlist, &spec.ties).expect("unit netlists levelize");
    let fold = NetlistAig::build(netlist, &values).expect("unit netlists levelize");
    let NetlistAig {
        mut aig,
        lit_of_net,
        free_inputs,
    } = fold;
    assert_eq!(
        free_inputs.len(),
        128,
        "mode ties must leave exactly the two 64-bit operands free"
    );
    let xa_lits: Vec<Lit> = free_inputs[..64]
        .iter()
        .map(|n| lit_of_net[n.index()])
        .collect();
    let yb_lits: Vec<Lit> = free_inputs[64..]
        .iter()
        .map(|n| lit_of_net[n.index()])
        .collect();

    // Reference circuit in the same graph: identical regions hash-cons.
    let reference = {
        let mut b = AigBits { aig: &mut aig };
        refmodel::build_reference(&mut b, &xa_lits, &yb_lits, mode, quad_lanes)
    };

    // Prove targets: the mode's labelled lane outputs, in spec order.
    let mut targets: Vec<(String, NetId, Lit)> = Vec::new();
    let mut seen_labels: HashSet<&str> = HashSet::new();
    for lane in &spec.lanes {
        for (label, net) in &lane.outputs {
            if !seen_labels.insert(label.as_str()) {
                continue;
            }
            if let Some(filters) = &opts.outputs {
                if !filters.iter().any(|f| label.starts_with(f.as_str())) {
                    continue;
                }
            }
            let rl = label_lit(&reference, label)
                .unwrap_or_else(|| panic!("unmodelled output label {label}"));
            targets.push((label.clone(), *net, rl));
        }
    }

    let miters: Vec<Lit> = targets
        .iter()
        .map(|t| {
            let nl = lit_of_net[t.1.index()];
            aig.xor(nl, t.2)
        })
        .collect();
    let structural_proofs = miters.iter().filter(|m| **m == Lit::FALSE).count();

    let mut sim = SimRounds::new(opts.seed ^ (mode.frmt() + 1));
    for _ in 0..opts.rounds.max(1) {
        sim.add_round(&aig);
    }
    let live: Vec<Lit> = miters
        .iter()
        .copied()
        .filter(|m| m.const_value().is_none())
        .collect();
    let Swept {
        g,
        mut enc,
        repr,
        input_node,
        stats,
    } = fraig_sweep(&aig, &live, &mut sim, opts);

    let mut report = ModeReport {
        mode: mode.name().to_owned(),
        aig_nodes: aig.num_nodes(),
        aig_ands: aig.num_ands(),
        structural_proofs,
        merges_proved: stats.merges_proved,
        merges_refuted: stats.merges_refuted,
        merges_sim_refuted: stats.merges_sim_refuted,
        merges_unknown: stats.merges_unknown,
        sim_rounds: sim.rounds(),
        conflicts: stats.conflicts,
        solver: stats.solver,
        rebuilds: stats.rebuilds,
        cones: Vec::new(),
    };

    // Per-output verdicts.
    let xa_nets = &free_inputs[..64];
    let yb_nets = &free_inputs[64..];
    for (t, &miter) in targets.iter().zip(&miters) {
        let (label, out_net, ref_lit) = t;
        enc.maybe_rebuild();
        let before = enc.solver.stats().conflicts;
        let mut cases = 0u32;
        let mut cex_pattern: Option<Vec<bool>> = None;
        let swept_miter = if miter.const_value().is_none() {
            repr[miter.node()].xor_sign(miter.is_complemented())
        } else {
            miter
        };
        let verdict = if miter.const_value() == Some(false) {
            ConeVerdict::Proved
        } else if miter.const_value() == Some(true) {
            // The sides differ everywhere; any input works.
            cex_pattern = Some(vec![false; 128]);
            ConeVerdict::Refuted
        } else if let Some(pat) = (0..sim.rounds()).find_map(|r| {
            let w = sim.word(r, miter);
            if w == 0 {
                return None;
            }
            let lane = w.trailing_zeros() as usize;
            Some(
                (0..128)
                    .map(|i| (sim.input_rounds[r][i] >> lane) & 1 == 1)
                    .collect::<Vec<bool>>(),
            )
        }) {
            // A signature pattern already distinguishes the sides: the
            // refutation needs no SAT call at all.
            cex_pattern = Some(pat);
            ConeVerdict::Refuted
        } else if swept_miter == Lit::FALSE {
            // The sweep merged the two sides into the same node.
            ConeVerdict::Proved
        } else {
            let m = enc.sat_lit(&g, swept_miter);
            let support = cone_support(&g, swept_miter);
            // yb digit groups present in the cone, densest first.
            let mut group_count = [0usize; 16];
            for &ix in &support {
                if ix >= 64 {
                    group_count[(ix - 64) / 4] += 1;
                }
            }
            let mut groups: Vec<usize> = (0..16).filter(|&gi| group_count[gi] > 0).collect();
            groups.sort_by_key(|&gi| std::cmp::Reverse(group_count[gi]));
            groups.truncate(opts.split_groups);
            let mut assumptions = vec![m];
            let mut remaining = opts.budget;
            match enc.split_solve(
                &g,
                &input_node,
                &mut assumptions,
                &groups,
                0,
                &mut remaining,
                &mut cases,
            ) {
                Verdict::Unsat => ConeVerdict::Proved,
                Verdict::Unknown => ConeVerdict::Unknown,
                Verdict::Sat => {
                    cex_pattern = Some(enc.model_pattern(&input_node));
                    ConeVerdict::Refuted
                }
            }
        };
        let cex = cex_pattern.map(|pat| {
            let (xa, yb) = pattern_words(&pat);
            let netlist_value = aig.eval(&pat, lit_of_net[out_net.index()]);
            let reference_value = aig.eval(&pat, *ref_lit);
            let (event_value, compiled_value) = replay(
                netlist, compiled, &spec.ties, xa_nets, yb_nets, *out_net, xa, yb,
            );
            Counterexample {
                xa,
                yb,
                frmt: mode.frmt(),
                output: label.clone(),
                netlist_value,
                reference_value,
                event_value,
                compiled_value,
            }
        });
        let spent = enc.solver.stats().conflicts - before;
        report.conflicts += spent;
        report.cones.push(ConeResult {
            output: label.clone(),
            verdict,
            conflicts: spent,
            cases,
            cex,
        });
    }
    report.solver += enc.solver.stats();
    report.rebuilds += enc.rebuilds;
    report
}

/// Proves every mode of a built unit against the bit-blasted reference,
/// returning per-cone verdicts.
///
/// Only combinational multi-format units are provable: modes whose spec
/// has no `frmt` ties (plain multipliers, the reducer) and units with
/// flip-flops are skipped — the report simply contains no entry for
/// them.
///
/// # Panics
///
/// Panics if a mode spec labels an output the reference model does not
/// model, or its ties leave inputs other than the two 64-bit operands
/// free.
pub fn prove_unit(unit: &BuiltUnit, opts: &ProveOptions) -> ProveReport {
    let mut report = ProveReport {
        unit: unit.name.clone(),
        modes: Vec::new(),
    };
    if unit.netlist.dffs().next().is_some() {
        return report;
    }
    let quad_lanes = unit.specs.iter().any(|s| s.mode == "quad-binary16");
    let compiled = CompiledNetlist::compile(&unit.netlist).expect("unit netlists levelize");
    for spec in &unit.specs {
        let Some(mode) = Mode::from_name(&spec.mode) else {
            continue;
        };
        if spec.ties.is_empty() {
            continue;
        }
        if let Some(modes) = &opts.modes {
            if !modes.contains(&mode) {
                continue;
            }
        }
        report
            .modes
            .push(prove_mode(unit, &compiled, spec, mode, quad_lanes, opts));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the sweep over the cones of `roots` from the default number of
    /// random signature rounds, returning the rounds at convergence.
    fn sweep_roots(aig: &Aig, roots: &[Lit], refine_limit: usize) -> (Swept, usize) {
        let opts = ProveOptions {
            refine_limit,
            ..ProveOptions::default()
        };
        let mut sim = SimRounds::new(opts.seed);
        for _ in 0..opts.rounds {
            sim.add_round(aig);
        }
        let swept = fraig_sweep(aig, roots, &mut sim, &opts);
        (swept, sim.rounds())
    }

    /// The swept literal of a specification literal.
    fn swept_lit(s: &Swept, l: Lit) -> Lit {
        s.repr[l.node()].xor_sign(l.is_complemented())
    }

    /// `xa == yb` over two 64-bit operands as a balanced AND tree of
    /// per-bit XNORs, and two structurally different nodes that equal it:
    /// `eq ∧ (xa0 ∨ ¬yb0)` and `eq ∧ (¬xa0 ∨ yb0)`. Random patterns almost
    /// never make two 64-bit words equal, so all three look constant
    /// false to simulation.
    fn comparator() -> (Aig, Lit, [Lit; 2]) {
        let mut aig = Aig::new();
        let xa: Vec<Lit> = (0..64).map(|_| aig.input()).collect();
        let yb: Vec<Lit> = (0..64).map(|_| aig.input()).collect();
        let mut level: Vec<Lit> = xa.iter().zip(&yb).map(|(&x, &y)| !aig.xor(x, y)).collect();
        while level.len() > 1 {
            level = level.chunks(2).map(|p| aig.and(p[0], p[1])).collect();
        }
        let eq = level[0];
        let t1 = aig.or(xa[0], !yb[0]);
        let t2 = aig.or(!xa[0], yb[0]);
        let c1 = aig.and(eq, t1);
        let c2 = aig.and(eq, t2);
        (aig, eq, [c1, c2])
    }

    #[test]
    fn one_refutation_separates_the_comparator_candidates() {
        let (aig, _, cands) = comparator();
        let (swept, _) = sweep_roots(&aig, &cands, 1);
        let st = swept.stats;
        // The first all-zero node costs one SAT refutation. Its model
        // makes the operands equal, so every other node of the comparator
        // — and both candidates — is true on it and leaves the constant
        // class by simulation.
        assert_eq!(st.merges_refuted, 1, "{st:?}");
        assert!(st.merges_sim_refuted >= 1, "{st:?}");
        assert_eq!(st.merges_proved, 0, "{st:?}");
        for c in cands {
            assert_ne!(
                swept_lit(&swept, c),
                Lit::FALSE,
                "candidate merged with false"
            );
        }
    }

    #[test]
    fn comparator_sweep_converges_without_a_false_merge() {
        let (aig, eq, cands) = comparator();
        let (swept, rounds) = sweep_roots(&aig, &cands, ProveOptions::default().refine_limit);
        let st = swept.stats;
        assert!(st.merges_sim_refuted >= 1, "{st:?}");
        assert!(
            rounds > ProveOptions::default().rounds,
            "counterexamples became rounds"
        );
        // Both candidates equal the comparator; nothing equals false.
        for c in cands {
            assert_eq!(swept_lit(&swept, c), swept_lit(&swept, eq), "{st:?}");
        }
        assert_ne!(swept_lit(&swept, eq), Lit::FALSE);
    }

    /// Bit `bit` of an 8-bit sum, by ripple carry and by carry lookahead
    /// (each carry a sum of generate terms under propagate prefixes).
    fn adders(bit: usize) -> (Aig, Lit, Lit) {
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..8).map(|_| aig.input()).collect();
        let ys: Vec<Lit> = (0..8).map(|_| aig.input()).collect();
        let mut carry = Lit::FALSE;
        let mut ripple = Lit::FALSE;
        for i in 0..=bit {
            let half = aig.xor(xs[i], ys[i]);
            ripple = aig.xor(half, carry);
            carry = aig.maj(xs[i], ys[i], carry);
        }
        let generate: Vec<Lit> = (0..bit).map(|i| aig.and(xs[i], ys[i])).collect();
        let propagate: Vec<Lit> = (0..bit).map(|i| aig.or(xs[i], ys[i])).collect();
        let mut lookahead = Lit::FALSE;
        for (i, &gen) in generate.iter().enumerate() {
            let term = propagate[i + 1..].iter().fold(gen, |t, &p| aig.and(t, p));
            lookahead = aig.or(lookahead, term);
        }
        let half = aig.xor(xs[bit], ys[bit]);
        let cla = aig.xor(half, lookahead);
        (aig, ripple, cla)
    }

    #[test]
    fn solver_rebuilds_repeat_the_same_search() {
        // Under the test slack the dual-binary32 flags cones rebuild the
        // solver several times; each rebuild re-asserts the harvested
        // level-0 facts, and their order shapes every later propagation.
        let units = crate::standard_units();
        let unit = units
            .iter()
            .find(|u| u.name == "mfmult")
            .expect("the standard suite builds mfmult");
        let opts = ProveOptions {
            modes: Some(vec![Mode::DualBinary32]),
            outputs: Some(vec!["flags".to_owned()]),
            ..ProveOptions::default()
        };
        let first = prove_unit(unit, &opts);
        let second = prove_unit(unit, &opts);
        let (a, b) = (&first.modes[0], &second.modes[0]);
        assert!(a.rebuilds >= 2, "only {} rebuilds", a.rebuilds);
        assert!(a.cones.iter().all(|c| c.verdict == ConeVerdict::Proved));
        assert_eq!(a.rebuilds, b.rebuilds);
        assert_eq!(a.solver, b.solver);
        assert_eq!(first.to_json(), second.to_json());
    }

    #[test]
    fn ripple_and_lookahead_sum_bits_merge() {
        let (mut aig, ripple, cla) = adders(6);
        assert_ne!(ripple, cla, "the two adders must differ structurally");
        let miter = aig.xor(ripple, cla);
        let (swept, _) = sweep_roots(&aig, &[miter], ProveOptions::default().refine_limit);
        assert!(swept.stats.merges_proved >= 1, "{:?}", swept.stats);
        assert_eq!(swept_lit(&swept, ripple), swept_lit(&swept, cla));
        assert_eq!(swept_lit(&swept, miter), Lit::FALSE);
    }
}
