//! Differential tests of the compiled kernel against a reference kernel:
//! the straightforward loop over `64 * W` lanes the compiled engine's
//! results are defined by. It evaluates the gates in level order, chunk
//! by chunk through a per-chunk `match`, blends the dense fault arrays
//! into every gate output, copies the power-on state back on every
//! reset, and counts toggles in a second sweep over every net against a
//! full copy of the previous settled state. Both kernels take the same
//! stimulus, and after every step words, toggles, events and cycles must
//! agree exactly. Every script runs at width 4 (256 lanes, the
//! [`CompiledSim`] width) and at width 1 (64 lanes, the serving width).

#[cfg(doc)]
use super::CompiledSim;
use super::{
    first_lanes, lane_mask, ArmedPlan, CompiledNetlist, GateOp, LaneSim, Lanes, LANE_WORDS,
};
use crate::netlist::{NetId, Netlist};
use crate::sim::reference::{mirror, random_netlist};
use crate::tech::CellKind;
use mfm_prng::Rng;

fn eval_chunk(kind: CellKind, a: u64, b: u64, c: u64, d: u64) -> u64 {
    match kind {
        CellKind::Inv => !a,
        CellKind::Buf | CellKind::Dff => a,
        CellKind::Nand2 => !(a & b),
        CellKind::Nand3 => !(a & b & c),
        CellKind::Nor2 => !(a | b),
        CellKind::Nor3 => !(a | b | c),
        CellKind::And2 => a & b,
        CellKind::And3 => a & b & c,
        CellKind::Or2 => a | b,
        CellKind::Or3 => a | b | c,
        CellKind::Xor2 => a ^ b,
        CellKind::Xnor2 => !(a ^ b),
        CellKind::Mux2 => (c & b) | (!c & a),
        CellKind::Aoi21 => !((a & b) | c),
        CellKind::Aoi22 => !((a & b) | (c & d)),
        CellKind::Oai21 => !((a | b) & c),
        CellKind::Maj3 => (a & b) | (a & c) | (b & c),
    }
}

fn eval_word<const W: usize>(
    kind: CellKind,
    a: Lanes<W>,
    b: Lanes<W>,
    c: Lanes<W>,
    d: Lanes<W>,
) -> Lanes<W> {
    std::array::from_fn(|i| eval_chunk(kind, a[i], b[i], c[i], d[i]))
}

struct RefActivity<const W: usize> {
    prev: Vec<Lanes<W>>,
    mask: Lanes<W>,
    toggles: Vec<u64>,
    events: u64,
}

/// The reference kernel.
struct RefSim<'p, const W: usize> {
    prog: &'p CompiledNetlist,
    /// The gates in level order, as the netlist's levelization sorts them.
    ops: Vec<GateOp>,
    /// The words of a fresh simulator: what a reset returns to.
    settled: Vec<Lanes<W>>,
    words: Vec<Lanes<W>>,
    fault_mask: Vec<Lanes<W>>,
    fault_value: Vec<Lanes<W>>,
    faulted: Vec<u32>,
    armed: Option<ArmedPlan<W>>,
    cycles: u64,
    activity: Option<RefActivity<W>>,
}

impl<'p, const W: usize> RefSim<'p, W> {
    fn new(netlist: &Netlist, prog: &'p CompiledNetlist) -> Self {
        let cells = netlist.cells();
        let ops = netlist
            .levelization()
            .expect("acyclic")
            .order()
            .iter()
            .map(|&cid| {
                let c = &cells[cid.index()];
                GateOp {
                    kind: c.kind,
                    a: c.inputs[0].index() as u32,
                    b: c.inputs[1].index() as u32,
                    c: c.inputs[2].index() as u32,
                    d: c.inputs[3].index() as u32,
                    out: c.output.index() as u32,
                }
            })
            .collect();
        let mut sim = RefSim {
            prog,
            ops,
            settled: Vec::new(),
            words: vec![[0; W]; prog.net_count],
            fault_mask: vec![[0; W]; prog.net_count],
            fault_value: vec![[0; W]; prog.net_count],
            faulted: Vec::new(),
            armed: Some(Vec::new()),
            cycles: 0,
            activity: None,
        };
        sim.words[prog.one as usize] = [!0; W];
        sim.propagate();
        sim.settled = sim.words.clone();
        sim
    }

    fn set_net_lane(&mut self, net: NetId, lane: usize, value: bool) {
        let w = &mut self.words[net.index()][lane / 64];
        let bit = 1u64 << (lane % 64);
        *w = (*w & !bit) | if value { bit } else { 0 };
    }

    fn set_bus_lane(&mut self, bus: &[NetId], lane: usize, value: u128) {
        for (i, &net) in bus.iter().enumerate() {
            self.set_net_lane(net, lane, (value >> i) & 1 == 1);
        }
    }

    fn set_bus_all(&mut self, bus: &[NetId], value: u128) {
        for (i, &net) in bus.iter().enumerate() {
            self.words[net.index()] = if (value >> i) & 1 == 1 {
                [!0; W]
            } else {
                [0; W]
            };
        }
    }

    fn inject_stuck_at(&mut self, net: NetId, lanes: Lanes<W>, value: bool) {
        self.armed = None;
        let ni = net.index();
        if self.fault_mask[ni] == [0; W] && lanes != [0; W] {
            self.faulted.push(ni as u32);
        }
        for (k, &lane_bits) in lanes.iter().enumerate() {
            self.fault_mask[ni][k] |= lane_bits;
            if value {
                self.fault_value[ni][k] |= lane_bits;
            } else {
                self.fault_value[ni][k] &= !lane_bits;
            }
        }
    }

    fn clear_faults(&mut self) {
        self.armed = None;
        for &ni in &self.faulted {
            self.fault_mask[ni as usize] = [0; W];
            self.fault_value[ni as usize] = [0; W];
        }
        self.faulted.clear();
    }

    fn arm_overlays(&mut self, plan: &[(Lanes<W>, &[(NetId, bool)])]) {
        let live: ArmedPlan<W> = plan
            .iter()
            .filter(|(lanes, faults)| *lanes != [0; W] && !faults.is_empty())
            .map(|&(lanes, faults)| (lanes, faults.to_vec()))
            .collect();
        if self.armed.as_ref() == Some(&live) {
            return;
        }
        self.clear_faults();
        self.reset();
        for (lanes, faults) in &live {
            for &(net, value) in faults {
                self.inject_stuck_at(net, *lanes, value);
            }
        }
        self.armed = Some(live);
    }

    fn reset(&mut self) {
        self.words.copy_from_slice(&self.settled);
        self.cycles = 0;
        if self.activity.is_some() {
            self.reset_activity();
        }
    }

    fn overlay(&mut self, ni: usize) {
        for k in 0..W {
            let m = self.fault_mask[ni][k];
            self.words[ni][k] = (self.words[ni][k] & !m) | (self.fault_value[ni][k] & m);
        }
    }

    fn propagate(&mut self) {
        for i in 0..self.faulted.len() {
            self.overlay(self.faulted[i] as usize);
        }
        for i in 0..self.ops.len() {
            let op = self.ops[i];
            let w = eval_word(
                op.kind,
                self.words[op.a as usize],
                self.words[op.b as usize],
                self.words[op.c as usize],
                self.words[op.d as usize],
            );
            let out = op.out as usize;
            let m = self.fault_mask[out];
            let f = self.fault_value[out];
            self.words[out] = std::array::from_fn(|k| (w[k] & !m[k]) | (f[k] & m[k]));
        }
        let Self {
            words, activity, ..
        } = self;
        if let Some(act) = activity {
            for (t, (w, p)) in act
                .toggles
                .iter_mut()
                .zip(words.iter().zip(act.prev.iter_mut()))
            {
                let mut n = 0u64;
                for k in 0..W {
                    n += u64::from(((w[k] ^ p[k]) & act.mask[k]).count_ones());
                }
                *t += n;
                act.events += n;
                *p = *w;
            }
        }
    }

    fn step_cycle(&mut self) {
        self.cycles += 1;
        let sampled: Vec<Lanes<W>> = self
            .prog
            .dffs
            .iter()
            .map(|&(d, _)| self.words[d as usize])
            .collect();
        for (&(_, q), w) in self.prog.dffs.iter().zip(sampled) {
            self.words[q as usize] = w;
        }
        self.propagate();
    }

    fn enable_activity(&mut self, lanes: usize) {
        self.activity = Some(RefActivity {
            prev: self.words.clone(),
            mask: first_lanes(lanes),
            toggles: vec![0; self.prog.net_count],
            events: 0,
        });
        self.cycles = 0;
    }

    fn rearm_activity(&mut self, lanes: usize) {
        self.reset();
        match &mut self.activity {
            Some(act) => act.mask = first_lanes(lanes),
            None => self.enable_activity(lanes),
        }
    }

    fn set_active_lanes(&mut self, lanes: usize) {
        self.activity.as_mut().expect("activity not enabled").mask = first_lanes(lanes);
    }

    fn reset_activity(&mut self) {
        let Self {
            words, activity, ..
        } = self;
        let act = activity.as_mut().expect("activity not enabled");
        act.prev.copy_from_slice(words);
        act.toggles.iter_mut().for_each(|t| *t = 0);
        act.events = 0;
        self.cycles = 0;
    }
}

/// Both kernels over one program, driven in lockstep.
struct Pair<'p, const W: usize> {
    fast: LaneSim<'p, W>,
    slow: RefSim<'p, W>,
    step: usize,
}

impl<'p, const W: usize> Pair<'p, W> {
    /// Lanes per pass at this width.
    const LANES: usize = 64 * W;

    fn new(netlist: &Netlist, prog: &'p CompiledNetlist) -> Self {
        Pair {
            fast: LaneSim::new(prog),
            slow: RefSim::new(netlist, prog),
            step: 0,
        }
    }

    /// Asserts every observable of the two kernels is equal.
    fn check(&mut self, what: &str) {
        self.step += 1;
        let (f, s) = (&self.fast, &self.slow);
        let at = format!("width {W}, step {} ({what})", self.step);
        assert!(f.words == s.words, "words after {at}");
        assert_eq!(f.cycles(), s.cycles, "cycles after {at}");
        assert_eq!(
            f.activity_enabled(),
            s.activity.is_some(),
            "activity after {at}"
        );
        if let Some(act) = &s.activity {
            assert!(f.toggles() == &act.toggles[..], "toggles after {at}");
            assert_eq!(f.activity_events(), act.events, "events after {at}");
        }
    }

    fn propagate(&mut self) {
        self.fast.propagate();
        self.slow.propagate();
        self.check("propagate");
    }

    fn step_cycle(&mut self) {
        self.fast.step_cycle();
        self.slow.step_cycle();
        self.check("step_cycle");
    }

    fn inject(&mut self, net: NetId, lanes: Lanes<W>, value: bool) {
        self.fast.inject_stuck_at(net, lanes, value);
        self.slow.inject_stuck_at(net, lanes, value);
    }

    /// Drives every bus with random values: all lanes at once, one
    /// word-wise call over a random lane prefix, or a few single lanes.
    fn drive(&mut self, rng: &mut Rng, buses: &[Vec<NetId>]) {
        for bus in buses {
            self.drive_bus(rng, bus);
        }
    }

    fn drive_bus(&mut self, rng: &mut Rng, bus: &[NetId]) {
        match rng.range_u64(0, 3) {
            0 => {
                let v = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
                self.fast.set_bus_all(bus, v);
                self.slow.set_bus_all(bus, v);
            }
            1 => {
                let n = rng.range_u64(1, Self::LANES as u64 + 1) as usize;
                let values: Vec<u128> = (0..n)
                    .map(|_| u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()))
                    .collect();
                self.fast.set_bus_lanes(bus, &values);
                for (lane, &v) in values.iter().enumerate() {
                    self.slow.set_bus_lane(bus, lane, v);
                }
            }
            _ => {
                for _ in 0..rng.range_u64(1, 8) {
                    let lane = rng.range_u64(0, Self::LANES as u64) as usize;
                    let v = u128::from(rng.next_u64());
                    self.fast.set_bus_lane(bus, lane, v);
                    self.slow.set_bus_lane(bus, lane, v);
                }
            }
        }
    }
}

/// A random lane mask: one lane, a prefix, all lanes or random bits.
fn random_lanes<const W: usize>(rng: &mut Rng) -> Lanes<W> {
    let lanes = 64 * W as u64;
    match rng.range_u64(0, 4) {
        0 => lane_mask(rng.range_u64(0, lanes) as usize),
        1 => first_lanes(rng.range_u64(1, lanes + 1) as usize),
        2 => [!0; W],
        _ => std::array::from_fn(|_| rng.next_u64()),
    }
}

/// Up to three overlay partitions over random lanes, each with up to
/// two stuck-at faults on random nets among the first `nets`.
fn random_plan<const W: usize>(rng: &mut Rng, nets: u64) -> ArmedPlan<W> {
    (0..rng.range_u64(1, 4))
        .map(|_| {
            let faults = (0..rng.range_u64(0, 3))
                .map(|_| (NetId(rng.range_u64(0, nets) as u32), rng.next_bool(0.5)))
                .collect();
            (random_lanes(rng), faults)
        })
        .collect()
}

/// Arms `plan` on both kernels.
fn arm<const W: usize>(p: &mut Pair<'_, W>, plan: &ArmedPlan<W>) {
    let view: Vec<(Lanes<W>, &[(NetId, bool)])> = plan.iter().map(|(l, f)| (*l, &f[..])).collect();
    p.fast.arm_overlays(&view);
    p.slow.arm_overlays(&view);
    p.check("arm_overlays");
}

/// Drives both kernels through one random stimulus script over `prog`.
/// Faults land on any net: constants, inputs, DFF outputs and gate
/// outputs alike.
fn run_script<const W: usize>(
    rng: &mut Rng,
    netlist: &Netlist,
    inputs: &[Vec<NetId>],
    steps: usize,
) {
    let prog = CompiledNetlist::compile(netlist).unwrap();
    let mut p = Pair::<W>::new(netlist, &prog);
    p.check("new");
    let nets = prog.net_count as u64;
    let random_net = |rng: &mut Rng| NetId(rng.range_u64(0, nets) as u32);
    let lanes = |rng: &mut Rng| rng.range_u64(0, Pair::<W>::LANES as u64 + 1) as usize;
    let mut plan: ArmedPlan<W> = Vec::new();
    for _ in 0..steps {
        match rng.range_u64(0, 16) {
            0..=3 => {
                p.drive(rng, inputs);
                p.propagate();
            }
            4..=6 => {
                p.drive(rng, inputs);
                p.step_cycle();
            }
            7 => {
                for _ in 0..rng.range_u64(1, 4) {
                    let (net, mask) = (random_net(rng), random_lanes(rng));
                    p.inject(net, mask, rng.next_bool(0.5));
                }
                p.propagate();
            }
            8 => {
                p.fast.clear_faults();
                p.slow.clear_faults();
                p.propagate();
            }
            9 => {
                // Sometimes the previous plan again.
                if rng.next_bool(0.75) {
                    plan = random_plan(rng, nets);
                }
                arm(&mut p, &plan);
                p.step_cycle();
            }
            10 => {
                let n = lanes(rng);
                p.fast.rearm_activity(n);
                p.slow.rearm_activity(n);
                p.check("rearm_activity");
                p.drive(rng, inputs);
                p.step_cycle();
            }
            11 => {
                let n = lanes(rng);
                p.fast.enable_activity(n);
                p.slow.enable_activity(n);
                p.check("enable_activity");
            }
            12 if p.slow.activity.is_some() => {
                // Narrow, run, then widen again.
                let n = lanes(rng);
                p.fast.set_active_lanes(n);
                p.slow.set_active_lanes(n);
                p.drive(rng, inputs);
                p.propagate();
                p.fast.set_active_lanes(Pair::<W>::LANES);
                p.slow.set_active_lanes(Pair::<W>::LANES);
                p.drive(rng, inputs);
                p.step_cycle();
            }
            13 if p.slow.activity.is_some() => {
                p.fast.reset_activity();
                p.slow.reset_activity();
                p.check("reset_activity");
                p.propagate();
            }
            14 | 15 => {
                // A serving pass: a fresh overlay plan with at least one
                // fault, then toggles counted from the power-on state
                // over none (a patrol or scrub pass), one, two or every
                // lane, through a few cycles.
                plan = random_plan(rng, nets);
                plan[0].1.push((random_net(rng), rng.next_bool(0.5)));
                arm(&mut p, &plan);
                let n = [0, 1, 2, Pair::<W>::LANES][rng.range_u64(0, 4) as usize];
                p.fast.rearm_activity(n);
                p.slow.rearm_activity(n);
                p.check("rearm_activity");
                for _ in 0..rng.range_u64(1, 4) {
                    p.drive(rng, inputs);
                    p.step_cycle();
                }
            }
            _ => p.propagate(),
        }
    }
}

/// Random netlists over every cell kind, many with chained DFFs.
fn random_netlists<const W: usize>() {
    let mut rng = Rng::new(0x0C0F_FEE5);
    let rounds = if cfg!(debug_assertions) { 24 } else { 400 };
    let mut kinds = std::collections::HashSet::new();
    let mut chained = 0;
    for _ in 0..rounds {
        let n_inputs = rng.range_u64(2, 24) as usize;
        let n_cells = rng.range_u64(20, 400) as usize;
        let (n, inputs) = random_netlist(&mut rng, n_inputs, n_cells);
        kinds.extend(n.cells().iter().map(|c| c.kind));
        let dff_outs: std::collections::HashSet<NetId> = n.dffs().map(|(_, c)| c.output).collect();
        chained += usize::from(n.dffs().any(|(_, c)| dff_outs.contains(&c.inputs[0])));
        run_script::<W>(&mut rng, &n, &[inputs], 80);
    }
    assert_eq!(
        kinds.len(),
        CellKind::ALL.len(),
        "every cell kind is covered"
    );
    assert!(
        chained * 4 >= rounds,
        "{chained} of {rounds} netlists chain DFFs"
    );
}

/// The Fig. 5 pipelined unit under one long random script.
fn pipelined_unit<const W: usize>() {
    let mut src = mfm_gatesim::Netlist::new(mfm_gatesim::TechLibrary::cmos45lp());
    let ports =
        mfmult::pipeline::build_pipelined_unit(&mut src, mfmult::pipeline::PipelinePlacement::Fig5);
    let n: Netlist = mirror(&src);
    let bus = |b: &[mfm_gatesim::NetId]| -> Vec<NetId> {
        b.iter().map(|x| NetId(x.index() as u32)).collect()
    };
    let inputs = [bus(&ports.frmt), bus(&ports.xa), bus(&ports.yb)];
    let mut rng = Rng::new(2017);
    let steps = if cfg!(debug_assertions) { 12 } else { 200 };
    run_script::<W>(&mut rng, &n, &inputs, steps);
}

#[test]
fn compiled_kernel_matches_reference_on_random_netlists() {
    random_netlists::<LANE_WORDS>();
}

#[test]
fn compiled_kernel_matches_reference_on_random_netlists_at_64_lanes() {
    random_netlists::<1>();
}

#[test]
fn compiled_kernel_matches_reference_on_the_pipelined_unit() {
    pipelined_unit::<LANE_WORDS>();
}

#[test]
fn compiled_kernel_matches_reference_on_the_pipelined_unit_at_64_lanes() {
    pipelined_unit::<1>();
}
