//! The work the event-driven settle does on the Fig. 5 pipelined unit,
//! pinned exactly: events popped, cells evaluated and events scheduled
//! over a fixed seeded stream in each of the unit's three wide modes,
//! one operation per clock cycle after the pipeline warm-up, as a
//! Monte-Carlo power run or the glitch calibration drives it. The
//! counts depend only on the netlist, the stimulus and the event
//! semantics, so a settle that gets slower with these counts unchanged
//! does the same work more slowly, and one that changes them changed
//! what it simulates.

use mfm_gatesim::{Netlist, SettleWork, Simulator, TechLibrary};
use mfm_prng::Rng;
use mfmult::pipeline::{build_pipelined_unit, PipelinePlacement};
use mfmult::Format;

/// Measured operations per mode, one per clock cycle.
const OPS: usize = 12;

/// One format per mode select: single binary32 drives the dual mode.
const MODES: [Format; 3] = [Format::Int64, Format::Binary64, Format::DualBinary32];

/// Settle work per mode in [`MODES`] order, and the committed
/// transitions it produced.
fn work_per_mode(zero_delay: bool) -> Vec<(SettleWork, u64)> {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_pipelined_unit(&mut n, PipelinePlacement::Fig5);
    MODES
        .iter()
        .map(|&format| {
            let mut rng = Rng::new(5);
            let mut sim = Simulator::new(&n);
            sim.set_zero_delay(zero_delay);
            let mut cycle = |sim: &mut Simulator<'_>| {
                sim.step_cycle(&[
                    (&ports.frmt, format.encoding() as u128),
                    (&ports.xa, rng.next_u64() as u128),
                    (&ports.yb, rng.next_u64() as u128),
                ]);
            };
            for _ in 0..ports.latency {
                cycle(&mut sim);
            }
            sim.reset_activity();
            assert_eq!(
                sim.settle_work(),
                SettleWork::default(),
                "reset clears the work"
            );
            for _ in 0..OPS {
                cycle(&mut sim);
            }
            (sim.settle_work(), sim.total_events())
        })
        .collect()
}

fn work(popped: u64, evaluations: u64, schedules: u64) -> SettleWork {
    SettleWork {
        popped,
        evaluations,
        schedules,
    }
}

#[test]
fn inertial_settle_work_on_the_pipelined_unit_is_pinned() {
    let want = [
        (work(195_670, 273_544, 180_298), 155_265),
        (work(157_997, 225_874, 142_625), 124_219),
        (work(106_521, 164_136, 91_149), 86_520),
    ];
    assert_eq!(work_per_mode(false), want);
}

#[test]
fn zero_delay_settle_work_on_the_pipelined_unit_is_pinned() {
    // Every settle drains the DFF and input schedules and evaluates
    // every combinational cell once: the work is the same in each mode,
    // the transitions are not.
    let per_mode = work(15_372, 313_860, 0);
    let want = [(per_mode, 105_335), (per_mode, 84_453), (per_mode, 66_880)];
    assert_eq!(work_per_mode(true), want);
}
