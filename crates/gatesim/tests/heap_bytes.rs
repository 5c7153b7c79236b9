//! `LaneSim::heap_bytes` and `Simulator::heap_bytes` against the
//! allocator's own count: a counting global allocator tracks the bytes
//! each thread holds, and after every step that can grow a buffer the
//! simulator's figure must equal the bytes its construction and that
//! step left allocated, for the compiled kernel at widths 1 and 4 and
//! for the event-driven simulator. The same count shows that a
//! `LivePowerTrace` holds no more after thousands of windows than when
//! it was built.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mfm_gatesim::{
    first_lanes, lane_mask, lane_range, CompiledNetlist, LaneSim, LivePowerTrace, NetId, Netlist,
    Simulator, TechLibrary,
};

/// `System`, counting the bytes each thread has allocated and not freed.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // A thread being torn down has no counter left; its bytes are not
    // measured.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting around it
// neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed on.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed on.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, since every
        // allocation here does.
        unsafe { System.dealloc(ptr, layout) };
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's, passed on.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        moved
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes this thread has allocated and not freed (negative if it freed
/// memory another thread allocated).
fn live() -> isize {
    LIVE.with(Cell::get)
}

/// An 8-bit ripple-carry adder with its sum registered: inputs, gates
/// and DFFs, so every buffer the simulator sizes by the netlist is used.
struct Adder {
    n: Netlist,
    a: Vec<NetId>,
    b: Vec<NetId>,
    cin: NetId,
    sum: Vec<NetId>,
}

impl Adder {
    fn new() -> Self {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let cin = n.input("cin");
        let mut carry = cin;
        let mut sum = Vec::new();
        for (&x, &y) in a.iter().zip(&b) {
            let (s, c) = n.full_adder(x, y, carry);
            sum.push(s);
            carry = c;
        }
        sum.push(carry);
        for &s in &sum {
            n.dff(s);
        }
        Adder { n, a, b, cin, sum }
    }
}

/// Drives a simulator of width `W` through every call that allocates,
/// asserting after each that `heap_bytes` equals the bytes it holds.
/// Returns what the freshly built simulator held.
fn heap_bytes_match_the_allocator<const W: usize>(adder: &Adder, prog: &CompiledNetlist) -> usize {
    let before = live();
    let held = || (live() - before) as usize;
    let mut sim = LaneSim::<W>::new(prog);
    let fresh = held();
    assert_eq!(sim.heap_bytes(), fresh, "fresh, width {W}");
    type Step<const W: usize> = fn(&mut LaneSim<'_, W>, &Adder);
    let steps: [(&str, Step<W>); 7] = [
        ("inject_stuck_at", |s, a| {
            s.inject_stuck_at(a.cin, lane_mask(0), true);
            s.inject_stuck_at(a.sum[3], lane_mask(1), false);
        }),
        ("enable_activity", |s, _| s.enable_activity(4)),
        ("run_batch", |s, a| {
            s.run_batch(&[(&a.a, &[1, 2, 3]), (&a.b, &[4, 5, 6])], &[&a.sum]);
        }),
        ("step_cycle", |s, _| s.step_cycle()),
        ("arm_overlays", |s, a| {
            let stuck: &[(NetId, bool)] = &[(a.cin, true), (a.b[2], false)];
            s.arm_overlays(&[(first_lanes(4), stuck), (lane_range(4, 9), &stuck[1..])]);
        }),
        ("rearm_activity", |s, _| s.rearm_activity(9)),
        ("clear_faults", |s, _| s.clear_faults()),
    ];
    for (what, step) in steps {
        step(&mut sim, adder);
        assert_eq!(sim.heap_bytes(), held(), "after {what}, width {W}");
    }
    drop(sim);
    assert_eq!(held(), 0, "width {W} freed everything");
    fresh
}

#[test]
fn heap_bytes_equals_the_allocators_count_at_both_widths() {
    let adder = Adder::new();
    let prog = CompiledNetlist::compile(&adder.n).unwrap();
    // The power-on state a reset copies is the program's, cached on
    // first use; build it outside the measured steps.
    LaneSim::<1>::new(&prog).rearm_activity(1);
    let narrow = heap_bytes_match_the_allocator::<1>(&adder, &prog);
    let wide = heap_bytes_match_the_allocator::<4>(&adder, &prog);
    // A fresh simulator holds its words, the DFF sample buffer (both one
    // word per entry) and one flag bit per net: at width 1 the words are
    // exactly a quarter.
    let flags = prog.net_count().div_ceil(64) * 8;
    assert_eq!(4 * (narrow - flags), wide - flags);
    assert_eq!(wide - flags, 32 * (prog.net_count() + prog.dff_count()));
}

#[test]
fn event_driven_heap_bytes_equals_the_allocators_count() {
    let adder = Adder::new();
    // The levelization is the netlist's, cached on first use; build it
    // outside the measured steps.
    adder.n.levelization().unwrap();
    let before = live();
    let held = || (live() - before) as usize;
    let mut sim = Simulator::new(&adder.n);
    assert_eq!(sim.heap_bytes(), held(), "fresh");
    let cycle = |sim: &mut Simulator<'_>, i: u128| {
        sim.step_cycle(&[
            (&adder.a, i * 37),
            (&adder.b, i * 91 + 5),
            (&[adder.cin], i & 1),
        ]);
    };
    for i in 0..40 {
        cycle(&mut sim, i);
    }
    assert!(sim.total_events() > 0);
    assert_eq!(sim.heap_bytes(), held(), "after a burst of cycles");
    sim.enable_trace();
    assert_eq!(sim.heap_bytes(), held(), "after enable_trace");
    for i in 0..40 {
        cycle(&mut sim, i + 40);
    }
    assert!(!sim.trace().unwrap().is_empty());
    assert_eq!(sim.heap_bytes(), held(), "after traced cycles");
    // An upset whose heal event waits past the wheel's horizon, in the
    // overflow heap; once healed, the fault overlay is empty again.
    sim.inject_transient(adder.sum[2], 1_000.0);
    sim.settle();
    assert_eq!(sim.active_faults(), 0);
    assert_eq!(sim.heap_bytes(), held(), "after a healed upset");
    sim.inject_stuck_at(adder.a[1], true);
    cycle(&mut sim, 3);
    sim.clear_faults();
    sim.settle();
    assert_eq!(sim.heap_bytes(), held(), "after a cleared stuck-at");
    sim.set_zero_delay(true);
    for i in 0..8 {
        cycle(&mut sim, i + 80);
    }
    assert_eq!(sim.heap_bytes(), held(), "after zero-delay cycles");
    drop(sim);
    assert_eq!(held(), 0, "the simulator freed everything");
}

#[test]
fn live_power_trace_heap_stays_flat_over_thousands_of_windows() {
    let adder = Adder::new();
    let nets = adder.n.net_count();
    let mut tally = vec![0u64; nets];
    let before = live();
    let mut trace = LivePowerTrace::from_counts(&adder.n, &tally, 0);
    let built = (live() - before) as usize;
    // One energy weight and one toggle baseline per net.
    assert_eq!(built, 16 * nets);
    // A window per batch, as the service closes them.
    let windows = 5_000u64;
    for window in 1..=windows {
        for (i, t) in tally.iter_mut().enumerate() {
            *t += (i as u64 + window) % 3;
        }
        assert!(trace.sample_counts(&tally, 4 * window, window).is_some());
        assert_eq!((live() - before) as usize, built, "after window {window}");
    }
    assert_eq!(trace.last_sample().map(|s| s.ops_end), Some(windows));
    drop(trace);
    assert_eq!(live(), before, "the trace freed everything");
}
