//! Online self-checking execution: residue checks, a rounding-injection
//! invariant, and a word-level output recompute wrapped around the
//! structural unit, with graceful degradation to the functional model.
//!
//! # The checks
//!
//! The unit's stage 3 computes two speculative 128-bit sums with the two
//! carry-propagate adders of Fig. 3:
//!
//! ```text
//! P0 = s + c + inj0        (no left shift needed)
//! P1 = s + c + inj1        (left shift needed)
//! ```
//!
//! For every format the relevant window of `P0` is *exactly*
//! `ma · mb + inj0` where `ma`/`mb` are the lane significands (or the raw
//! integer operands), with no cross-lane interference — that is the
//! word-level lane-isolation property proved in [`crate::lanes`]. Exact
//! arithmetic identities survive any modulus, which yields three cheap
//! online checks on the taps [`StructuralPorts::chk_p0`] /
//! [`StructuralPorts::chk_p1`]:
//!
//! 1. **Residue check (mod 3 and mod 15).** For each lane window `W0`:
//!    `res(W0) = res(res(ma)·res(mb) + res(inj0))`, and likewise `W1`
//!    with `inj1`. Both moduli are of the `2^k − 1` family, so the
//!    residue of a word is a fold of its radix-2^k digits — mod 15 is a
//!    nibble sum, which is what makes residue checking nearly free next
//!    to a radix-16 multiplier. (Since 3 divides 15, the mod-3 check is
//!    implied by the mod-15 one; it is kept because it is the classic
//!    textbook check and the campaign reports both.)
//! 2. **Injection invariant.** The two CPAs add the same `s + c` with
//!    different injections, so per lane window
//!    `W1 − W0 ≡ inj1 − inj0 (mod 2^width)`. A fault inside either CPA
//!    breaks this even when its residue happens to collide.
//! 3. **Product identity.** The limiting case of the residue family
//!    (modulus `2^width`): `W0 = ma·mb + inj0` exactly. In hardware this
//!    is a duplicated multiplier, so it is the expensive end of the
//!    checker ladder; it closes the residue blind spot (a corruption
//!    delta that is a multiple of 15, e.g. an operand-side stuck bit
//!    `±2^k·mb` when `mb ≡ 0 mod 15`). Because the lane windows tile all
//!    128 bits in every format, passing this tier pins `P0` (and, with
//!    tier 2, `P1`) to their golden values.
//! 4. **Output recompute.** Stage 3 after the CPAs (normalization-select,
//!    exponent select, special-case override, output format) is cheap at
//!    word level, so the checker recomputes the delivered `PH`/`PL`/flags
//!    from the operands plus the tapped `P0`/`P1` and compares bit for
//!    bit. This covers the formatter gates the sum checks cannot see.
//!
//! Tiers 1–2 are the cheap, hardware-plausible online checks; tiers 3–4
//! make silent corruption structurally impossible (golden sums plus a
//! validated formatter mirror imply golden outputs). The fault-injection
//! campaign in `mfm_evalkit` attributes every detection to the first
//! tier that fired, so the coverage of the residue checks alone is
//! measured, not assumed (see `DESIGN.md`).
//!
//! # The wrapper
//!
//! [`SelfCheckingUnit`] runs every operation on the gate-level simulator,
//! applies the checks, and on a mismatch retries the operation once
//! (transient faults heal; the retry passes). If the retry also fails the
//! fault is treated as permanent: the unit **degrades** to the bit-exact
//! [`FunctionalUnit`] for every subsequent operation and keeps serving
//! correct results, counting incidents in [`SelfCheckStats`].
//!
//! ```
//! use mfm_gatesim::netlist::Netlist;
//! use mfm_gatesim::tech::TechLibrary;
//! use mfmult::selfcheck::SelfCheckingUnit;
//! use mfmult::{structural, Operation};
//!
//! let mut n = Netlist::new(TechLibrary::cmos45lp());
//! let ports = structural::build_unit(&mut n);
//! let mut unit = SelfCheckingUnit::new(&n, ports);
//! let r = unit.execute(Operation::int64(3, 5));
//! assert_eq!(r.int_product(), 15);
//! assert_eq!(unit.stats().checked_ok, 1);
//! ```

use mfm_gatesim::{CompiledNetlist, CompiledSim, LaneSim, NetId, Netlist, Simulator, ALL_LANES};
use mfm_softfloat::Flags;
use mfm_telemetry::{json::JsonObject, Counter, Registry};

use crate::format::{Format, MultResult, Operation};
use crate::functional::FunctionalUnit;
use crate::structural::StructuralPorts;

/// Residue of `x` modulo 15, computed by folding radix-16 digits
/// (`16 ≡ 1 (mod 15)`, so the residue is the nibble sum mod 15).
pub fn res15(x: u128) -> u8 {
    let mut s: u32 = 0;
    let mut v = x;
    while v != 0 {
        s += (v & 0xF) as u32;
        v >>= 4;
    }
    while s > 15 {
        s = (s & 0xF) + (s >> 4);
    }
    if s == 15 {
        0
    } else {
        s as u8
    }
}

/// Residue of `x` modulo 3. Since 3 divides 15, `x mod 3` is the mod-15
/// residue reduced once more.
pub fn res3(x: u128) -> u8 {
    res15(x) % 3
}

/// The raw hardware observables of one operation: the delivered outputs
/// and the two pre-rounding CPA sums tapped by
/// [`StructuralPorts::chk_p0`] / [`StructuralPorts::chk_p1`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawOutputs {
    /// Delivered high 64-bit output word.
    pub ph: u64,
    /// Delivered low 64-bit output word (int64 only).
    pub pl: u64,
    /// Delivered 6-bit flag bus `[inv_lo, ovf_lo, unf_lo, inv_hi,
    /// ovf_hi, unf_hi]`.
    pub flags: u8,
    /// Tapped `P0 = s + c + inj0` (no-shift rounding CPA).
    pub p0: u128,
    /// Tapped `P1 = s + c + inj1` (shift rounding CPA).
    pub p1: u128,
}

/// Which self-check rejected an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckError {
    /// A lane window of `P0`/`P1` has the wrong residue.
    Residue {
        /// Lane index (0 = low/only lane).
        lane: u8,
        /// The modulus that fired (3 or 15).
        modulus: u8,
        /// Residue read from the hardware sum.
        got: u8,
        /// Residue predicted from the operands.
        want: u8,
    },
    /// `P1 − P0` does not equal `inj1 − inj0` on a lane window.
    InjectionInvariant {
        /// Lane index (0 = low/only lane).
        lane: u8,
    },
    /// A lane window of `P0` differs from the exact `ma·mb + inj0`.
    ProductIdentity {
        /// Lane index (0 = low/only lane).
        lane: u8,
    },
    /// The word-level recompute of `PH`/`PL`/flags from the operands and
    /// the tapped sums disagrees with the delivered outputs.
    OutputMismatch,
    /// The gate-level simulation blew through its settle budget (see
    /// [`mfm_gatesim::Simulator::set_settle_budget`]): a runaway
    /// glitch storm. The outputs were never settled, so they are treated
    /// as corrupt without further analysis.
    Watchdog,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Residue {
                lane,
                modulus,
                got,
                want,
            } => write!(
                f,
                "residue check failed: lane {lane} mod {modulus}: got {got}, want {want}"
            ),
            CheckError::InjectionInvariant { lane } => {
                write!(f, "injection invariant P1-P0 violated on lane {lane}")
            }
            CheckError::ProductIdentity { lane } => {
                write!(f, "exact product identity violated on lane {lane}")
            }
            CheckError::OutputMismatch => {
                write!(f, "output recompute disagrees with delivered PH/PL/flags")
            }
            CheckError::Watchdog => {
                write!(f, "settle budget exceeded: runaway simulation aborted")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// One lane's slice of the CPA sums together with the exact word-level
/// identity it must satisfy.
#[derive(Debug, Clone, Copy)]
struct LaneWindow {
    /// Bit offset of the window inside the 128-bit sums.
    lo: u32,
    /// Window width in bits.
    width: u32,
    /// Lane significand of the first operand (0 when flushed).
    ma: u64,
    /// Lane significand of the second operand.
    mb: u64,
    /// Rounding injection added into `P0`, window-local.
    inj0: u128,
    /// Rounding injection added into `P1`, window-local.
    inj1: u128,
}

/// Significand the FMT stage feeds the array: fraction plus implicit one
/// when the exponent field is non-zero, all-zero otherwise (subnormal
/// operands are flushed to zero, Sec. II).
fn sig(word: u64, ebits: u32, fbits: u32) -> u64 {
    let emask = (1u64 << ebits) - 1;
    if (word >> fbits) & emask != 0 {
        (word & ((1u64 << fbits) - 1)) | (1u64 << fbits)
    } else {
        0
    }
}

/// The lane windows of an operation (see [`crate::lanes`] for the proof
/// that the sections of the packed array do not interfere).
fn lane_windows(op: Operation) -> Vec<LaneWindow> {
    match op.format {
        Format::Int64 => vec![LaneWindow {
            lo: 0,
            width: 128,
            ma: op.xa,
            mb: op.yb,
            inj0: 0,
            inj1: 0,
        }],
        Format::Binary64 => vec![LaneWindow {
            lo: 0,
            width: 128,
            ma: sig(op.xa, 11, 52),
            mb: sig(op.yb, 11, 52),
            inj0: 1 << 51,
            inj1: 1 << 52,
        }],
        Format::DualBinary32 | Format::SingleBinary32 => {
            let lane = |a: u64, b: u64, lo: u32| LaneWindow {
                lo,
                width: 64,
                ma: sig(a, 8, 23),
                mb: sig(b, 8, 23),
                inj0: 1 << 22,
                inj1: 1 << 23,
            };
            vec![
                lane(op.xa & 0xFFFF_FFFF, op.yb & 0xFFFF_FFFF, 0),
                lane(op.xa >> 32, op.yb >> 32, 64),
            ]
        }
        Format::QuadBinary16 => (0..4)
            .map(|k| LaneWindow {
                lo: 32 * k,
                width: 32,
                ma: sig((op.xa >> (16 * k)) & 0xFFFF, 5, 10),
                mb: sig((op.yb >> (16 * k)) & 0xFFFF, 5, 10),
                inj0: 1 << 9,
                inj1: 1 << 10,
            })
            .collect(),
    }
}

/// Runs every self-check against the raw observables of one operation.
///
/// Returns the first failing check: per-lane residues of both CPA sums
/// (mod 3, then mod 15), the injection invariant, the exact product
/// identity, then the full word-level output recompute. The ordering
/// makes the first failure attributable to the cheapest tier that can
/// see the fault (the campaign reports detections per tier).
pub fn check_raw(op: Operation, raw: &RawOutputs) -> Result<(), CheckError> {
    for (lane, w) in lane_windows(op).into_iter().enumerate() {
        let mask = if w.width == 128 {
            u128::MAX
        } else {
            (1u128 << w.width) - 1
        };
        let w0 = (raw.p0 >> w.lo) & mask;
        let w1 = (raw.p1 >> w.lo) & mask;
        for (sum, inj) in [(w0, w.inj0), (w1, w.inj1)] {
            let want3 =
                (res3(w.ma as u128) as u32 * res3(w.mb as u128) as u32 + res3(inj) as u32) % 3;
            if res3(sum) as u32 != want3 {
                return Err(CheckError::Residue {
                    lane: lane as u8,
                    modulus: 3,
                    got: res3(sum),
                    want: want3 as u8,
                });
            }
            let want15 =
                (res15(w.ma as u128) as u32 * res15(w.mb as u128) as u32 + res15(inj) as u32) % 15;
            if res15(sum) as u32 != want15 {
                return Err(CheckError::Residue {
                    lane: lane as u8,
                    modulus: 15,
                    got: res15(sum),
                    want: want15 as u8,
                });
            }
        }
        if w1.wrapping_sub(w0) & mask != (w.inj1 - w.inj0) & mask {
            return Err(CheckError::InjectionInvariant { lane: lane as u8 });
        }
        let exact = (w.ma as u128)
            .wrapping_mul(w.mb as u128)
            .wrapping_add(w.inj0)
            & mask;
        if w0 != exact {
            return Err(CheckError::ProductIdentity { lane: lane as u8 });
        }
    }
    let (ph, pl, flags) = expected_outputs(op, raw.p0, raw.p1);
    if (ph, pl, flags) != (raw.ph, raw.pl, raw.flags) {
        return Err(CheckError::OutputMismatch);
    }
    Ok(())
}

/// Per-lane operand classification, mirroring the stage-1 SPEC block.
struct LaneCls {
    a_nan: bool,
    any_nan: bool,
    any_inf: bool,
    any_zero: bool,
    invalid: bool,
    sign_p: bool,
}

fn classify(aw: u64, bw: u64, ebits: u32, fbits: u32) -> LaneCls {
    let emask = (1u64 << ebits) - 1;
    let fmask = (1u64 << fbits) - 1;
    let (ae, be) = ((aw >> fbits) & emask, (bw >> fbits) & emask);
    let (af, bf) = (aw & fmask, bw & fmask);
    let (a_ones, b_ones) = (ae == emask, be == emask);
    let (a_nan, b_nan) = (a_ones && af != 0, b_ones && bf != 0);
    let (a_inf, b_inf) = (a_ones && af == 0, b_ones && bf == 0);
    // The unit flushes subnormal inputs: exponent 0 means zero.
    let (a_zero, b_zero) = (ae == 0, be == 0);
    let a_snan = a_nan && (af >> (fbits - 1)) & 1 == 0;
    let b_snan = b_nan && (bf >> (fbits - 1)) & 1 == 0;
    LaneCls {
        a_nan,
        any_nan: a_nan || b_nan,
        any_inf: a_inf || b_inf,
        any_zero: a_zero || b_zero,
        invalid: (a_inf && b_zero) || (b_inf && a_zero) || a_snan || b_snan,
        sign_p: ((aw >> (ebits + fbits)) ^ (bw >> (ebits + fbits))) & 1 == 1,
    }
}

/// Exponent select (mirrors the `exponent_select` netlist helper): picks
/// `e0` or `e0 + 1` by the normalization bit and evaluates the biased
/// under/overflow window checks on the selected candidate.
fn exp_select(e0: u64, width: u32, sel: bool, mneg: u64) -> (u64, bool, bool) {
    let m = (1u64 << width) - 1;
    let e = if sel { (e0 + 1) & m } else { e0 };
    let unf = (e >> (width - 1)) & 1 == 1 || e == 0;
    let ovf = ((e + mneg) & m) >> (width - 1) & 1 == 0;
    (e, unf, ovf)
}

/// One lane of the SEH priority chain (mirrors the `lane_output` netlist
/// helper): NaN/invalid, then infinity/overflow, then zero/underflow,
/// then the normal `{sign, exponent, fraction}` word.
#[allow(clippy::too_many_arguments)]
fn lane_output(
    cls: &LaneCls,
    aw: u64,
    bw: u64,
    ebits: u32,
    fbits: u32,
    frac: u64,
    e_field: u64,
    unf: bool,
    ovf: bool,
) -> u64 {
    let emask = ((1u64 << ebits) - 1) << fbits;
    let sign_pos = ebits + fbits;
    let wmask = ((1u128 << (sign_pos + 1)) - 1) as u64;
    if cls.any_nan || cls.invalid {
        if cls.any_nan {
            // Propagate the first NaN operand, quieting it.
            let src = if cls.a_nan { aw } else { bw };
            (src | (1 << (fbits - 1))) & wmask
        } else {
            // Canonical quiet NaN for invalid (Inf × 0 or sNaN input).
            emask | (1 << (fbits - 1))
        }
    } else if cls.any_inf || ovf {
        ((cls.sign_p as u64) << sign_pos) | emask
    } else if cls.any_zero || unf {
        (cls.sign_p as u64) << sign_pos
    } else {
        ((cls.sign_p as u64) << sign_pos) | (e_field << fbits) | frac
    }
}

/// One lane's `[invalid, overflow, underflow]` bits (mirrors the
/// `lane_flags` netlist helper): range flags fire only for finite,
/// non-zero floating-point lanes.
fn lane_flags(cls: &LaneCls, unf: bool, ovf: bool) -> u8 {
    let normal = !(cls.any_nan || cls.any_inf || cls.any_zero);
    (cls.invalid as u8) | (((ovf && normal) as u8) << 1) | (((unf && normal) as u8) << 2)
}

/// Word-level mirror of the stage-3 logic after the rounding CPAs:
/// recomputes the delivered `(PH, PL, flags)` from the operands and the
/// two tapped sums. This is the third tier of [`check_raw`].
pub fn expected_outputs(op: Operation, p0: u128, p1: u128) -> (u64, u64, u8) {
    const MASK52: u64 = (1 << 52) - 1;
    const MASK23: u64 = (1 << 23) - 1;
    let (xa, yb) = (op.xa, op.yb);
    match op.format {
        Format::Int64 => ((p0 >> 64) as u64, p0 as u64, 0),
        Format::Binary64 => {
            let cls = classify(xa, yb, 11, 52);
            let e0 = (((xa >> 52) & 0x7FF) + ((yb >> 52) & 0x7FF) + 7169) & 0x1FFF;
            let sel = (p0 >> 105) & 1 == 1;
            let (e, unf, ovf) = exp_select(e0, 13, sel, 6145);
            let frac = if sel {
                ((p1 >> 53) as u64) & MASK52
            } else {
                ((p0 >> 52) as u64) & MASK52
            };
            let out = lane_output(&cls, xa, yb, 11, 52, frac, e & 0x7FF, unf, ovf);
            (out, 0, lane_flags(&cls, unf, ovf))
        }
        Format::DualBinary32 | Format::SingleBinary32 => {
            let (alo, ahi) = (xa & 0xFFFF_FFFF, xa >> 32);
            let (blo, bhi) = (yb & 0xFFFF_FFFF, yb >> 32);
            // Lower lane: its own 10-bit exponent path.
            let cls_lo = classify(alo, blo, 8, 23);
            let e0_lo = (((alo >> 23) & 0xFF) + ((blo >> 23) & 0xFF) + 897) & 0x3FF;
            let sel_lo = (p0 >> 47) & 1 == 1;
            let (el, unf_lo, ovf_lo) = exp_select(e0_lo, 10, sel_lo, 769);
            let frac_lo = if sel_lo {
                ((p1 >> 24) as u64) & MASK23
            } else {
                ((p0 >> 23) as u64) & MASK23
            };
            let out_lo = lane_output(&cls_lo, alo, blo, 8, 23, frac_lo, el & 0xFF, unf_lo, ovf_lo);
            // Upper lane: rides the (rebias-muxed) main exponent path.
            let cls_hi = classify(ahi, bhi, 8, 23);
            let e0_hi = (((ahi >> 23) & 0xFF) + ((bhi >> 23) & 0xFF) + 8065) & 0x1FFF;
            let sel_hi = (p0 >> 111) & 1 == 1;
            let (eh, unf_hi, ovf_hi) = exp_select(e0_hi, 13, sel_hi, 7937);
            let frac_hi = if sel_hi {
                ((p1 >> 88) as u64) & MASK23
            } else {
                ((p0 >> 87) as u64) & MASK23
            };
            let out_hi = lane_output(&cls_hi, ahi, bhi, 8, 23, frac_hi, eh & 0xFF, unf_hi, ovf_hi);
            let flags =
                lane_flags(&cls_lo, unf_lo, ovf_lo) | (lane_flags(&cls_hi, unf_hi, ovf_hi) << 3);
            (out_lo | (out_hi << 32), 0, flags)
        }
        Format::QuadBinary16 => {
            let mut ph = 0u64;
            for k in 0..4 {
                let aw = (xa >> (16 * k)) & 0xFFFF;
                let bw = (yb >> (16 * k)) & 0xFFFF;
                let cls = classify(aw, bw, 5, 10);
                let e0 = (((aw >> 10) & 0x1F) + ((bw >> 10) & 0x1F) + 241) & 0xFF;
                let sel = (p0 >> (32 * k + 21)) & 1 == 1;
                let (e, unf, ovf) = exp_select(e0, 8, sel, 225);
                let frac = if sel {
                    ((p1 >> (32 * k + 11)) as u64) & 0x3FF
                } else {
                    ((p0 >> (32 * k + 10)) as u64) & 0x3FF
                };
                ph |= lane_output(&cls, aw, bw, 5, 10, frac, e & 0x1F, unf, ovf) << (16 * k);
            }
            // The quad extension reports no flags (the flag bus serves the
            // paper's three formats).
            (ph, 0, 0)
        }
    }
}

/// Maps the delivered flag bus to [`Flags`] words. The structural unit
/// reports invalid/overflow/underflow; inexact is not wired out (the
/// paper's interface, Fig. 5).
fn flags_from_bits(bits: u8) -> Flags {
    let mut f = Flags::NONE;
    if bits & 1 != 0 {
        f |= Flags::INVALID;
    }
    if bits & 2 != 0 {
        f |= Flags::OVERFLOW;
    }
    if bits & 4 != 0 {
        f |= Flags::UNDERFLOW;
    }
    f
}

/// Packs checked raw observables into a [`MultResult`].
pub fn result_from_raw(op: Operation, raw: &RawOutputs) -> MultResult {
    MultResult {
        format: op.format,
        ph: raw.ph,
        pl: raw.pl,
        flags_lo: flags_from_bits(raw.flags & 0x7),
        flags_hi: flags_from_bits((raw.flags >> 3) & 0x7),
    }
}

/// Drives one operation through a structural simulator and collects the
/// raw observables, honouring the build's pipeline latency (the check
/// taps are combinational stage-3 nets, valid one cycle before the
/// registered outputs).
pub fn run_raw(sim: &mut Simulator<'_>, ports: &StructuralPorts, op: Operation) -> RawOutputs {
    let inputs: [(&[NetId], u128); 3] = [
        (&ports.frmt, op.format.encoding() as u128),
        (&ports.xa, op.xa as u128),
        (&ports.yb, op.yb as u128),
    ];
    if ports.latency == 0 {
        for (bus, v) in &inputs {
            sim.set_bus(bus, *v);
        }
        sim.settle();
        read_raw(sim, ports)
    } else {
        for _ in 0..ports.latency {
            sim.step_cycle(&inputs);
        }
        let p0 = sim.read_bus(&ports.chk_p0);
        let p1 = sim.read_bus(&ports.chk_p1);
        sim.step_cycle(&inputs);
        let mut raw = read_raw(sim, ports);
        raw.p0 = p0;
        raw.p1 = p1;
        raw
    }
}

fn read_raw(sim: &Simulator<'_>, ports: &StructuralPorts) -> RawOutputs {
    RawOutputs {
        ph: sim.read_bus(&ports.ph) as u64,
        pl: sim.read_bus(&ports.pl) as u64,
        flags: sim.read_bus(&ports.flags) as u8,
        p0: sim.read_bus(&ports.chk_p0),
        p1: sim.read_bus(&ports.chk_p1),
    }
}

/// Reads the observables of lanes `0..lanes`, one word-wise read per bus.
fn read_raw_lanes<const W: usize>(
    sim: &LaneSim<'_, W>,
    ports: &StructuralPorts,
    lanes: usize,
) -> Vec<RawOutputs> {
    let read = |bus: &[NetId]| sim.read_bus_lanes(bus, lanes);
    let (ph, pl, flags) = (read(&ports.ph), read(&ports.pl), read(&ports.flags));
    let (p0, p1) = (read(&ports.chk_p0), read(&ports.chk_p1));
    (0..lanes)
        .map(|l| RawOutputs {
            ph: ph[l] as u64,
            pl: pl[l] as u64,
            flags: flags[l] as u8,
            p0: p0[l],
            p1: p1[l],
        })
        .collect()
}

/// Compiled-engine counterpart of [`run_raw`]: drives up to
/// [`LaneSim::LANES`] operations (256 on a [`CompiledSim`], 64 at
/// width 1) — one per lane — through a bit-parallel [`LaneSim`] and
/// returns one [`RawOutputs`] per operation, in
/// order. Combinational builds take a single propagation pass for the
/// whole batch; pipelined builds take `latency + 1` clock passes
/// ([`LaneSim::step_cycle`]) with the per-lane inputs held
/// constant, reading the check taps one cycle before the registered
/// outputs exactly as [`run_raw`] does.
///
/// The returned observables equal the event-driven settled values for
/// the same operations and the same stuck-at overlay (see
/// [`mfm_gatesim::compiled`] for why); timing-dependent effects —
/// glitch power, settle budgets, transient faults — are invisible here.
///
/// # Panics
///
/// Panics if more than [`LaneSim::LANES`] operations are passed.
pub fn run_raw_compiled<const W: usize>(
    sim: &mut LaneSim<'_, W>,
    ports: &StructuralPorts,
    ops: &[Operation],
) -> Vec<RawOutputs> {
    let width = LaneSim::<W>::LANES;
    assert!(ops.len() <= width, "at most {width} lanes per pass");
    let Some(&first) = ops.first() else {
        return Vec::new();
    };
    // Unused lanes carry vector 0 as harmless filler (never read back).
    sim.set_bus_all(&ports.frmt, first.format.encoding() as u128);
    sim.set_bus_all(&ports.xa, first.xa as u128);
    sim.set_bus_all(&ports.yb, first.yb as u128);
    let lanes = |f: fn(&Operation) -> u128| ops.iter().map(f).collect::<Vec<u128>>();
    sim.set_bus_lanes(&ports.frmt, &lanes(|op| op.format.encoding() as u128));
    sim.set_bus_lanes(&ports.xa, &lanes(|op| op.xa as u128));
    sim.set_bus_lanes(&ports.yb, &lanes(|op| op.yb as u128));
    if ports.latency == 0 {
        sim.propagate();
        read_raw_lanes(sim, ports, ops.len())
    } else {
        for _ in 0..ports.latency {
            sim.step_cycle();
        }
        let p0 = sim.read_bus_lanes(&ports.chk_p0, ops.len());
        let p1 = sim.read_bus_lanes(&ports.chk_p1, ops.len());
        sim.step_cycle();
        let mut raws = read_raw_lanes(sim, ports, ops.len());
        for ((raw, p0), p1) in raws.iter_mut().zip(p0).zip(p1) {
            raw.p0 = p0;
            raw.p1 = p1;
        }
        raws
    }
}

/// Replays a scrub battery on the compiled bit-parallel engine under a
/// stuck-at overlay, returning the first vector that trips
/// [`check_raw`]. All [`mfm_gatesim::LANES`] (256) lanes share the same
/// fault set, so one propagation pass verifies up to 256 battery
/// vectors.
///
/// The compiled values equal the event-driven settled values under the
/// same overlay, so the verdict is the settled battery's verdict: the
/// resilient pool engine scrubs on it alone. Only timing effects lie
/// outside it — a [`SelfCheckingUnit`] whose event-driven settle budget
/// aborts a battery vector ([`CheckError::Watchdog`]) fails its own
/// [`SelfCheckingUnit::run_scrub`] where this passes.
pub fn run_scrub_compiled(
    prog: &CompiledNetlist,
    ports: &StructuralPorts,
    faults: &[(NetId, bool)],
    battery: &[Operation],
) -> Result<(), (Operation, CheckError)> {
    let mut sim = CompiledSim::new(prog);
    for &(net, forced) in faults {
        sim.inject_stuck_at(net, ALL_LANES, forced);
    }
    scrub_compiled(&mut sim, ports, battery)
}

/// [`run_scrub_compiled`] on a caller-held simulator of any width,
/// under the overlay it is armed with ([`LaneSim::arm_overlays`]), so
/// one settled simulator serves every scrub of a pool instead of one per
/// call.
pub fn scrub_compiled<const W: usize>(
    sim: &mut LaneSim<'_, W>,
    ports: &StructuralPorts,
    battery: &[Operation],
) -> Result<(), (Operation, CheckError)> {
    for chunk in battery.chunks(LaneSim::<W>::LANES) {
        let raws = run_raw_compiled(sim, ports, chunk);
        for (&op, raw) in chunk.iter().zip(&raws) {
            check_raw(op, raw).map_err(|e| (op, e))?;
        }
    }
    Ok(())
}

/// The fixed self-test vector battery a recovery scrub replays: array
/// stress patterns, per-format lane-isolation vectors (one lane hot, the
/// others flushed-zero — any cross-lane interference trips the exact
/// product identity), and the IEEE special-case ladder (NaN propagation,
/// invalid, overflow, underflow) that exercises the SEH priority chain
/// the sum checks cannot see. Pass `quad_lanes` only for units built
/// with the quad-binary16 extension; the battery then also walks the
/// four half-precision lanes one at a time.
pub fn scrub_battery(quad_lanes: bool) -> Vec<Operation> {
    const B64_ONE: u64 = 0x3FF0_0000_0000_0000;
    const B64_TWO: u64 = 0x4000_0000_0000_0000;
    const B64_MAX: u64 = 0x7FEF_FFFF_FFFF_FFFF;
    const B64_MIN_NORMAL: u64 = 0x0010_0000_0000_0000;
    const B64_QNAN: u64 = 0x7FF8_0000_0000_0001;
    const B64_INF: u64 = 0x7FF0_0000_0000_0000;
    const B32_PATTERN_A: u32 = 0xAAAA_AAAA;
    const B32_PATTERN_5: u32 = 0x5555_5555;
    const B32_MAX: u32 = 0x7F7F_FFFF;
    const B32_MIN_NORMAL: u32 = 0x0080_0000;
    const B32_QNAN: u32 = 0x7FC0_0001;
    const B32_INF: u32 = 0x7F80_0000;
    const B16_ONE_AND_HALF: u16 = 0x3E00;
    const B16_QNAN: u16 = 0x7E01;
    let mut v = vec![
        // Integer array stress: corners and alternating recode patterns.
        Operation::int64(0, 0),
        Operation::int64(u64::MAX, u64::MAX),
        Operation::int64(0xAAAA_AAAA_AAAA_AAAA, 0x5555_5555_5555_5555),
        Operation::int64(1, u64::MAX),
        Operation::int64(0x8000_0000_0000_0001, 0xFFFF_FFFF_0000_0001),
        // binary64: normal product plus the IEEE special-case ladder.
        Operation::binary64(B64_ONE, B64_TWO),
        Operation::binary64(0xBFF8_0000_0000_0001, 0x4008_0000_0000_0003),
        Operation::binary64(B64_MAX, B64_MAX), // overflow
        Operation::binary64(B64_MIN_NORMAL, B64_MIN_NORMAL), // underflow
        Operation::binary64(B64_QNAN, B64_ONE), // NaN propagation
        Operation::binary64(B64_INF, 0),       // invalid: Inf × 0
        // dual binary32 lane isolation: lower hot, upper flushed-zero...
        Operation::dual_binary32(B32_PATTERN_A, B32_PATTERN_5, 0, 0),
        // ...then upper hot, lower flushed-zero...
        Operation::dual_binary32(0, 0, B32_PATTERN_5, B32_PATTERN_A),
        // ...then both lanes hot with opposite specials.
        Operation::dual_binary32(B32_MAX, B32_MAX, B32_MIN_NORMAL, B32_MIN_NORMAL),
        Operation::dual_binary32(B32_QNAN, B32_PATTERN_A, B32_INF, 0),
        Operation::single_binary32(B32_PATTERN_A, B32_PATTERN_A),
    ];
    if quad_lanes {
        // Walk the four binary16 lanes one at a time, then mix specials.
        for k in 0..4 {
            let mut a = [0u16; 4];
            let mut b = [0u16; 4];
            a[k] = B16_ONE_AND_HALF;
            b[k] = 0x5555;
            v.push(Operation::quad_binary16(a, b));
        }
        v.push(Operation::quad_binary16(
            [0x7BFF, 0x0400, B16_QNAN, 0x7C00],
            [0x7BFF, 0x0400, 0x3C00, 0x0000],
        ));
    }
    v
}

/// Lifetime counters of a [`SelfCheckingUnit`].
#[derive(Debug, Clone, Default)]
pub struct SelfCheckStats {
    /// Operations executed.
    pub ops: u64,
    /// Operations whose hardware result passed every check.
    pub checked_ok: u64,
    /// Check failures observed (first attempt per operation).
    pub mismatches: u64,
    /// Retries attempted after a check failure.
    pub retries: u64,
    /// Retries whose re-execution passed (transient faults).
    pub retry_successes: u64,
    /// Operations served by the functional fallback.
    pub fallback_ops: u64,
    /// Successful [`SelfCheckingUnit::try_recover`] scrubs (the degraded
    /// latch was cleared and hardware service resumed).
    pub recoveries: u64,
    /// Failed recovery attempts (the scrub battery tripped a check).
    pub failed_recoveries: u64,
    /// Whether the unit has degraded to the fallback (clearable by a
    /// successful [`SelfCheckingUnit::try_recover`]).
    pub degraded: bool,
    /// The check that first rejected a hardware result, if any.
    pub first_failure: Option<CheckError>,
}

impl std::fmt::Display for SelfCheckStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ops {}, checked-ok {}, mismatches {}, retries {} ({} recovered), \
             fallback {}, scrubs {} ok / {} failed, degraded {}",
            self.ops,
            self.checked_ok,
            self.mismatches,
            self.retries,
            self.retry_successes,
            self.fallback_ops,
            self.recoveries,
            self.failed_recoveries,
            self.degraded
        )?;
        if let Some(e) = self.first_failure {
            write!(f, " (first failure: {e})")?;
        }
        Ok(())
    }
}

/// What a logged [`Incident`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// A hardware result failed a check on the first attempt.
    CheckFailure,
    /// The retry after a check failure passed (transient fault healed).
    RetryRecovered,
    /// The retry also failed; the unit degraded to the fallback.
    Degraded,
    /// A [`SelfCheckingUnit::try_recover`] scrub passed: faults cleared,
    /// the battery replayed clean, hardware service resumed.
    Recovered,
    /// A recovery scrub failed: the battery tripped a check and the unit
    /// stays (or becomes) degraded.
    RecoveryFailed,
}

impl IncidentKind {
    /// Stable lower-snake-case label used in metrics and JSON.
    pub const fn label(self) -> &'static str {
        match self {
            IncidentKind::CheckFailure => "check_failure",
            IncidentKind::RetryRecovered => "retry_recovered",
            IncidentKind::Degraded => "degraded",
            IncidentKind::Recovered => "recovered",
            IncidentKind::RecoveryFailed => "recovery_failed",
        }
    }
}

/// One entry of the structured incident log a [`SelfCheckingUnit`]
/// keeps: which operation tripped which event, timestamped with the
/// simulator's cycle counter at the moment it was recorded.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Ordinal of the operation (1-based, equals `stats.ops` at the
    /// time).
    pub op: u64,
    /// Simulator cycle count when the incident was recorded.
    pub cycle: u64,
    /// Format of the offending operation.
    pub format: Format,
    /// What happened.
    pub kind: IncidentKind,
    /// Human-readable detail — the check that fired, rendered via
    /// [`CheckError`]'s `Display`.
    pub detail: String,
}

impl Incident {
    /// Renders the incident as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("event", "incident")
            .field_u64("op", self.op)
            .field_u64("cycle", self.cycle)
            .field_str("format", self.format.label())
            .field_str("kind", self.kind.label())
            .field_str("detail", &self.detail);
        o.finish()
    }
}

/// Registry handles for a [`SelfCheckingUnit`] (see
/// [`SelfCheckingUnit::attach_telemetry`]).
struct ScTelemetry {
    /// Per-format operation counters, indexed by `frmt` slot below.
    ops_by_format: [Counter; 5],
    checked_ok: Counter,
    mismatches: Counter,
    retries: Counter,
    retry_successes: Counter,
    fallback_ops: Counter,
    incidents: Counter,
    recoveries: Counter,
    failed_recoveries: Counter,
}

fn format_slot(f: Format) -> usize {
    match f {
        Format::Int64 => 0,
        Format::Binary64 => 1,
        Format::DualBinary32 => 2,
        Format::SingleBinary32 => 3,
        Format::QuadBinary16 => 4,
    }
}

const FORMAT_SLOTS: [Format; 5] = [
    Format::Int64,
    Format::Binary64,
    Format::DualBinary32,
    Format::SingleBinary32,
    Format::QuadBinary16,
];

/// The structural unit under continuous online checking, with retry on
/// transient faults and graceful degradation to the functional model on
/// permanent ones (see the module docs).
pub struct SelfCheckingUnit<'a> {
    sim: Simulator<'a>,
    ports: StructuralPorts,
    fallback: FunctionalUnit,
    pending_seus: Vec<(u32, NetId)>,
    stats: SelfCheckStats,
    incidents: Vec<Incident>,
    telemetry: Option<ScTelemetry>,
}

impl<'a> SelfCheckingUnit<'a> {
    /// Wraps a built structural (combinational or pipelined) unit.
    pub fn new(netlist: &'a Netlist, ports: StructuralPorts) -> Self {
        SelfCheckingUnit {
            sim: Simulator::new(netlist),
            ports,
            fallback: FunctionalUnit::new(),
            pending_seus: Vec::new(),
            stats: SelfCheckStats::default(),
            incidents: Vec::new(),
            telemetry: None,
        }
    }

    /// Registers this unit's counters in `registry` and starts mirroring
    /// every event into them: `selfcheck.ops.<format>` per executed
    /// format plus `selfcheck.{checked_ok, mismatches, retries,
    /// retry_successes, fallback_ops, incidents}`. Counters are
    /// cumulative from the moment of attachment (earlier operations are
    /// not back-filled).
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = Some(ScTelemetry {
            ops_by_format: FORMAT_SLOTS
                .map(|f| registry.counter(&format!("selfcheck.ops.{}", f.label()))),
            checked_ok: registry.counter("selfcheck.checked_ok"),
            mismatches: registry.counter("selfcheck.mismatches"),
            retries: registry.counter("selfcheck.retries"),
            retry_successes: registry.counter("selfcheck.retry_successes"),
            fallback_ops: registry.counter("selfcheck.fallback_ops"),
            incidents: registry.counter("selfcheck.incidents"),
            recoveries: registry.counter("selfcheck.recoveries"),
            failed_recoveries: registry.counter("selfcheck.failed_recoveries"),
        });
    }

    /// The structured incident log: one entry per check failure, retry
    /// recovery and degradation, in the order they happened.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    fn record_incident(&mut self, format: Format, kind: IncidentKind, detail: String) {
        if let Some(t) = &self.telemetry {
            t.incidents.inc();
        }
        self.incidents.push(Incident {
            op: self.stats.ops,
            cycle: self.sim.cycles(),
            format,
            kind,
            detail,
        });
    }

    /// The wrapped unit's port map.
    pub fn ports(&self) -> &StructuralPorts {
        &self.ports
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &SelfCheckStats {
        &self.stats
    }

    /// Whether the unit has switched permanently to the fallback.
    pub fn is_degraded(&self) -> bool {
        self.stats.degraded
    }

    /// Read access to the underlying simulator (event counters, net
    /// state).
    pub fn sim(&self) -> &Simulator<'a> {
        &self.sim
    }

    /// Direct access to the underlying simulator (fault injection,
    /// power/toggle readout).
    pub fn sim_mut(&mut self) -> &mut Simulator<'a> {
        &mut self.sim
    }

    /// Clears injected faults, drops any armed SEUs and re-settles the
    /// hardware — the physical-repair half of a recovery scrub, without
    /// touching counters, the incident log or the degraded latch. Call
    /// [`SelfCheckingUnit::try_recover_with`] afterwards to re-verify
    /// (or [`SelfCheckingUnit::try_recover`], which does both).
    pub fn repair(&mut self) {
        self.sim.clear_faults();
        self.sim.recompute();
        let _ = self.sim.take_budget_exceeded();
        self.pending_seus.clear();
    }

    /// Replays a self-test battery on the raw hardware path, returning
    /// the first vector that trips a check. Battery vectors do not count
    /// as operations in [`SelfCheckStats`] (they are maintenance, not
    /// service), and the degraded latch is not consulted — the scrub
    /// deliberately exercises hardware the unit may have stopped
    /// trusting.
    pub fn run_scrub(&mut self, battery: &[Operation]) -> Result<(), (Operation, CheckError)> {
        for &op in battery {
            let raw = self.run_hw(op, &[]);
            if self.sim.take_budget_exceeded() {
                self.sim.recompute();
                return Err((op, CheckError::Watchdog));
            }
            check_raw(op, &raw).map_err(|e| (op, e))?;
        }
        Ok(())
    }

    /// Scrub-and-readmit: repairs the hardware ([`SelfCheckingUnit::repair`])
    /// and replays the default scrub battery ([`scrub_battery`], paper
    /// formats). On a clean pass the degraded latch is cleared and the
    /// unit serves gate-level results again — degradation is recoverable,
    /// not one-way. On a failed pass the unit stays (or becomes)
    /// degraded. Either outcome is counted in [`SelfCheckStats`] and
    /// recorded in the incident log.
    pub fn try_recover(&mut self) -> bool {
        self.repair();
        self.try_recover_with(&scrub_battery(false))
    }

    /// Like [`SelfCheckingUnit::try_recover`] but with a caller-supplied
    /// battery, and **without** the repair step — for callers that
    /// re-assert environment faults between repair and re-verify, and
    /// for quad-lane builds to pass `scrub_battery(true)`.
    pub fn try_recover_with(&mut self, battery: &[Operation]) -> bool {
        match self.run_scrub(battery) {
            Ok(()) => {
                self.stats.degraded = false;
                self.stats.recoveries += 1;
                if let Some(t) = &self.telemetry {
                    t.recoveries.inc();
                }
                self.record_incident(
                    Format::Int64,
                    IncidentKind::Recovered,
                    format!("scrub battery passed ({} vectors)", battery.len()),
                );
                true
            }
            Err((op, e)) => {
                self.stats.degraded = true;
                self.stats.failed_recoveries += 1;
                if let Some(t) = &self.telemetry {
                    t.failed_recoveries.inc();
                }
                self.record_incident(op.format, IncidentKind::RecoveryFailed, e.to_string());
                false
            }
        }
    }

    /// Injects a permanent stuck-at fault into the wrapped hardware.
    pub fn inject_stuck_at(&mut self, net: NetId, value: bool) {
        self.sim.inject_stuck_at(net, value);
    }

    /// Removes every injected fault (the unit stays degraded if it
    /// already tripped; see [`SelfCheckingUnit::reset`]).
    pub fn clear_faults(&mut self) {
        self.sim.clear_faults();
    }

    /// Clears faults, counters and the degraded latch — a repair plus
    /// power cycle.
    pub fn reset(&mut self) {
        self.sim.clear_faults();
        self.sim.settle();
        self.pending_seus.clear();
        self.stats = SelfCheckStats::default();
        self.incidents.clear();
    }

    /// Arms a single-event upset for the **next** [`execute`] call: net
    /// `net` is flipped across clock edge `edge` (1-based; edges
    /// `1..=latency+1` exist per operation, the last one latching the
    /// outputs) and released immediately after, so the flipped value is
    /// exactly what the downstream pipeline registers capture. On a
    /// combinational build the pulse cannot be latched anywhere and is
    /// always masked.
    ///
    /// [`execute`]: SelfCheckingUnit::execute
    pub fn schedule_seu(&mut self, edge: u32, net: NetId) {
        self.pending_seus.push((edge, net));
    }

    /// Executes one operation under checking. Hardware results are
    /// delivered only when every check passes; a failed check triggers
    /// one retry, and a failed retry permanently degrades the unit to
    /// the bit-exact functional fallback.
    pub fn execute(&mut self, op: Operation) -> MultResult {
        self.stats.ops += 1;
        if let Some(t) = &self.telemetry {
            t.ops_by_format[format_slot(op.format)].inc();
        }
        if self.stats.degraded {
            self.stats.fallback_ops += 1;
            if let Some(t) = &self.telemetry {
                t.fallback_ops.inc();
            }
            return self.fallback.execute(op);
        }
        let seus = std::mem::take(&mut self.pending_seus);
        let raw = self.run_hw(op, &seus);
        match self.verdict(op, &raw) {
            Ok(()) => {
                self.stats.checked_ok += 1;
                if let Some(t) = &self.telemetry {
                    t.checked_ok.inc();
                }
                result_from_raw(op, &raw)
            }
            Err(e) => {
                self.stats.mismatches += 1;
                if self.stats.first_failure.is_none() {
                    self.stats.first_failure = Some(e);
                }
                self.stats.retries += 1;
                if let Some(t) = &self.telemetry {
                    t.mismatches.inc();
                    t.retries.inc();
                }
                self.record_incident(op.format, IncidentKind::CheckFailure, e.to_string());
                let raw2 = self.run_hw(op, &[]);
                match self.verdict(op, &raw2) {
                    Ok(()) => {
                        self.stats.retry_successes += 1;
                        self.stats.checked_ok += 1;
                        if let Some(t) = &self.telemetry {
                            t.retry_successes.inc();
                            t.checked_ok.inc();
                        }
                        self.record_incident(
                            op.format,
                            IncidentKind::RetryRecovered,
                            e.to_string(),
                        );
                        result_from_raw(op, &raw2)
                    }
                    Err(e2) => {
                        self.stats.degraded = true;
                        self.stats.fallback_ops += 1;
                        if let Some(t) = &self.telemetry {
                            t.fallback_ops.inc();
                        }
                        self.record_incident(op.format, IncidentKind::Degraded, e2.to_string());
                        self.fallback.execute(op)
                    }
                }
            }
        }
    }

    /// Raw (unchecked) hardware observables for one operation — the
    /// campaign runner classifies these itself.
    pub fn execute_raw(&mut self, op: Operation) -> RawOutputs {
        self.run_hw(op, &[])
    }

    /// Full check verdict on one executed operation: the watchdog first
    /// (a budget-aborted settle means the observables were never valid,
    /// so no point checking them), then the check ladder of
    /// [`check_raw`]. Repairs the aborted simulation state before
    /// returning so a retry runs on consistent hardware.
    fn verdict(&mut self, op: Operation, raw: &RawOutputs) -> Result<(), CheckError> {
        if self.sim.take_budget_exceeded() {
            self.sim.recompute();
            return Err(CheckError::Watchdog);
        }
        check_raw(op, raw)
    }

    fn run_hw(&mut self, op: Operation, seus: &[(u32, NetId)]) -> RawOutputs {
        let inputs: [(&[NetId], u128); 3] = [
            (&self.ports.frmt, op.format.encoding() as u128),
            (&self.ports.xa, op.xa as u128),
            (&self.ports.yb, op.yb as u128),
        ];
        if self.ports.latency == 0 {
            for (bus, v) in &inputs {
                self.sim.set_bus(bus, *v);
            }
            // A combinational SET pulse: asserted, propagated, healed —
            // the settled outputs never see it (no state to capture it).
            for &(_, net) in seus {
                let cur = self.sim.read_bus(&[net]) & 1 == 1;
                self.sim.inject_stuck_at(net, !cur);
                self.sim.settle();
                self.sim.clear_fault(net);
            }
            self.sim.settle();
            return read_raw(&self.sim, &self.ports);
        }
        let mut taps = (0u128, 0u128);
        for edge in 1..=self.ports.latency + 1 {
            let mut pulsed = Vec::new();
            for &(at, net) in seus {
                if at == edge {
                    let cur = self.sim.read_bus(&[net]) & 1 == 1;
                    self.sim.inject_stuck_at(net, !cur);
                    pulsed.push(net);
                }
            }
            if !pulsed.is_empty() {
                // Let the pulse spread through the combinational cloud so
                // the upcoming edge captures it.
                self.sim.settle();
            }
            self.sim.step_cycle(&inputs);
            for net in pulsed {
                self.sim.clear_fault(net);
            }
            if edge == self.ports.latency {
                taps = (
                    self.sim.read_bus(&self.ports.chk_p0),
                    self.sim.read_bus(&self.ports.chk_p1),
                );
            }
        }
        // Heal any released pulse before the next operation.
        self.sim.settle();
        let mut raw = read_raw(&self.sim, &self.ports);
        raw.p0 = taps.0;
        raw.p1 = taps.1;
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{build_pipelined_unit, PipelinePlacement};
    use crate::structural::{build_unit, build_unit_quad};
    use mfm_gatesim::netlist::Netlist;
    use mfm_gatesim::tech::TechLibrary;
    use mfm_prng::Rng;

    const CASES: usize = if cfg!(debug_assertions) { 80 } else { 400 };

    fn random_op(rng: &mut Rng, which: usize) -> Operation {
        match which {
            0 => Operation::int64(rng.next_u64(), rng.next_u64()),
            1 => Operation::binary64(rng.next_u64(), rng.next_u64()),
            2 => Operation::dual_binary32(
                rng.next_u32(),
                rng.next_u32(),
                rng.next_u32(),
                rng.next_u32(),
            ),
            3 => Operation::single_binary32(rng.next_u32(), rng.next_u32()),
            _ => Operation::quad_binary16(
                [0u16; 4].map(|_| rng.next_u16()),
                [0u16; 4].map(|_| rng.next_u16()),
            ),
        }
    }

    #[test]
    fn residues_match_modulo() {
        let mut rng = Rng::new(0x315);
        for _ in 0..2000 {
            let x = (rng.next_u64() as u128) << 64 | rng.next_u64() as u128;
            assert_eq!(res3(x) as u128, x % 3);
            assert_eq!(res15(x) as u128, x % 15);
        }
        assert_eq!(res15(0), 0);
        assert_eq!(res15(15), 0);
        assert_eq!(res15(u128::MAX), (u128::MAX % 15) as u8);
    }

    #[test]
    fn mirror_matches_quad_netlist_all_formats() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit_quad(&mut n);
        let mut sim = Simulator::new(&n);
        let mut rng = Rng::new(0x5e1f);
        for case in 0..CASES {
            let op = random_op(&mut rng, case % 5);
            let raw = run_raw(&mut sim, &ports, op);
            let want = expected_outputs(op, raw.p0, raw.p1);
            assert_eq!(want, (raw.ph, raw.pl, raw.flags), "case {case}: {op:?}");
            assert_eq!(check_raw(op, &raw), Ok(()), "case {case}: {op:?}");
        }
    }

    #[test]
    fn mirror_matches_paper_netlist() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut sim = Simulator::new(&n);
        let mut rng = Rng::new(0x90de);
        for case in 0..CASES {
            let op = random_op(&mut rng, case % 4);
            let raw = run_raw(&mut sim, &ports, op);
            let want = expected_outputs(op, raw.p0, raw.p1);
            assert_eq!(want, (raw.ph, raw.pl, raw.flags), "case {case}: {op:?}");
            assert_eq!(check_raw(op, &raw), Ok(()), "case {case}: {op:?}");
        }
    }

    #[test]
    fn pipelined_clean_run_checks_ok() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_pipelined_unit(&mut n, PipelinePlacement::Fig5);
        let mut unit = SelfCheckingUnit::new(&n, ports);
        let reference = FunctionalUnit::new();
        let mut rng = Rng::new(0x11fe);
        for case in 0..16 {
            let op = random_op(&mut rng, case % 4);
            let got = unit.execute(op);
            let want = reference.execute(op);
            assert!(got.agrees_hw(&want), "case {case}: {op:?}");
        }
        assert_eq!(unit.stats().mismatches, 0);
        assert!(!unit.is_degraded());
    }

    #[test]
    fn stuck_at_fault_degrades_to_exact_fallback() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut unit = SelfCheckingUnit::new(&n, ports);
        // Healthy first.
        assert_eq!(unit.execute(Operation::int64(2, 3)).int_product(), 6);
        // Stick the P0 LSB high: int64(2, 3) delivers 7 from the raw
        // hardware, which the residue check must refuse.
        let lsb = unit.ports().chk_p0[0];
        unit.inject_stuck_at(lsb, true);
        let reference = FunctionalUnit::new();
        let mut rng = Rng::new(0xfa11);
        for case in 0..12 {
            let op = random_op(&mut rng, case % 4);
            let got = unit.execute(op);
            let want = reference.execute(op);
            assert_eq!(got.ph, want.ph, "case {case}: {op:?}");
            assert_eq!(got.pl, want.pl, "case {case}: {op:?}");
        }
        let s = unit.stats();
        assert!(s.degraded, "permanent fault must trip the fallback");
        assert!(s.retries >= 1 && s.retry_successes == 0);
        assert!(matches!(s.first_failure, Some(CheckError::Residue { .. })));
        // Repair: after reset the hardware path serves again.
        unit.reset();
        assert_eq!(unit.execute(Operation::int64(7, 9)).int_product(), 63);
        assert!(!unit.is_degraded());
    }

    #[test]
    fn incident_log_and_telemetry_track_degradation() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut unit = SelfCheckingUnit::new(&n, ports);
        let registry = Registry::new();
        unit.attach_telemetry(&registry);
        assert_eq!(unit.execute(Operation::int64(2, 3)).int_product(), 6);
        assert!(unit.incidents().is_empty());
        let lsb = unit.ports().chk_p0[0];
        unit.inject_stuck_at(lsb, true);
        let _ = unit.execute(Operation::int64(2, 3));
        let _ = unit.execute(Operation::binary64(
            0x3FF0_0000_0000_0000,
            0x4000_0000_0000_0000,
        ));
        let inc = unit.incidents();
        // Permanent fault: first attempt fails, retry fails, degrade —
        // two incidents for the faulty op, none for the fallback op.
        assert_eq!(inc.len(), 2);
        assert_eq!(inc[0].kind, IncidentKind::CheckFailure);
        assert_eq!(inc[1].kind, IncidentKind::Degraded);
        assert_eq!(inc[0].op, 2);
        assert!(inc[0].detail.contains("residue"), "{}", inc[0].detail);
        let line = inc[0].to_json();
        assert!(mfm_telemetry::json::check(&line).is_ok(), "{line}");
        assert!(line.contains("\"kind\":\"check_failure\""));
        assert!(line.contains("\"format\":\"int64\""));
        // Registry mirrors the stats counters.
        assert_eq!(registry.counter("selfcheck.ops.int64").get(), 2);
        assert_eq!(registry.counter("selfcheck.ops.binary64").get(), 1);
        assert_eq!(registry.counter("selfcheck.mismatches").get(), 1);
        assert_eq!(registry.counter("selfcheck.retries").get(), 1);
        assert_eq!(registry.counter("selfcheck.fallback_ops").get(), 2);
        assert_eq!(registry.counter("selfcheck.incidents").get(), 2);
        // reset() clears the log.
        unit.reset();
        assert!(unit.incidents().is_empty());
    }

    #[test]
    fn scrub_battery_passes_on_clean_hardware() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut unit = SelfCheckingUnit::new(&n, ports);
        assert_eq!(unit.run_scrub(&scrub_battery(false)), Ok(()));
        // Battery vectors are maintenance: no ops counted.
        assert_eq!(unit.stats().ops, 0);

        let mut nq = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit_quad(&mut nq);
        let mut unit = SelfCheckingUnit::new(&nq, ports);
        assert_eq!(unit.run_scrub(&scrub_battery(true)), Ok(()));
    }

    #[test]
    fn try_recover_clears_degradation_after_repair() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut unit = SelfCheckingUnit::new(&n, ports);
        let lsb = unit.ports().chk_p0[0];
        unit.inject_stuck_at(lsb, true);
        let _ = unit.execute(Operation::int64(2, 3));
        assert!(unit.is_degraded(), "permanent fault trips the fallback");
        // The fault is gone (a transient SEU that latched, say): the
        // scrub repairs, re-verifies and readmits — degradation is no
        // longer one-way.
        assert!(unit.try_recover());
        assert!(!unit.is_degraded());
        let s = unit.stats();
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.failed_recoveries, 0);
        // Hardware path serves again, with the history preserved.
        assert_eq!(unit.execute(Operation::int64(7, 9)).int_product(), 63);
        assert_eq!(unit.stats().mismatches, 1, "history survives recovery");
        let kinds: Vec<_> = unit.incidents().iter().map(|i| i.kind).collect();
        assert!(kinds.contains(&IncidentKind::Recovered), "{kinds:?}");
    }

    #[test]
    fn failed_scrub_records_and_stays_degraded() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut unit = SelfCheckingUnit::new(&n, ports);
        let registry = Registry::new();
        unit.attach_telemetry(&registry);
        let lsb = unit.ports().chk_p0[0];
        unit.inject_stuck_at(lsb, true);
        let _ = unit.execute(Operation::int64(2, 3));
        assert!(unit.is_degraded());
        // Re-verify WITHOUT repairing: the stuck-at is still there, so
        // the battery must refuse readmission.
        assert!(!unit.try_recover_with(&scrub_battery(false)));
        assert!(unit.is_degraded());
        assert_eq!(unit.stats().failed_recoveries, 1);
        assert_eq!(registry.counter("selfcheck.failed_recoveries").get(), 1);
        let last = unit.incidents().last().unwrap();
        assert_eq!(last.kind, IncidentKind::RecoveryFailed);
        mfm_telemetry::json::check(&last.to_json()).unwrap();
        // With the repair step the same unit readmits.
        assert!(unit.try_recover());
        assert_eq!(registry.counter("selfcheck.recoveries").get(), 1);
    }

    #[test]
    fn watchdog_flags_budget_aborted_operations() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_unit(&mut n);
        let mut unit = SelfCheckingUnit::new(&n, ports);
        // A budget no real settle fits in: the op trips the watchdog and
        // is refused. The retry runs on the recomputed (repaired) state,
        // where the same inputs settle with almost no events — so the
        // retry verifies clean and the delivered result is correct.
        unit.sim_mut().set_settle_budget(Some(1));
        let r = unit.execute(Operation::int64(1234, 5678));
        assert_eq!(r.int_product(), 1234 * 5678);
        assert_eq!(
            unit.stats().first_failure,
            Some(CheckError::Watchdog),
            "the watchdog, not a data check, must have fired"
        );
        assert_eq!(unit.stats().mismatches, 1);
        assert_eq!(unit.stats().retry_successes, 1);
        assert!(!unit.is_degraded(), "repaired retry heals the trip");
        // A scrub under the same hostile budget refuses readmission
        // (every battery vector trips the watchdog)...
        assert!(!unit.try_recover());
        assert!(unit.is_degraded());
        // ...and with a sane budget the unit recovers fully.
        unit.sim_mut().set_settle_budget(None);
        assert!(unit.try_recover());
        assert_eq!(unit.execute(Operation::int64(3, 5)).int_product(), 15);
    }

    #[test]
    fn transient_seu_recovers_via_retry() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = build_pipelined_unit(&mut n, PipelinePlacement::Fig5);
        let mut unit = SelfCheckingUnit::new(&n, ports);
        let op = Operation::int64(3, 5);
        assert_eq!(unit.execute(op).int_product(), 15);
        // Flip the P0 LSB across the output-latching edge: the delivered
        // PL is corrupt while the (earlier) taps are clean, so the output
        // recompute catches it; the retry runs on healed hardware.
        let last_edge = unit.ports().latency + 1;
        let lsb = unit.ports().chk_p0[0];
        unit.schedule_seu(last_edge, lsb);
        assert_eq!(unit.execute(op).int_product(), 15);
        let s = unit.stats();
        assert_eq!(s.mismatches, 1);
        assert_eq!(s.retry_successes, 1);
        assert_eq!(s.fallback_ops, 0);
        assert!(!s.degraded, "a transient must not trip the fallback");
    }
}
