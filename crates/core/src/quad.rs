//! Extension: **quad binary16** — four half-precision multiplications per
//! cycle through the same radix-16 array.
//!
//! The paper's conclusion notes that the small number of radix-16 partial
//! products "makes easier the sectioning of the PP array to perform
//! multi-lane operations on operands of reduced wordlength". This module
//! carries that observation one step further than the paper: the 64-bit
//! datapath is sectioned into **four** 16-bit lanes, each holding an
//! 11-bit binary16 significand.
//!
//! Lane `k`'s significands sit at bit `16k` of both operands; its product
//! occupies columns `32k … 32k+21`. Each lane owns three radix-16 PP rows
//! (`4k, 4k+1, 4k+2` — row `4k+3` is identically zero because binary16
//! significands never set a group MSB at the lane boundary), windowed to
//! `[16k, 16k+14)` row-local bits since `8·(2¹¹−1) < 2¹⁴`. Sign-extension
//! corrections wrap modulo the lane's 32-column section, and the
//! reduction-tree/CPA carries are cut at columns 32, 64 and 96.
//!
//! Both a word-level functional model and a standalone gate-level array
//! (recoder → multiples → windowed PPGEN → seamed tree → four split CPAs)
//! are provided and cross-tested. The full unit carries the lanes too:
//! [`crate::structural::build_unit_quad`] (or `UnitOptions::quad_lanes`)
//! builds them into its formatter, array and S&EH the way dual binary32
//! is built, with `frmt = 3` selecting four binary16 products, and uses
//! [`lane_correction`] for the lanes' sign-extension constants.

use mfm_arith::adder::{build_adder, AdderKind};
use mfm_arith::multiples::build_multiples;
use mfm_arith::ppgen::one_hot_select;
use mfm_arith::recode::{radix16_digits, radix16_recoder};
use mfm_arith::tree::{reduce_to_two_seam, PpArray};
use mfm_gatesim::{NetId, Netlist};

/// Number of lanes.
pub const LANES: usize = 4;
/// Row-local window of lane `k`: `[16k, 16k+14)`.
pub const fn lane_window(k: usize) -> (usize, usize) {
    (16 * k, 16 * k + 14)
}
/// PP rows belonging to lane `k` (the fourth row of each group is zero).
pub const fn lane_rows(k: usize) -> std::ops::Range<usize> {
    4 * k..4 * k + 3
}
/// Carry-seam columns between the four 32-column sections.
pub const SEAMS: [usize; 3] = [32, 64, 96];

/// Packs four 11-bit binary16 significands into a 64-bit operand word.
///
/// # Panics
///
/// Panics in debug builds if a significand exceeds 11 bits.
pub fn pack4(sigs: [u16; 4]) -> u64 {
    let mut w = 0u64;
    for (k, &s) in sigs.iter().enumerate() {
        debug_assert!(s < (1 << 11), "binary16 significands are 11 bits");
        w |= (s as u64) << (16 * k);
    }
    w
}

/// Sign-extension correction constant of lane `k`, wrapped modulo the
/// lane's section so it cannot disturb the neighbours.
pub fn lane_correction(k: usize) -> u128 {
    // Per row the correction is 2^col − 2^(col+1) = −2^col, with
    // col = offset + window-high-edge; wrap the sum modulo the section.
    let top = 32 * (k + 1);
    let mut sum = 0u128;
    for i in lane_rows(k) {
        let col = 4 * i + lane_window(k).1;
        debug_assert!(col < top);
        sum += 1u128 << col;
    }
    let mask = if top == 128 {
        u128::MAX
    } else {
        (1u128 << top) - 1
    };
    sum.wrapping_neg() & mask
}

/// Word-level functional model: the four products computed through the
/// sectioned array exactly as the hardware would (windowed rows, per-lane
/// corrections, seam kills = per-section sums modulo 2³²-aligned widths).
///
/// # Example
///
/// ```
/// use mfmult::quad::quad_lane_array_product;
///
/// let p = quad_lane_array_product([3, 5, 1024, 2047], [7, 11, 1024, 2047]);
/// assert_eq!(p, [21, 55, 1024 * 1024, 2047 * 2047]);
/// ```
pub fn quad_lane_array_product(x: [u16; 4], y: [u16; 4]) -> [u32; 4] {
    let xw = pack4(x);
    let yw = pack4(y);
    let digits = radix16_digits(yw);
    let mut out = [0u32; 4];
    for k in 0..LANES {
        let (lo, hi) = lane_window(k);
        let wmask = (1u128 << (hi - lo)) - 1;
        // Sum the lane's terms modulo 2^(32(k+1)); bits below 32k stay 0.
        let section_mask = if k == 3 {
            u128::MAX
        } else {
            (1u128 << (32 * (k + 1))) - 1
        };
        let mut acc = 0u128;
        for i in lane_rows(k) {
            let d = digits[i];
            let offset = 4 * i;
            let s = d < 0;
            let mag = d.unsigned_abs() as u128;
            let mut m = (((xw as u128) * mag) >> lo) & wmask;
            if s {
                m = !m & wmask;
            }
            acc = acc.wrapping_add(m << (offset + lo));
            if s {
                acc = acc.wrapping_add(1u128 << (offset + lo));
            } else {
                acc = acc.wrapping_add(1u128 << (offset + hi));
            }
            acc &= section_mask;
        }
        debug_assert_eq!(digits[4 * k + 3], 0, "lane boundary digit is zero");
        acc = acc.wrapping_add(lane_correction(k)) & section_mask;
        out[k] = ((acc >> (32 * k)) & 0xFFFF_FFFF) as u32;
    }
    out
}

/// Four complete binary16 multiplications (full encodings, not just
/// significands) with the unit's injection rounding — the format-level
/// view of the quad extension.
///
/// # Example
///
/// ```
/// use mfmult::quad::quad_mul;
///
/// // 1.5 × 2.0 = 3.0 in binary16: 0x3E00 × 0x4000 = 0x4200.
/// let (p, flags) = quad_mul([0x3E00; 4], [0x4000; 4]);
/// assert_eq!(p, [0x4200; 4]);
/// assert!(flags.iter().all(|f| f.is_empty()));
/// ```
pub fn quad_mul(x: [u16; 4], y: [u16; 4]) -> ([u16; 4], [mfm_softfloat::Flags; 4]) {
    use mfm_softfloat::paper::paper_mul_bits;
    use mfm_softfloat::BINARY16;
    let mut p = [0u16; 4];
    let mut flags = [mfm_softfloat::Flags::NONE; 4];
    for k in 0..4 {
        let (r, f) = paper_mul_bits(&BINARY16, x[k] as u64, y[k] as u64);
        p[k] = r as u16;
        flags[k] = f;
    }
    (p, flags)
}

/// Ports of the standalone gate-level quad-lane array.
#[derive(Debug, Clone)]
pub struct QuadArrayPorts {
    /// Packed multiplicand significands (4 × 11 bits at 16-bit stride).
    pub x: Vec<NetId>,
    /// Packed multiplier significands.
    pub y: Vec<NetId>,
    /// The four 22-bit products, lane 0 first.
    pub products: [Vec<NetId>; 4],
}

/// Builds the quad-lane array in hardware: radix-16 recoder, multiple
/// generation, windowed PP rows, seamed Dadda tree and four section CPAs.
///
/// This is the fixed quad-mode datapath (no format muxing) demonstrating
/// that the sectioning is realizable with the same machinery as Fig. 4.
pub fn build_quad_lane_array(n: &mut Netlist) -> QuadArrayPorts {
    let x = n.input_bus("qx", 64);
    let y = n.input_bus("qy", 64);

    let digits = n.in_block("recode", |n| radix16_recoder(n, &y));
    let m = n.in_block("precomp", |n| {
        build_multiples(n, &x, 8, AdderKind::CarryLookahead)
    });
    let buses: Vec<Vec<NetId>> = (1..=8).map(|k| m.bus(k).to_vec()).collect();

    let mut arr = PpArray::new(128);
    n.begin_block("PPGEN");
    for k in 0..LANES {
        let (lo, hi) = lane_window(k);
        for i in lane_rows(k) {
            let digit = &digits[i];
            let offset = 4 * i;
            // `j` indexes the *inner* dimension of `buses`, so the range
            // loop is clearer than any iterator chain here.
            #[allow(clippy::needless_range_loop)]
            for j in lo..hi {
                let terms: Vec<(NetId, NetId)> = digit
                    .sel
                    .iter()
                    .enumerate()
                    .map(|(t, &sel)| (sel, buses[t][j]))
                    .collect();
                let acc = one_hot_select(n, &terms);
                let bit = n.xor2(acc, digit.sign);
                arr.add_bit(offset + j, bit);
            }
            arr.add_bit(offset + lo, digit.sign);
            let ns = n.not(digit.sign);
            arr.add_bit(offset + hi, ns);
        }
        arr.add_constant(n, lane_correction(k));
    }
    n.end_block();

    let pass = n.zero(); // quad mode: seams always cut
    let seams: Vec<(usize, NetId)> = SEAMS.iter().map(|&c| (c, pass)).collect();
    let (s_vec, c_vec) = n.in_block("TREE", |n| reduce_to_two_seam(n, arr, &seams));

    // One 32-bit CPA per section (carries never cross in quad mode).
    let mut products: Vec<Vec<NetId>> = Vec::with_capacity(4);
    n.begin_block("CPA");
    for k in 0..LANES {
        let lo = 32 * k;
        let zero = n.zero();
        let sum = build_adder(
            n,
            AdderKind::KoggeStone,
            &s_vec[lo..lo + 32],
            &c_vec[lo..lo + 32],
            zero,
        );
        products.push(sum.sum[..22].to_vec());
    }
    n.end_block();

    n.output_bus("p0", &products[0]);
    n.output_bus("p1", &products[1]);
    n.output_bus("p2", &products[2]);
    n.output_bus("p3", &products[3]);
    let products: [Vec<NetId>; 4] = products.try_into().expect("four lanes");
    QuadArrayPorts { x, y, products }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfm_gatesim::{Simulator, TechLibrary};

    fn rng11(count: usize, seed: u64) -> Vec<u16> {
        let mut s = seed;
        (0..count)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((s >> 20) & 0x7FF) as u16
            })
            .collect()
    }

    #[test]
    fn functional_quad_products() {
        let vals = rng11(400, 0x16);
        for c in vals.chunks(8) {
            let x = [c[0], c[1], c[2], c[3]];
            let y = [c[4], c[5], c[6], c[7]];
            let p = quad_lane_array_product(x, y);
            for k in 0..4 {
                assert_eq!(p[k], x[k] as u32 * y[k] as u32, "lane {k}: {x:?} × {y:?}");
            }
        }
    }

    #[test]
    fn functional_quad_corners() {
        for v in [0u16, 1, 0x400, 0x7FF] {
            let p = quad_lane_array_product([v; 4], [v; 4]);
            assert_eq!(p, [v as u32 * v as u32; 4]);
        }
        // Normalized binary16 significands (implicit bit set).
        let x = [0x400u16, 0x555, 0x7FF, 0x6AB];
        let y = [0x7FF, 0x400, 0x5A5, 0x71C];
        let p = quad_lane_array_product(x, y);
        for k in 0..4 {
            assert_eq!(p[k], x[k] as u32 * y[k] as u32);
        }
    }

    #[test]
    fn lanes_do_not_interact() {
        let (x0, y0) = (0x7AB, 0x6CD);
        for other in rng11(60, 0x99).chunks(6) {
            let p = quad_lane_array_product(
                [x0, other[0], other[1], other[2]],
                [y0, other[3], other[4], other[5]],
            );
            assert_eq!(p[0], x0 as u32 * y0 as u32, "{other:?}");
        }
    }

    #[test]
    fn netlist_quad_array_matches_functional() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let q = build_quad_lane_array(&mut n);
        n.check().unwrap();
        let mut sim = Simulator::new(&n);
        let vals = rng11(if cfg!(debug_assertions) { 48 } else { 160 }, 0x61);
        for c in vals.chunks(8) {
            let x = [c[0], c[1], c[2], c[3]];
            let y = [c[4], c[5], c[6], c[7]];
            sim.set_bus(&q.x, pack4(x) as u128);
            sim.set_bus(&q.y, pack4(y) as u128);
            sim.settle();
            let want = quad_lane_array_product(x, y);
            for (k, &w) in want.iter().enumerate() {
                assert_eq!(
                    sim.read_bus(&q.products[k]) as u32,
                    w,
                    "lane {k}: {x:?} × {y:?}"
                );
            }
        }
    }

    #[test]
    fn corrections_are_lane_confined() {
        for k in 0..4 {
            let c = lane_correction(k);
            if k > 0 {
                assert_eq!(c & ((1 << (32 * k)) - 1), 0, "lane {k} below");
            }
            if k < 3 {
                assert_eq!(c >> (32 * (k + 1)), 0, "lane {k} above");
            }
        }
    }
}
