//! # mfmult — the SOCC'17 multi-format floating-point multiplier
//!
//! Reproduction of A. Nannarelli, *A Multi-Format Floating-Point Multiplier
//! for Power-Efficient Operations*, IEEE SOCC 2017. One radix-16 64×64
//! datapath executes:
//!
//! - **int64** — 64×64 → 128-bit unsigned multiplication,
//! - **binary64** — one IEEE double-precision multiplication per cycle,
//! - **dual binary32** — *two* single-precision multiplications per cycle,
//!   packed into the two halves of the partial-product array (Fig. 4),
//! - **single binary32** — one multiplication in the lower lane.
//!
//! Rounding is the unit's injection scheme (round-to-nearest, ties away,
//! no sticky bit), computed speculatively for both normalization cases with
//! two carry-propagate adders and selected by the product MSB (Fig. 3).
//!
//! Three models of the unit live here:
//!
//! - [`functional`] — a fast, bit-exact word-level model ([`FunctionalUnit`]).
//! - [`structural`] — the full gate-level netlist on
//!   [`mfm_gatesim`], used for the paper's timing/area/power evaluation.
//! - [`pipeline`] — the 3-stage pipelined structural unit of Fig. 5 and the
//!   register-placement study of Sec. III-D.
//!
//! Plus:
//!
//! - [`reduce`] — the binary64→binary32 error-free reduction unit of
//!   Sec. IV (Algorithm 1 / Fig. 6) and its lossy extension;
//! - [`integrated`] — the unit with the reducer embedded in its output
//!   formatter, as Sec. IV proposes;
//! - [`lanes`] — the dual-lane PP-array arrangement of Fig. 4 with its
//!   word-level proof;
//! - [`quad`] — the quad-binary16 extension (four half-precision products
//!   per cycle; enable in the structural unit with
//!   [`UnitOptions::quad_lanes`](structural::UnitOptions)).
//!
//! # Quickstart
//!
//! ```
//! use mfmult::{FunctionalUnit, Operation};
//!
//! let unit = FunctionalUnit::new();
//!
//! // 64-bit integer multiplication with a 128-bit product.
//! let r = unit.execute(Operation::int64(u64::MAX, 3));
//! assert_eq!(r.int_product(), (u64::MAX as u128) * 3);
//!
//! // Two single-precision multiplications in one operation.
//! let r = unit.execute(Operation::dual_binary32_from_f32(1.5, 2.0, -3.0, 0.5));
//! let (lo, hi) = r.b32_products_f32();
//! assert_eq!(lo, 3.0);
//! assert_eq!(hi, -1.5);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod format;
pub mod functional;
pub mod integrated;
pub mod lanes;
pub mod meta;
pub mod pipeline;
pub mod quad;
pub mod reduce;
pub mod selfcheck;
pub mod structural;

pub use format::{Format, MultResult, Operation};
pub use functional::{FunctionalUnit, RoundingStyle};
pub use pipeline::{
    build_pipelined_unit, build_pipelined_unit_opts, PipelinePlacement, PipelinedPorts,
};
pub use structural::{build_unit, build_unit_quad, StructuralPorts, UnitOptions};
