//! Operation formats, operand packing and result unpacking.
//!
//! The hardware unit has two 64-bit operand inputs, a 2-bit format select
//! `frmt`, and two 64-bit outputs `PH`/`PL` (Fig. 5). [`Operation`] packs
//! typed operands into that interface; [`MultResult`] unpacks the outputs.

use mfm_softfloat::Flags;

/// The formats the multi-format unit supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// 64×64 → 128-bit unsigned integer multiplication.
    Int64,
    /// One binary64 (double precision) multiplication.
    Binary64,
    /// Two independent binary32 multiplications (lower lane X·Y at bit 0,
    /// upper lane W·Z at bit 32 — Fig. 4).
    DualBinary32,
    /// One binary32 multiplication in the lower lane; the upper lane idles
    /// with zero operands. The paper's "binary32 (single)" row of Table V.
    SingleBinary32,
    /// **Extension**: four independent binary16 multiplications (lane `k`
    /// at bit `16k` of both operands). Not part of the paper's evaluation;
    /// see [`crate::quad`].
    QuadBinary16,
}

impl Format {
    /// The 2-bit `frmt` encoding driven into the hardware:
    /// 0 = int64, 1 = binary64, 2 = dual/single binary32,
    /// 3 = quad binary16 (extension).
    pub const fn encoding(self) -> u64 {
        match self {
            Format::Int64 => 0,
            Format::Binary64 => 1,
            Format::DualBinary32 | Format::SingleBinary32 => 2,
            Format::QuadBinary16 => 3,
        }
    }

    /// Stable lower-case label used for metric names and JSON keys
    /// (e.g. the `dual_binary32` queue depth in the service's `/statusz`).
    pub const fn label(self) -> &'static str {
        match self {
            Format::Int64 => "int64",
            Format::Binary64 => "binary64",
            Format::DualBinary32 => "dual_binary32",
            Format::SingleBinary32 => "single_binary32",
            Format::QuadBinary16 => "quad_binary16",
        }
    }

    /// Floating-point multiplications completed per operation (for
    /// throughput accounting; int64 counts as one).
    pub const fn ops_per_cycle(self) -> u32 {
        match self {
            Format::DualBinary32 => 2,
            Format::QuadBinary16 => 4,
            _ => 1,
        }
    }

    /// The paper's formats, Table V order (the quad-binary16 extension is
    /// deliberately excluded — it is not part of the paper's evaluation).
    pub const ALL: [Format; 4] = [
        Format::Int64,
        Format::Binary64,
        Format::DualBinary32,
        Format::SingleBinary32,
    ];
}

/// One operation: a format plus the two packed 64-bit operand words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operation {
    /// Operation format.
    pub format: Format,
    /// First operand word (multiplicand side): `x`, binary64 `a`, or
    /// `{w32, x32}` for dual binary32.
    pub xa: u64,
    /// Second operand word (multiplier side): `y`, binary64 `b`, or
    /// `{z32, y32}` for dual binary32.
    pub yb: u64,
}

impl Operation {
    /// Unsigned 64×64 integer multiplication.
    pub const fn int64(x: u64, y: u64) -> Self {
        Operation {
            format: Format::Int64,
            xa: x,
            yb: y,
        }
    }

    /// binary64 multiplication from raw encodings.
    pub const fn binary64(a: u64, b: u64) -> Self {
        Operation {
            format: Format::Binary64,
            xa: a,
            yb: b,
        }
    }

    /// binary64 multiplication from host doubles.
    pub fn binary64_from_f64(a: f64, b: f64) -> Self {
        Self::binary64(a.to_bits(), b.to_bits())
    }

    /// Dual binary32: lower lane computes `x·y`, upper lane `w·z`
    /// (raw encodings).
    pub const fn dual_binary32(x: u32, y: u32, w: u32, z: u32) -> Self {
        Operation {
            format: Format::DualBinary32,
            xa: (x as u64) | ((w as u64) << 32),
            yb: (y as u64) | ((z as u64) << 32),
        }
    }

    /// Dual binary32 from host floats: lower lane `x·y`, upper lane `w·z`.
    pub fn dual_binary32_from_f32(x: f32, y: f32, w: f32, z: f32) -> Self {
        Self::dual_binary32(x.to_bits(), y.to_bits(), w.to_bits(), z.to_bits())
    }

    /// Single binary32 in the lower lane (raw encodings); the upper lane
    /// receives +0.0 operands.
    pub const fn single_binary32(x: u32, y: u32) -> Self {
        Operation {
            format: Format::SingleBinary32,
            xa: x as u64,
            yb: y as u64,
        }
    }

    /// Single binary32 from host floats.
    pub fn single_binary32_from_f32(x: f32, y: f32) -> Self {
        Self::single_binary32(x.to_bits(), y.to_bits())
    }

    /// Quad binary16 (extension): lane `k` computes `x[k] · y[k]`
    /// (raw binary16 encodings).
    pub fn quad_binary16(x: [u16; 4], y: [u16; 4]) -> Self {
        let pack = |v: [u16; 4]| {
            v.iter()
                .enumerate()
                .fold(0u64, |acc, (k, &e)| acc | ((e as u64) << (16 * k)))
        };
        Operation {
            format: Format::QuadBinary16,
            xa: pack(x),
            yb: pack(y),
        }
    }
}

/// The unit's outputs for one operation.
///
/// `PH`/`PL` follow the paper's output formatter: int64 puts the product
/// high half on `PH` and low half on `PL`; binary64 puts the result on
/// `PH`; dual binary32 puts the upper-lane product in the 32 MSBs of `PH`
/// and the lower-lane product in its 32 LSBs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a multiplication result carries exception flags that must be inspected"]
pub struct MultResult {
    /// Format this result was produced under.
    pub format: Format,
    /// High output port.
    pub ph: u64,
    /// Low output port (only meaningful for int64).
    pub pl: u64,
    /// Exception flags of the lower lane (or the only lane).
    pub flags_lo: Flags,
    /// Exception flags of the upper lane (dual binary32 only).
    pub flags_hi: Flags,
}

impl MultResult {
    /// Whether `self` and `other` agree on everything the hardware can
    /// express: both product words, and both flag words under the
    /// invalid/overflow/underflow mask (the unit's flag bus has no
    /// inexact wire).
    #[must_use]
    pub fn agrees_hw(&self, other: &MultResult) -> bool {
        let hw = (Flags::INVALID | Flags::OVERFLOW | Flags::UNDERFLOW).bits();
        self.ph == other.ph
            && self.pl == other.pl
            && self.flags_lo.bits() & hw == other.flags_lo.bits() & hw
            && self.flags_hi.bits() & hw == other.flags_hi.bits() & hw
    }

    /// The 128-bit integer product (int64 format).
    ///
    /// # Panics
    ///
    /// Panics if the format is not [`Format::Int64`].
    #[must_use]
    pub fn int_product(&self) -> u128 {
        assert_eq!(self.format, Format::Int64, "not an int64 result");
        ((self.ph as u128) << 64) | self.pl as u128
    }

    /// The binary64 product encoding (binary64 format).
    ///
    /// # Panics
    ///
    /// Panics if the format is not [`Format::Binary64`].
    #[must_use]
    pub fn b64_product(&self) -> u64 {
        assert_eq!(self.format, Format::Binary64, "not a binary64 result");
        self.ph
    }

    /// The binary64 product as a host double.
    #[must_use]
    pub fn b64_product_f64(&self) -> f64 {
        f64::from_bits(self.b64_product())
    }

    /// The `(lower, upper)` binary32 product encodings (dual format).
    ///
    /// # Panics
    ///
    /// Panics unless the format is [`Format::DualBinary32`].
    #[must_use]
    pub fn b32_products(&self) -> (u32, u32) {
        assert_eq!(self.format, Format::DualBinary32, "not a dual result");
        (self.ph as u32, (self.ph >> 32) as u32)
    }

    /// The `(lower, upper)` binary32 products as host floats.
    #[must_use]
    pub fn b32_products_f32(&self) -> (f32, f32) {
        let (lo, hi) = self.b32_products();
        (f32::from_bits(lo), f32::from_bits(hi))
    }

    /// The single binary32 product encoding (single format, lower lane).
    ///
    /// # Panics
    ///
    /// Panics unless the format is [`Format::SingleBinary32`].
    #[must_use]
    pub fn b32_product(&self) -> u32 {
        assert_eq!(self.format, Format::SingleBinary32, "not a single result");
        self.ph as u32
    }

    /// The single binary32 product as a host float.
    #[must_use]
    pub fn b32_product_f32(&self) -> f32 {
        f32::from_bits(self.b32_product())
    }

    /// The four binary16 product encodings, lane 0 first (quad extension).
    ///
    /// # Panics
    ///
    /// Panics unless the format is [`Format::QuadBinary16`].
    #[must_use]
    pub fn b16_products(&self) -> [u16; 4] {
        assert_eq!(self.format, Format::QuadBinary16, "not a quad result");
        [
            self.ph as u16,
            (self.ph >> 16) as u16,
            (self.ph >> 32) as u16,
            (self.ph >> 48) as u16,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_packing_dual() {
        let op = Operation::dual_binary32(0x1111_2222, 0x3333_4444, 0xAAAA_BBBB, 0xCCCC_DDDD);
        assert_eq!(op.xa, 0xAAAA_BBBB_1111_2222);
        assert_eq!(op.yb, 0xCCCC_DDDD_3333_4444);
        assert_eq!(op.format.encoding(), 2);
    }

    #[test]
    fn single_uses_zero_upper_lane() {
        let op = Operation::single_binary32(0xDEAD_BEEF, 0x0BAD_F00D);
        assert_eq!(op.xa >> 32, 0, "upper operand is +0.0");
        assert_eq!(op.yb >> 32, 0);
    }

    #[test]
    fn throughput_accounting() {
        assert_eq!(Format::DualBinary32.ops_per_cycle(), 2);
        assert_eq!(Format::Binary64.ops_per_cycle(), 1);
    }

    #[test]
    fn result_accessors() {
        let r = MultResult {
            format: Format::Int64,
            ph: 0x1,
            pl: 0x2,
            flags_lo: Flags::NONE,
            flags_hi: Flags::NONE,
        };
        assert_eq!(r.int_product(), (1u128 << 64) | 2);
        let r = MultResult {
            format: Format::DualBinary32,
            ph: ((0x4000_0000u64) << 32) | 0x3f80_0000,
            pl: 0,
            flags_lo: Flags::NONE,
            flags_hi: Flags::NONE,
        };
        let (lo, hi) = r.b32_products_f32();
        assert_eq!(lo, 1.0);
        assert_eq!(hi, 2.0);
    }

    #[test]
    #[should_panic(expected = "not an int64 result")]
    fn wrong_format_accessor_panics() {
        let r = MultResult {
            format: Format::Binary64,
            ph: 0,
            pl: 0,
            flags_lo: Flags::NONE,
            flags_hi: Flags::NONE,
        };
        let _ = r.int_product();
    }
}
