//! IEEE 754 exception flags.

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// Accumulated IEEE 754 exception flags.
///
/// The five standard exceptions are represented; *division by zero* is
/// included for completeness even though multiplication never raises it.
///
/// Flags accumulate with `|`:
///
/// ```
/// use mfm_softfloat::Flags;
///
/// let f = Flags::INEXACT | Flags::UNDERFLOW;
/// assert!(f.inexact());
/// assert!(f.underflow());
/// assert!(!f.invalid());
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Flags(u8);

impl Flags {
    /// No exception raised.
    pub const NONE: Flags = Flags(0);
    /// Invalid operation (e.g. `0 × ∞`, signaling NaN operand).
    pub const INVALID: Flags = Flags(1 << 0);
    /// Division by zero (never raised by multiplication; present for API completeness).
    pub const DIV_BY_ZERO: Flags = Flags(1 << 1);
    /// Overflow: the rounded result exceeded the largest finite number.
    pub const OVERFLOW: Flags = Flags(1 << 2);
    /// Underflow: the result is tiny and inexact.
    pub const UNDERFLOW: Flags = Flags(1 << 3);
    /// Inexact: the delivered result differs from the infinitely precise one.
    pub const INEXACT: Flags = Flags(1 << 4);

    /// Returns `true` if no flag is set.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if the invalid-operation flag is set.
    #[must_use]
    pub const fn invalid(self) -> bool {
        self.0 & Self::INVALID.0 != 0
    }

    /// Returns `true` if the division-by-zero flag is set.
    #[must_use]
    pub const fn div_by_zero(self) -> bool {
        self.0 & Self::DIV_BY_ZERO.0 != 0
    }

    /// Returns `true` if the overflow flag is set.
    #[must_use]
    pub const fn overflow(self) -> bool {
        self.0 & Self::OVERFLOW.0 != 0
    }

    /// Returns `true` if the underflow flag is set.
    #[must_use]
    pub const fn underflow(self) -> bool {
        self.0 & Self::UNDERFLOW.0 != 0
    }

    /// Returns `true` if the inexact flag is set.
    #[must_use]
    pub const fn inexact(self) -> bool {
        self.0 & Self::INEXACT.0 != 0
    }

    /// Returns `true` if every flag in `other` is also set in `self`.
    #[must_use]
    pub const fn contains(self, other: Flags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Raw bit representation (bit 0 = invalid … bit 4 = inexact).
    #[must_use]
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// The flags whose bits are set in `bits` (the inverse of
    /// [`Flags::bits`]); undefined high bits are dropped.
    #[must_use]
    pub const fn from_bits(bits: u8) -> Flags {
        Flags(bits & 0x1f)
    }
}

impl BitOr for Flags {
    type Output = Flags;
    fn bitor(self, rhs: Flags) -> Flags {
        Flags(self.0 | rhs.0)
    }
}

impl BitOrAssign for Flags {
    fn bitor_assign(&mut self, rhs: Flags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Debug for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = Vec::new();
        if self.invalid() {
            names.push("invalid");
        }
        if self.div_by_zero() {
            names.push("div_by_zero");
        }
        if self.overflow() {
            names.push("overflow");
        }
        if self.underflow() {
            names.push("underflow");
        }
        if self.inexact() {
            names.push("inexact");
        }
        if names.is_empty() {
            write!(f, "Flags(none)")
        } else {
            write!(f, "Flags({})", names.join("|"))
        }
    }
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_by_default() {
        assert!(Flags::default().is_empty());
        assert_eq!(Flags::default(), Flags::NONE);
    }

    #[test]
    fn accumulation() {
        let mut f = Flags::NONE;
        f |= Flags::INEXACT;
        f |= Flags::OVERFLOW;
        assert!(f.inexact() && f.overflow());
        assert!(!f.underflow());
        assert!(f.contains(Flags::INEXACT));
        assert!(f.contains(Flags::INEXACT | Flags::OVERFLOW));
        assert!(!f.contains(Flags::INVALID));
    }

    #[test]
    fn debug_is_never_empty() {
        assert_eq!(format!("{:?}", Flags::NONE), "Flags(none)");
        assert_eq!(format!("{:?}", Flags::INVALID), "Flags(invalid)");
        assert_eq!(
            format!("{:?}", Flags::UNDERFLOW | Flags::INEXACT),
            "Flags(underflow|inexact)"
        );
    }
}
