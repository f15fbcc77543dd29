//! Exact fixed-point money.
//!
//! `Money` wraps an `i128` count of **nano-dollars** (10⁻⁹ $). Why not
//! `f64`: the Fig. 4 experiment accumulates on the order of 10⁶–10⁸
//! individual charges, and the economy's invariants ("the ledger balances",
//! "profit = payment − cost") are asserted *exactly* in tests. Why not a
//! decimal crate: the operations needed are tiny (add/sub/scale/compare)
//! and an `i128` of nano-dollars holds ±1.7 × 10²⁹ dollars — overflow is
//! unreachable for any simulation this side of hyperinflation.
//!
//! **Conversions run at hardware speed.** Every `f64` → `Money` conversion
//! ([`Money::from_dollars`], [`Money::scale`]) rounds half away from zero,
//! exactly as `x.round() as i128` would. On x86-64 that expression is two
//! soft-float library calls (`round` and the `f64` → `i128` conversion),
//! and the planner prices every plan of every query through it. So the
//! conversion goes through the 64-bit hardware instructions whenever the
//! value fits in `i64`, and rounds in the integer domain: with
//! `t = x as i64` (truncation) and `frac = x − t` (exact, since `t` is
//! `x`'s integer part), the result is `t + (frac ≥ ½) − (frac ≤ −½)`.
//! This equals `x.round()` for every `|x| < 2⁶³`. Beyond that range `x`
//! is already an integer and only the `i128` conversion remains. The
//! reverse directions ([`Money::as_dollars`], [`Money::amortize_over`])
//! likewise use `i64` arithmetic when the amount fits. An amount that
//! would not fit in `i128` panics instead of saturating.
//!
//! The planner prices every row through these kernels from other crates,
//! so every one is `#[inline]`, with its panic in a `#[cold]` helper.

#![warn(clippy::missing_inline_in_public_items)]

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Nano-dollars per dollar.
const NANOS_PER_DOLLAR: i128 = 1_000_000_000;

/// 2⁶³: every `f64` of smaller magnitude converts to `i64` exactly after
/// truncation.
const I64_LIMIT: f64 = -(i64::MIN as f64);

/// 2¹²⁷: the magnitude bound of `i128` (`i128::MIN == -2¹²⁷`).
const I128_LIMIT: f64 = -(i128::MIN as f64);

/// Rounds `x` half away from zero to whole nano-dollars: `x.round() as
/// i128` for every finite `x` in `i128` range, `None` outside it (NaN
/// included).
#[inline]
fn round_nanos(x: f64) -> Option<i128> {
    if x.abs() < I64_LIMIT {
        // Truncation is exact here, and so is `x - t`: `t` is `x`'s
        // integer part. Adding one cannot overflow: a fractional `x` has
        // magnitude below 2⁵².
        let t = x as i64;
        let frac = x - t as f64;
        Some(i128::from(
            t + i64::from(frac >= 0.5) - i64::from(frac <= -0.5),
        ))
    } else if (-I128_LIMIT..I128_LIMIT).contains(&x) {
        // |x| ≥ 2⁶³ is already an integer.
        Some(x as i128)
    } else {
        None
    }
}

/// `nanos as f64`, through the hardware `i64` conversion when it fits
/// (both round to nearest, so the results agree).
#[inline]
fn nanos_to_f64(nanos: i128) -> f64 {
    match i64::try_from(nanos) {
        Ok(n) => n as f64,
        Err(_) => wide_nanos_to_f64(nanos),
    }
}

/// The `i128` conversion, kept out of line: inlined, the compiler
/// evaluates it on both branches and selects afterwards.
#[cold]
#[inline(never)]
fn wide_nanos_to_f64(nanos: i128) -> f64 {
    nanos as f64
}

/// Panics with `msg`. Kept out of line like [`wide_nanos_to_f64`], so
/// each kernel inlines to its fast path and a branch.
#[cold]
#[inline(never)]
#[track_caller]
fn fail(msg: fmt::Arguments<'_>) -> ! {
    panic!("{msg}")
}

/// An exact amount of money in nano-dollars. May be negative (debts,
/// deltas); the economy layer decides where negativity is legal.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Money(i128);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0);

    /// Constructs from whole nano-dollars.
    #[must_use]
    #[inline]
    pub const fn from_nanos(nanos: i128) -> Self {
        Money(nanos)
    }

    /// Constructs from a dollar amount, rounding to the nearest
    /// nano-dollar (ties away from zero).
    ///
    /// # Panics
    /// Panics if `dollars` is NaN or infinite, or if the amount does not
    /// fit in `i128` nano-dollars (about ±1.7 × 10²⁹ dollars).
    #[must_use]
    #[inline]
    pub fn from_dollars(dollars: f64) -> Self {
        if !dollars.is_finite() {
            fail(format_args!("money must be finite, got {dollars}"));
        }
        match round_nanos(dollars * NANOS_PER_DOLLAR as f64) {
            Some(nanos) => Money(nanos),
            None => fail(format_args!(
                "money out of range: {dollars} dollars overflows i128 nano-dollars"
            )),
        }
    }

    /// Constructs from whole cents.
    #[must_use]
    #[inline]
    pub const fn from_cents(cents: i128) -> Self {
        Money(cents * (NANOS_PER_DOLLAR / 100))
    }

    /// The raw nano-dollar count.
    #[must_use]
    #[inline]
    pub const fn as_nanos(self) -> i128 {
        self.0
    }

    /// Approximate dollar value (for display and plotting only — never for
    /// accounting decisions).
    #[must_use]
    #[inline]
    pub fn as_dollars(self) -> f64 {
        nanos_to_f64(self.0) / NANOS_PER_DOLLAR as f64
    }

    /// True if the amount is exactly zero.
    #[must_use]
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// True if strictly positive.
    #[must_use]
    #[inline]
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// True if strictly negative.
    #[must_use]
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Scales by a non-negative real factor, rounding to nearest (ties
    /// away from zero).
    ///
    /// # Panics
    /// Panics if `factor` is NaN, infinite or negative (scaling money by a
    /// negative factor is always an accounting bug; use [`Neg`] explicitly),
    /// or if the scaled amount does not fit in `i128` nano-dollars.
    #[must_use]
    #[inline]
    pub fn scale(self, factor: f64) -> Money {
        if !(factor.is_finite() && factor >= 0.0) {
            fail(format_args!(
                "scale factor must be finite and non-negative, got {factor}"
            ));
        }
        match round_nanos(nanos_to_f64(self.0) * factor) {
            Some(nanos) => Money(nanos),
            None => fail(format_args!(
                "scaled money out of range: {self} × {factor} overflows i128 nano-dollars"
            )),
        }
    }

    /// Divides evenly among `n` parts, rounding toward zero.
    ///
    /// Used for eq. 7 of the paper (`f_S(n, Build) = Build / n`).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    #[inline]
    pub fn amortize_over(self, n: u64) -> Money {
        if n == 0 {
            fail(format_args!("cannot amortize over zero queries"));
        }
        match (i64::try_from(self.0), i64::try_from(n)) {
            (Ok(amount), Ok(n)) => Money(i128::from(amount / n)),
            _ => Money(self.0 / i128::from(n)),
        }
    }

    /// The larger of two amounts.
    #[must_use]
    #[inline]
    pub fn max(self, other: Money) -> Money {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two amounts.
    #[must_use]
    #[inline]
    pub fn min(self, other: Money) -> Money {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Clamps negative amounts to zero.
    #[must_use]
    #[inline]
    pub fn clamp_non_negative(self) -> Money {
        self.max(Money::ZERO)
    }

    /// Saturating subtraction: `max(self - other, 0)`.
    #[must_use]
    #[inline]
    pub fn saturating_sub(self, other: Money) -> Money {
        (self - other).clamp_non_negative()
    }
}

impl Add for Money {
    type Output = Money;
    #[inline]
    fn add(self, rhs: Money) -> Money {
        match self.0.checked_add(rhs.0) {
            Some(nanos) => Money(nanos),
            None => fail(format_args!("money overflow")),
        }
    }
}

impl AddAssign for Money {
    #[inline]
    fn add_assign(&mut self, rhs: Money) {
        *self = *self + rhs;
    }
}

impl Sub for Money {
    type Output = Money;
    #[inline]
    fn sub(self, rhs: Money) -> Money {
        match self.0.checked_sub(rhs.0) {
            Some(nanos) => Money(nanos),
            None => fail(format_args!("money underflow")),
        }
    }
}

impl SubAssign for Money {
    #[inline]
    fn sub_assign(&mut self, rhs: Money) {
        *self = *self - rhs;
    }
}

impl Neg for Money {
    type Output = Money;
    #[inline]
    fn neg(self) -> Money {
        Money(-self.0)
    }
}

impl Mul<u64> for Money {
    type Output = Money;
    #[inline]
    fn mul(self, rhs: u64) -> Money {
        match self.0.checked_mul(rhs as i128) {
            Some(nanos) => Money(nanos),
            None => fail(format_args!("money overflow")),
        }
    }
}

impl Sum for Money {
    #[inline]
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, Add::add)
    }
}

impl fmt::Display for Money {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        let dollars = abs / NANOS_PER_DOLLAR as u128;
        let frac = abs % NANOS_PER_DOLLAR as u128;
        // Show 4 decimal places: enough to see per-query charges.
        write!(f, "{sign}${dollars}.{:04}", frac / 100_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dollars_round_trip() {
        let m = Money::from_dollars(1.25);
        assert_eq!(m.as_nanos(), 1_250_000_000);
        assert!((m.as_dollars() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn cents_constructor() {
        assert_eq!(Money::from_cents(10), Money::from_dollars(0.10));
        assert_eq!(Money::from_cents(-5).as_dollars(), -0.05);
    }

    #[test]
    fn arithmetic_is_exact() {
        // 0.1 + 0.2 == 0.3 exactly, unlike f64.
        let sum = Money::from_dollars(0.1) + Money::from_dollars(0.2);
        assert_eq!(sum, Money::from_dollars(0.3));
    }

    #[test]
    fn million_micro_charges_sum_exactly() {
        let tick = Money::from_nanos(123);
        let total: Money = (0..1_000_000).map(|_| tick).sum();
        assert_eq!(total.as_nanos(), 123_000_000);
    }

    #[test]
    fn amortize_divides_toward_zero() {
        let build = Money::from_dollars(10.0);
        assert_eq!(build.amortize_over(4), Money::from_dollars(2.5));
        let odd = Money::from_nanos(10);
        assert_eq!(odd.amortize_over(3).as_nanos(), 3);
    }

    #[test]
    #[should_panic(expected = "zero queries")]
    fn amortize_over_zero_panics() {
        let _ = Money::from_dollars(1.0).amortize_over(0);
    }

    #[test]
    fn scale_rounds_to_nearest() {
        let m = Money::from_nanos(10);
        assert_eq!(m.scale(0.25).as_nanos(), 3); // 2.5 rounds to 3
        assert_eq!(m.scale(0.0), Money::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_scale_panics() {
        let _ = Money::from_dollars(1.0).scale(-1.0);
    }

    #[test]
    fn ordering_and_clamps() {
        let a = Money::from_dollars(1.0);
        let b = Money::from_dollars(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!((a - b).clamp_non_negative(), Money::ZERO);
        assert_eq!(a.saturating_sub(b), Money::ZERO);
        assert_eq!(b.saturating_sub(a), a);
    }

    #[test]
    fn predicates() {
        assert!(Money::ZERO.is_zero());
        assert!(Money::from_dollars(0.5).is_positive());
        assert!((-Money::from_dollars(0.5)).is_negative());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Money::from_dollars(1.25).to_string(), "$1.2500");
        assert_eq!((-Money::from_dollars(0.5)).to_string(), "-$0.5000");
        assert_eq!(Money::ZERO.to_string(), "$0.0000");
        assert_eq!(Money::from_dollars(1234.5678).to_string(), "$1234.5678");
    }

    #[test]
    fn mul_by_count() {
        assert_eq!(Money::from_cents(3) * 100, Money::from_dollars(3.0));
    }

    /// The conversion the hardware kernel replaces: `x.round() as i128`.
    fn reference_round(x: f64) -> i128 {
        x.round() as i128
    }

    /// `Money::scale`'s former expression.
    fn reference_scale(nanos: i128, factor: f64) -> i128 {
        reference_round(nanos as f64 * factor)
    }

    /// An amount spanning the `i128` range from two 64-bit draws.
    fn wide(hi: i64, lo: u64) -> i128 {
        (i128::from(hi) << 62) + i128::from(lo)
    }

    /// Checks the kernel against the reference at `x`: equal in `i128`
    /// range, `None` outside it.
    fn check_round(x: f64) {
        if x.is_finite() && (-I128_LIMIT..I128_LIMIT).contains(&x) {
            assert_eq!(
                round_nanos(x),
                Some(reference_round(x)),
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        } else {
            assert_eq!(round_nanos(x), None, "x = {x:e}");
        }
    }

    /// Ties, the largest double below ½, the 2⁵²…2⁵³ binade where every
    /// double is an integer or a half, both sides of ±2⁶³ and ±2¹²⁷,
    /// signed zeros and subnormals.
    fn edge_inputs() -> Vec<f64> {
        let mut xs = vec![
            0.0,
            -0.0,
            0.499_999_999_999_999_94,
            -0.499_999_999_999_999_94,
            0.5,
            -0.5,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            I64_LIMIT,
            -I64_LIMIT,
            I128_LIMIT,
            -I128_LIMIT,
            f64::MAX,
            f64::MIN,
        ];
        for k in [0.0, 1.0, 2.0, 3.0, 1e6, 4_503_599_627_370_495.0] {
            xs.extend([k + 0.5, -(k + 0.5)]);
        }
        for base in [2f64.powi(52), 2f64.powi(53), I64_LIMIT, I128_LIMIT] {
            let below = f64::from_bits(base.to_bits() - 1);
            let above = f64::from_bits(base.to_bits() + 1);
            for x in [below, base, above] {
                xs.extend([x, -x, x - 0.5, -(x - 0.5), x + 0.5, -(x + 0.5)]);
            }
        }
        xs
    }

    #[test]
    fn kernel_matches_the_i128_reference_at_the_edges() {
        for x in edge_inputs() {
            check_round(x);
        }
        // ±2⁶³ take the wide path and still convert exactly.
        assert_eq!(round_nanos(-I64_LIMIT), Some(i128::from(i64::MIN)));
        assert_eq!(round_nanos(I64_LIMIT), Some(-i128::from(i64::MIN)));
        assert_eq!(round_nanos(-I128_LIMIT), Some(i128::MIN));
        assert_eq!(round_nanos(I128_LIMIT), None);
        assert_eq!(round_nanos(f64::NAN), None);
        assert_eq!(round_nanos(0.499_999_999_999_999_94), Some(0));
        assert_eq!(round_nanos(-2.5), Some(-3));
    }

    proptest! {
        #[test]
        fn kernel_matches_the_i128_reference_on_random_bits(
            bits in prop::collection::vec(0u64..u64::MAX, 512..513),
            exponents in prop::collection::vec(1_000u64..1_100, 512..513),
        ) {
            for (&b, &e) in bits.iter().zip(&exponents) {
                // Any bit pattern (every binade, NaN and ∞ included) ...
                check_round(f64::from_bits(b));
                // ... and a mantissa placed in the binades around 2⁵²…2⁶⁴,
                // where the fast path's edges lie.
                let x = f64::from_bits((b & 0x800f_ffff_ffff_ffff) | ((e - 1_000 + 1_020) << 52));
                check_round(x);
            }
        }

        #[test]
        fn from_dollars_matches_the_reference(dollars in -1e12f64..1e12, tiny in -1e-6f64..1e-6) {
            for d in [dollars, tiny, dollars / 1e9] {
                prop_assert_eq!(Money::from_dollars(d).as_nanos(), reference_round(d * 1e9));
            }
        }

        #[test]
        fn scale_matches_the_reference(
            hi in i64::MIN..i64::MAX,
            lo in 0u64..u64::MAX,
            small in -1_000_000_000_000i128..1_000_000_000_000,
            factor in 0.0f64..4.0,
            large in 1e9f64..1e12,
        ) {
            let nanos = wide(hi, lo) >> 2;
            for (n, f) in [(nanos, factor), (small, factor), (small, large), (nanos >> 70, large)] {
                prop_assert_eq!(Money::from_nanos(n).scale(f).as_nanos(), reference_scale(n, f));
            }
        }

        #[test]
        fn amortize_and_as_dollars_match_the_reference(
            hi in i64::MIN..i64::MAX,
            lo in 0u64..u64::MAX,
            small in -1_000_000_000_000_000i128..1_000_000_000_000_000,
            n in 1u64..u64::MAX,
        ) {
            for a in [wide(hi, lo), small, -small] {
                for k in [n, n >> 40 | 1, u64::MAX, i64::MAX as u64 + 1, 1] {
                    prop_assert_eq!(
                        Money::from_nanos(a).amortize_over(k).as_nanos(),
                        a / i128::from(k)
                    );
                }
                prop_assert_eq!(Money::from_nanos(a).as_dollars().to_bits(), (a as f64 / 1e9).to_bits());
            }
        }
    }

    #[test]
    fn amortize_handles_negative_amounts_and_huge_counts() {
        let debt = Money::from_nanos(-10);
        assert_eq!(debt.amortize_over(3).as_nanos(), -3, "toward zero");
        assert_eq!(debt.amortize_over(u64::MAX), Money::ZERO);
        let min = Money::from_nanos(i128::from(i64::MIN));
        assert_eq!(min.amortize_over(1), min);
        assert_eq!(min.amortize_over(i64::MAX as u64 + 1).as_nanos(), -1);
        let wide = Money::from_nanos(i128::MAX);
        assert_eq!(
            wide.amortize_over(u64::MAX).as_nanos(),
            i128::MAX / i128::from(u64::MAX)
        );
    }

    #[test]
    fn scale_covers_amounts_beyond_i64() {
        let wide = Money::from_nanos(i128::from(i64::MAX) * 1_000);
        assert_eq!(
            wide.scale(1.0).as_nanos(),
            reference_scale(wide.as_nanos(), 1.0)
        );
        assert_eq!(
            wide.scale(0.5).as_nanos(),
            reference_scale(wide.as_nanos(), 0.5)
        );
        assert_eq!(
            Money::from_nanos(3).scale(1e18).as_nanos(),
            3_000_000_000_000_000_000
        );
        assert_eq!(
            Money::from_nanos(-5).scale(0.5).as_nanos(),
            -3,
            "ties away from zero"
        );
    }

    #[test]
    #[should_panic(expected = "money must be finite")]
    fn from_dollars_nan_panics() {
        let _ = Money::from_dollars(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "money must be finite")]
    fn from_dollars_infinity_panics() {
        let _ = Money::from_dollars(f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "money out of range")]
    fn from_dollars_beyond_i128_panics() {
        let _ = Money::from_dollars(1e30);
    }

    #[test]
    #[should_panic(expected = "scaled money out of range")]
    fn overflowing_scale_panics() {
        let _ = Money::from_nanos(i128::MAX / 2).scale(4.0);
    }
}
