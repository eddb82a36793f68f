//! Exact integer scaling by a fixed fraction without a division per call.
//!
//! The simulator converts cycles to nanoseconds, bits to serialization
//! time and timestamps to recorder slots once per packet, each by a divisor
//! that never changes during a run. A `u128` quotient compiles to a call to
//! `__udivti3` and a `u64` one to `div`, both tens of cycles. A `Scale`
//! reduces the fraction once and applies the divisor through a multiply-high
//! reciprocal (Granlund and Montgomery, "Division by Invariant Integers
//! using Multiplication", PLDI 1994, Fig. 4.1), which is exact for every
//! `u64` numerator: the result is the quotient the `u128` expression gives,
//! bit for bit.

/// `n ↦ ⌊(n·mul + add) / div⌋`, truncated to `u64` like the `u128`
/// expression `((n as u128 * mul as u128 + add as u128) / div as u128) as
/// u64` it replaces.
///
/// `Scale::new` divides `mul`, `add` and `div` by `gcd(mul, div)` (the
/// quotient is unchanged: `⌊(g·x + a) / (g·d)⌋ = ⌊(x + ⌊a/g⌋) / d⌋`), so
/// `n·mul + add` fits `u64` for every numerator the simulator meets:
/// nanoseconds of `n` cycles at 1.2 GHz, `(n·10⁹ + 6·10⁸) / (1.2·10⁹)`,
/// reduce to `(5n + 3) / 6`. When it does not fit, `Scale::apply` takes a
/// `#[cold]` path that evaluates the `u128` expression itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scale {
    mul: u64,
    add: u64,
    div: u64,
    /// `⌊2^64·(2^l − div) / div⌋ + 1` for `l = ⌈log2 div⌉`.
    magic: u64,
    /// `min(l, 1)` and `max(l − 1, 0)`.
    shift1: u32,
    shift2: u32,
}

impl Scale {
    /// The scaling `n ↦ ⌊(n·mul + add) / div⌋`.
    ///
    /// # Panics
    ///
    /// Panics if `div` is zero.
    pub(crate) fn new(mul: u64, add: u64, div: u64) -> Scale {
        assert!(div > 0, "a scale needs a positive divisor");
        let g = gcd(mul, div);
        let (mul, add, div) = (mul / g, add / g, div / g);
        let l = 64 - (div - 1).leading_zeros();
        let magic = ((((1u128 << l) - div as u128) << 64) / div as u128 + 1) as u64;
        Scale {
            mul,
            add,
            div,
            magic,
            shift1: l.min(1),
            shift2: l.saturating_sub(1),
        }
    }

    /// `⌊(n·mul + add) / div⌋` as a `u64`.
    #[inline]
    pub(crate) fn apply(&self, n: u64) -> u64 {
        match n
            .checked_mul(self.mul)
            .and_then(|x| x.checked_add(self.add))
        {
            Some(x) => self.quotient(x),
            None => self.wide(n),
        }
    }

    /// `⌊x / div⌋` through the reciprocal: exact for every `u64` `x`.
    #[inline]
    fn quotient(&self, x: u64) -> u64 {
        let t = ((x as u128 * self.magic as u128) >> 64) as u64;
        (t + ((x - t) >> self.shift1)) >> self.shift2
    }

    /// The `u128` definition, for a numerator whose product overflows.
    #[cold]
    #[inline(never)]
    fn wide(&self, n: u64) -> u64 {
        ((n as u128 * self.mul as u128 + self.add as u128) / self.div as u128) as u64
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Numerators at and around small and the largest multiples of `d`,
    /// the powers of two and the ends of the range, plus seeded ones.
    fn edges(d: u64, rng: &mut SimRng) -> Vec<u64> {
        let mut xs = vec![
            0,
            1,
            2,
            u64::MAX,
            u64::MAX - 1,
            u64::MAX / 2,
            u64::MAX / 2 + 1,
        ];
        for k in [1u64, 2, 3, 1_000, u64::MAX / d] {
            let m = k.saturating_mul(d);
            xs.extend([m.saturating_sub(1), m, m.saturating_add(1)]);
        }
        for b in 0..64 {
            xs.extend([(1u64 << b) - 1, 1 << b, (1u64 << b) + 1]);
        }
        let top = u64::MAX - u64::MAX % d;
        xs.extend([top - 1, top, top.saturating_add(1)]);
        xs.extend((0..64).map(|_| rng.next_u64()));
        xs
    }

    #[test]
    fn the_reciprocal_divides_exactly_for_every_divisor_shape() {
        let mut rng = SimRng::seed(45);
        let mut divisors: Vec<u64> = (1..=4096).collect();
        divisors.extend((12..64).map(|b| 1u64 << b));
        divisors.extend([(1 << 63) + 1, (1 << 63) + 12_345, u64::MAX - 1, u64::MAX]);
        divisors.extend((0..64).map(|_| rng.next_u64() | 1 << 63));
        // The model's clocks and line rates, and the bin widths the figures
        // record into.
        divisors.extend([
            800_000_000,
            1_200_000_000,
            1_000_000_000,
            10_000_000_000,
            40_000_000_000,
            100_000_000_000,
            7_777_777_777,
            100_000,
            1_000_000,
        ]);
        for d in divisors {
            let s = Scale::new(1, 0, d);
            for x in edges(d, &mut rng) {
                assert_eq!(s.quotient(x), x / d, "{x} / {d}");
                assert_eq!(s.apply(x), x / d, "{x} / {d}");
            }
        }
    }

    #[test]
    fn overflowing_numerators_take_the_u128_definition() {
        let mut rng = SimRng::seed(46);
        let defs = [
            (1_000_000_000, 600_000_000, 1_200_000_000),
            (1_000_000_000, 39_999_999_999, 40_000_000_000),
            (7, 3, 5),
            (u64::MAX, u64::MAX, 3),
            (0, 5, 7),
            (u64::MAX, 0, u64::MAX),
        ];
        for (mul, add, div) in defs {
            let s = Scale::new(mul, add, div);
            for n in edges(div, &mut rng) {
                let want = ((n as u128 * mul as u128 + add as u128) / div as u128) as u64;
                assert_eq!(s.apply(n), want, "({n}·{mul} + {add}) / {div}");
                assert_eq!(s.wide(n), want, "({n}·{mul} + {add}) / {div}");
            }
        }
    }

    #[test]
    fn the_fraction_is_reduced() {
        let s = Scale::new(1_000_000_000, 600_000_000, 1_200_000_000);
        assert_eq!((s.mul, s.add, s.div), (5, 3, 6));
        let s = Scale::new(1_000_000_000, 39_999_999_999, 40_000_000_000);
        assert_eq!((s.mul, s.add, s.div), (1, 39, 40));
    }
}
