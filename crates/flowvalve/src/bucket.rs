//! Lock-free token buckets.
//!
//! The paper's meter function "is essentially a wrapper around the atomic
//! meter instruction" (§IV-D): metering must be wait-free per packet, with
//! no lock, because every worker core meters on every packet. Refill and
//! rate recomputation are the *guarded* part (Algorithm 1's `update`), run
//! by whichever core wins the try-lock.
//!
//! [`TokenBucket`] models the NFP's transactional-memory *test-and-add*:
//! [`TokenBucket::meter`] loads the level and answers red without writing
//! when it is short; otherwise one `fetch_sub` whose previous value decides
//! the verdict — one atomic round-trip on green, a second `fetch_add` to
//! restore on a red that lost a race — instead of a compare-exchange retry
//! loop. The counter is interpreted as a *signed* token level: a losing
//! racer leaves transient debt that concurrent meters observe as "no
//! tokens" (a conservative red), and the restore erases it, so tokens are
//! never created or lost. The same type serves as the *shadow bucket*
//! holding a class's lendable tokens. Where one thread is the tree's only
//! writer (the discrete-event model), the scheduling function meters with a
//! load and a store instead: the same colours and levels, no atomic RMW.

use std::sync::atomic::{AtomicI64, Ordering};

use sim_core::fixed::Tokens;

/// The two-color meter verdict (paper Equation 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Color {
    /// Sufficient tokens: the packet conforms.
    Green,
    /// Insufficient tokens: the packet exceeds the class's bandwidth.
    Red,
}

/// A lock-free token bucket.
///
/// # Concurrency model
///
/// The level is a signed fixed-point counter. [`meter`] subtracts when
/// its load saw enough and repairs on failure, so under contention the
/// level may be *transiently* negative; any meter that observes the debt
/// returns a conservative [`Color::Red`]. The invariant that holds at all times is
/// conservation: tokens consumed by green verdicts never exceed tokens
/// added by [`refill`]/[`set_level`]. Spurious reds
/// under contention are allowed (the paper's NIC accepts the same: a
/// borrower that loses a race simply drops or retries on the next packet);
/// token *creation* is not.
///
/// [`meter`]: TokenBucket::meter
/// [`refill`]: TokenBucket::refill
/// [`set_level`]: TokenBucket::set_level
///
/// # Layout
///
/// Each bucket is aligned and padded to a 64-byte cache line. The
/// scheduling tree keeps all buckets in one flat slab; unpadded, four
/// 16-byte buckets share a line, so two workers metering *different*
/// classes still bounce the same line between cores (false sharing). A
/// line per bucket costs 48 spare bytes each — cheap against a slab of at
/// most a few hundred classes — and makes every meter's RMW contend only
/// with meters on the *same* bucket, which is the contention the paper's
/// test-and-add instruction is designed to absorb.
///
/// # Example
///
/// ```
/// use flowvalve::bucket::{Color, TokenBucket};
/// use sim_core::fixed::Tokens;
///
/// let bucket = TokenBucket::new(Tokens::from_bits(1_000));
/// bucket.refill(Tokens::from_bits(1_000));
/// assert_eq!(bucket.meter(Tokens::from_bits(600)), Color::Green);
/// assert_eq!(bucket.meter(Tokens::from_bits(600)), Color::Red); // only 400 left
/// ```
#[derive(Debug)]
#[repr(align(64))]
pub struct TokenBucket {
    /// Signed raw fixed-point token level; negative = transient debt.
    tokens: AtomicI64,
    burst: Tokens,
}

impl TokenBucket {
    /// Creates an empty bucket holding at most `burst` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `burst` is zero — a bucket that can never hold a token
    /// would silently drop everything.
    pub fn new(burst: Tokens) -> Self {
        assert!(burst > Tokens::ZERO, "burst must be positive");
        assert!(
            burst.raw() <= i64::MAX as u64,
            "burst exceeds signed token range"
        );
        TokenBucket {
            tokens: AtomicI64::new(0),
            burst,
        }
    }

    /// The configured burst capacity.
    pub fn burst(&self) -> Tokens {
        self.burst
    }

    /// Raw signed token level, transient debt included. The provenance
    /// capture reads this around meter calls so the conservation auditor
    /// can check exact deltas; a level clamped at zero would hide a
    /// mischarge.
    pub fn raw(&self) -> i64 {
        self.tokens.load(Ordering::Acquire)
    }

    /// Atomically meters a packet needing `need` tokens: on green the
    /// tokens are consumed, on red the bucket is left as found (Figure 8
    /// steps 2 and 5).
    ///
    /// Load first: a level below `need` is red without a write, decided
    /// at the load (a linearization point, as the subtraction is for the
    /// rest). Otherwise the test-and-add: one `fetch_sub`, green when the
    /// previous level still covered the need, else a `fetch_add` restores
    /// what a racing meter left too little of. So a green costs one atomic
    /// RMW, a red none, and only a red that lost a race two. On one thread
    /// it replays the single-writer meter (`meter_single_writer`) colour
    /// for colour and level for level.
    ///
    /// A red that writes moves a line every metering core shares; under
    /// saturation most verdicts are red. On the benchmark's `wallclock_2t`
    /// (two threads, about two thirds of the decisions red; interleaved
    /// 12 s pairs on a shared 2-vCPU Xeon), a prototype of the load-first
    /// form alone took `pkts_per_s` from 11.26 to 13.86 M (6 of 6 pairs).
    #[inline]
    pub fn meter(&self, need: Tokens) -> Color {
        let need = need.raw() as i64;
        if self.tokens.load(Ordering::Acquire) < need {
            return Color::Red;
        }
        let prev = self.tokens.fetch_sub(need, Ordering::AcqRel);
        if prev >= need {
            Color::Green
        } else {
            // Restore what we took; the transient debt makes concurrent
            // meters conservatively red but never mints tokens.
            self.tokens.fetch_add(need, Ordering::AcqRel);
            Color::Red
        }
    }

    /// [`TokenBucket::meter`] for the bucket's only writer: a load, and a
    /// store on green only: the shared meter's green without the `lock`
    /// prefix, since with no racing meter there is no transient debt to
    /// take and repair. Callers guarantee that no other thread touches the
    /// bucket meanwhile (`Exec::EXCLUSIVE`), so `Relaxed` suffices, as in
    /// `SchedulingTree::hot_add`.
    #[inline]
    pub(crate) fn meter_single_writer(&self, need: Tokens) -> Color {
        let need = need.raw() as i64;
        let level = self.tokens.load(Ordering::Relaxed);
        if level >= need {
            self.tokens
                .store(level.wrapping_sub(need), Ordering::Relaxed);
            Color::Green
        } else {
            Color::Red
        }
    }

    /// Adds tokens, saturating at the burst capacity.
    pub fn refill(&self, add: Tokens) {
        if add == Tokens::ZERO {
            return;
        }
        let add = add.raw() as i64;
        let prev = self.tokens.fetch_add(add, Ordering::AcqRel);
        // Clamp overshoot past the burst. Subtracting the excess instead of
        // storing the cap keeps racing meters' subtractions intact; a race
        // can only under-fill (conservative), never create tokens.
        let over = prev.saturating_add(add) - self.burst.raw() as i64;
        if over > 0 {
            self.tokens.fetch_sub(over.min(add), Ordering::AcqRel);
        }
    }

    /// Sets the level exactly (used when restoring initial state).
    pub fn set_level(&self, level: Tokens) {
        self.tokens
            .store(level.min(self.burst).raw() as i64, Ordering::Release);
    }
}

/// An atomic exponentially-weighted moving average of a rate, stored as a
/// raw [`sim_core::fixed::TokenRate`] value.
///
/// The update subprocedure publishes each epoch's instantaneous consumption
/// rate here (Equation 3); readers on other cores get the smoothed value
/// with a single atomic load. Folding is only ever performed by the core
/// holding the class update lock (Algorithm 1 guards it), so it is a plain
/// load + store rather than a read-modify-write.
#[derive(Debug, Default)]
pub struct AtomicRate {
    raw: std::sync::atomic::AtomicU64,
}

impl AtomicRate {
    /// Creates a zero rate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the current smoothed rate (raw fixed-point).
    pub fn load(&self) -> u64 {
        self.raw.load(Ordering::Acquire)
    }

    /// Publishes a new sample, folding it in with weight 1/2
    /// (`new = (old + sample) / 2`). Single-publisher: callers must hold
    /// the class update lock.
    pub fn fold(&self, sample: u64) {
        let old = self.raw.load(Ordering::Acquire);
        self.raw
            .store((old >> 1) + (sample >> 1), Ordering::Release);
    }

    /// Overwrites the rate (expired-status reset or initialization).
    pub fn store(&self, raw: u64) {
        self.raw.store(raw, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` bits as a raw signed token level.
    fn bits(n: u64) -> i64 {
        Tokens::from_bits(n).raw() as i64
    }

    #[test]
    fn meter_consumes_only_on_green() {
        let b = TokenBucket::new(Tokens::from_bits(100));
        b.refill(Tokens::from_bits(100));
        assert_eq!(b.meter(Tokens::from_bits(60)), Color::Green);
        assert_eq!(b.raw(), bits(40));
        assert_eq!(b.meter(Tokens::from_bits(60)), Color::Red);
        // Red leaves the level untouched (Figure 8 step 5).
        assert_eq!(b.raw(), bits(40));
    }

    #[test]
    fn refill_caps_at_burst() {
        let b = TokenBucket::new(Tokens::from_bits(100));
        b.refill(Tokens::from_bits(70));
        b.refill(Tokens::from_bits(70));
        assert_eq!(b.raw(), bits(100));
    }

    #[test]
    fn zero_refill_is_noop() {
        let b = TokenBucket::new(Tokens::from_bits(10));
        b.refill(Tokens::ZERO);
        assert_eq!(b.raw(), 0);
    }

    #[test]
    fn drain_and_set_level() {
        let b = TokenBucket::new(Tokens::from_bits(100));
        b.refill(Tokens::from_bits(50));
        b.set_level(Tokens::ZERO);
        assert_eq!(b.raw(), 0);
        b.set_level(Tokens::from_bits(1_000)); // clamped to burst
        assert_eq!(b.raw(), bits(100));
    }

    #[test]
    #[should_panic]
    fn zero_burst_rejected() {
        let _ = TokenBucket::new(Tokens::ZERO);
    }

    #[test]
    fn concurrent_meters_never_overdraw() {
        use std::sync::Arc;
        // 8 threads race to meter 1-bit packets from a 1000-bit budget.
        // Test-and-add may issue conservative (spurious) reds under
        // contention, so the invariant is conservation, not exhaustion:
        // greens never exceed the budget, and every green is accounted for
        // in the final level.
        let b = Arc::new(TokenBucket::new(Tokens::from_bits(1_000)));
        b.refill(Tokens::from_bits(1_000));
        let greens: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        let mut green = 0u64;
                        for _ in 0..1_000 {
                            if b.meter(Tokens::from_bits(1)) == Color::Green {
                                green += 1;
                            }
                        }
                        green
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert!(greens <= 1_000, "overdraw: {greens} greens");
        assert_eq!(
            bits(greens) + b.raw(),
            bits(1_000),
            "tokens created or lost"
        );
    }

    #[test]
    fn concurrent_meters_with_refills_never_create_tokens() {
        use std::sync::Arc;
        // Meters race a refiller; greens can never exceed what was added.
        let b = Arc::new(TokenBucket::new(Tokens::from_bits(1 << 30)));
        let added = Tokens::from_bits(1 << 14);
        let greens: u64 = std::thread::scope(|s| {
            let refiller = {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for _ in 0..64 {
                        b.refill(Tokens::from_bits(256));
                        std::thread::yield_now();
                    }
                })
            };
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        (0..5_000)
                            .filter(|_| b.meter(Tokens::from_bits(33)) == Color::Green)
                            .count() as u64
                    })
                })
                .collect();
            refiller.join().unwrap();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        // No clamping occurs here (the burst is huge), so accounting is
        // exact even while meters race refills: all ops are adds/subtracts.
        assert_eq!(
            bits(greens * 33) + b.raw(),
            added.raw() as i64,
            "greens + residue must equal refills exactly"
        );
    }

    #[test]
    fn the_single_writer_meter_replays_the_shared_one_on_one_thread() {
        use sim_core::rng::SimRng;
        // Two buckets fed the same seeded needs and refills: every colour
        // and every level after it agree, reds that find the level short
        // but out of debt included.
        let burst = Tokens::from_bits(40_000);
        let (shared, single) = (TokenBucket::new(burst), TokenBucket::new(burst));
        let mut rng = SimRng::seed(0x5eed_b0c7);
        let mut reds = 0;
        for _ in 0..20_000 {
            let r = rng.next_u64();
            if r.is_multiple_of(4) {
                let add = Tokens::from_bits((r >> 8) % 24_000);
                shared.refill(add);
                single.refill(add);
            }
            let need = Tokens::from_bits(1 + (r >> 32) % 12_000);
            let colour = shared.meter(need);
            assert_eq!(single.meter_single_writer(need), colour);
            assert_eq!(single.raw(), shared.raw());
            if colour == Color::Red {
                assert!(single.raw() >= 0, "a red left debt");
                reds += 1;
            }
        }
        assert!((2_000..18_000).contains(&reds), "{reds} reds");
    }

    #[test]
    fn atomic_rate_folds_toward_sample() {
        let r = AtomicRate::new();
        r.store(1_000);
        r.fold(3_000);
        assert_eq!(r.load(), 2_000);
        // Repeated folding converges on the sample.
        for _ in 0..20 {
            r.fold(3_000);
        }
        let v = r.load();
        assert!(v > 2_990 && v <= 3_000, "got {v}");
    }

    #[test]
    fn atomic_rate_starts_zero() {
        assert_eq!(AtomicRate::new().load(), 0);
    }

    #[test]
    fn buckets_occupy_whole_cache_lines() {
        // Slab neighbours must never share a line (false sharing).
        assert_eq!(std::mem::size_of::<TokenBucket>(), 64);
        assert_eq!(std::mem::align_of::<TokenBucket>(), 64);
    }
}
