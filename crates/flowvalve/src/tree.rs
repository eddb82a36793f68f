//! The scheduling tree: class hierarchy, runtime state, and the guarded
//! update subprocedure.
//!
//! A [`SchedulingTree`] has an immutable topology (built once by the front
//! end and populated into NIC shared memory, paper §IV-A) and per-node
//! runtime state held entirely in atomics, so the data-path methods take
//! `&self` and the same tree can be shared by simulated cores (virtual
//! time) or real OS threads (wall-clock benchmarks).
//!
//! Per node the runtime state mirrors the paper §IV-B/§IV-C:
//!
//! * a **token bucket** — leaves use it to *limit*, interior nodes to
//!   *measure*;
//! * a **shadow bucket** holding the class's lendable tokens (Equation 6);
//! * the published **token rate θ** recomputed each update epoch from the
//!   parent's θ and sibling consumption rates (Equations 2, 4, 5);
//! * the measured **consumption rate Γ** (Equation 3), an EWMA over
//!   update epochs;
//! * timestamps driving update intervals and expired-status removal
//!   (Subprocedure 3).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use fv_telemetry::metrics::Counter;
use fv_telemetry::trace::{EventRing, TraceKind};
use fv_telemetry::Registry;

use sim_core::fixed::{TokenRate, Tokens, RATE_FRAC_BITS};
use sim_core::time::Nanos;
use sim_core::units::BitRate;
use std::sync::Mutex;

use crate::bucket::{AtomicRate, Color, TokenBucket};
use crate::error::BuildTreeError;
use crate::label::{ClassId, QosLabel, MAX_BORROW, MAX_DEPTH};

/// User-facing configuration of one traffic class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSpec {
    /// Class id (unique within the tree).
    pub id: ClassId,
    /// Human-readable name for experiment output.
    pub name: String,
    /// Parent class; `None` marks the root.
    pub parent: Option<ClassId>,
    /// Priority level among siblings: smaller is served first
    /// (`tc` convention). Default 0.
    pub prio: u8,
    /// Weight among same-priority siblings (Equation 5). Default 1.
    pub weight: u32,
    /// Guaranteed (assured) rate. Required on the root, where it is the
    /// link ceiling; on other classes it is the floor reserved for them
    /// even against higher-priority siblings.
    pub rate: Option<BitRate>,
    /// Ceiling rate this class may never exceed, borrowing included.
    pub ceil: Option<BitRate>,
}

impl ClassSpec {
    /// Creates a class with defaults (prio 0, weight 1, no rate/ceil).
    pub fn new(id: ClassId, name: impl Into<String>, parent: Option<ClassId>) -> Self {
        ClassSpec {
            id,
            name: name.into(),
            parent,
            prio: 0,
            weight: 1,
            rate: None,
            ceil: None,
        }
    }

    /// Sets the priority level (builder-style).
    pub fn prio(mut self, prio: u8) -> Self {
        self.prio = prio;
        self
    }

    /// Sets the weight (builder-style).
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the guaranteed rate (builder-style).
    pub fn rate(mut self, rate: BitRate) -> Self {
        self.rate = Some(rate);
        self
    }
}

/// Tuning knobs of the scheduling functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Minimum interval between update epochs of one class (ΔT floor).
    pub min_update_interval: Nanos,
    /// Idle time after which a class's status is considered expired and
    /// restored to its initial value (Subprocedure 3).
    pub expiry: Nanos,
    /// Token bucket burst, expressed as a time window at the root rate.
    pub burst_window: Nanos,
    /// Shadow bucket burst window (lendable-token accumulation bound).
    pub shadow_burst_window: Nanos,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            min_update_interval: Nanos::from_micros(50),
            expiry: Nanos::from_millis(2),
            burst_window: Nanos::from_micros(250),
            shadow_burst_window: Nanos::from_micros(125),
        }
    }
}

/// Per-class data-path counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Packets forwarded from this class's own budget.
    pub forwarded: u64,
    /// Packets forwarded by borrowing through this class's label.
    pub borrowed: u64,
    /// Packets dropped at this class (leaf verdicts only).
    pub dropped: u64,
    /// Packets other classes drew from this class's shadow bucket.
    pub lent: u64,
}

/// Number of per-node hot-state stripes; must stay a power of two.
///
/// More than one because every packet writes the root's `consumed_bits`
/// and `last_packet`, so without stripes all forwarding threads share
/// that line. Measured with the benchmark's `wallclock_2t` workload (two
/// threads, one tree, `RealExec`; 24 s runs, `--trace 0`, interleaved
/// pairs on seeds 11–16, 2-vCPU Xeon 2.1 GHz), `pkts_per_s` in M/s, every
/// run:
///
/// | stripes | 11    | 12    | 13    | 14    | 15    | 16    | median |
/// |---------|-------|-------|-------|-------|-------|-------|--------|
/// | 8       | 13.36 | 13.68 | 13.83 | 13.54 | 13.49 | 13.27 | 13.52  |
/// | 1       | 8.52  | 8.78  | 8.65  | 8.57  | 8.59  | 8.51  | 8.58   |
///
/// That is −37 %, past the benchmark's 25 % bound (`ns_per_pkt_p50`
/// 148 → 233 ns). Two threads occupy two stripes whatever the count, so
/// 2…8 cannot be told apart on a 2-vCPU host: the count is **unverified
/// between 2 and 8**.
///
/// Stripe 0 is the shared stripe; stripes 1..`HOT_STRIPES` are leased. A
/// `RealExec` thread leases a free one for its lifetime (`thread_stripe`
/// in `sched.rs`) and, as its only writer, writes it with plain loads and
/// stores; a thread that finds none free writes stripe 0 with RMWs, and a
/// `SimExec` walk, the tree's only writer, writes stripe 0 with plain
/// stores. So seven threads at a time own a line each.
///
/// A merge reads only the *live* stripes, `hot[..live]`, where `live` is
/// one past the highest stripe any packet has written to this tree (1 at
/// build; see `SchedulingTree::register_stripe`). A stripe past it has
/// never been written and holds zeros, which add nothing to a sum and
/// nothing to a max, so the merge is exact. Leases go lowest stripe first
/// and come back at thread exit, so `live` tracks the most threads that
/// ever ran at once, not how many ever ran. Under `SimExec` every packet
/// writes stripe 0 and a merge is one line.
pub(crate) const HOT_STRIPES: usize = 8;
const HOT_STRIPE_MASK: usize = HOT_STRIPES - 1;

/// One stripe of a node's per-packet hot state. Everything a forwarding
/// thread writes per packet lives here, one aligned cache line per stripe,
/// so concurrent workers hammering the same class (or the shared root)
/// never bounce a line between cores per packet; only the class's update
/// epoch visits it, to drain Γ. Merges read the live stripes (see
/// `HOT_STRIPES`) and are exact: sums for the counters, which only ever
/// grow, and `max` for `last_packet`.
#[repr(align(64))]
#[derive(Default)]
pub(crate) struct NodeHot {
    pub(crate) consumed_bits: AtomicU64,
    pub(crate) last_packet: AtomicU64,
    pub(crate) forwarded: AtomicU64,
    pub(crate) borrowed: AtomicU64,
    pub(crate) dropped: AtomicU64,
    pub(crate) lent: AtomicU64,
    /// The `consumed_bits` value the node's last update epoch drained from
    /// this stripe, so the next one takes the difference and the stripe
    /// keeps its one writer. Read and written only under the node's update
    /// lock. It sits in the line's spare bytes, so `NodeHot` stays one line
    /// and `Node`, whose layout the simulated walk reads, keeps its own; a
    /// tree-level array of marks instead cost an allocation and a cold
    /// line per epoch, and read lower on `flow_churn` (DESIGN.md §7.1).
    drained: AtomicU64,
}

const _: () = assert!(std::mem::size_of::<NodeHot>() == 64);

pub(crate) struct Node {
    pub(crate) spec: ClassSpec,
    pub(crate) parent: Option<usize>,
    pub(crate) children: Vec<usize>,
    pub(crate) depth: usize,
    /// Higher-priority siblings whose Γ is subtracted (Equation 4).
    pub(crate) subtract: Vec<usize>,
    /// Lower-priority siblings whose guaranteed floors are reserved.
    pub(crate) lower: Vec<usize>,
    /// Weight share among same-priority siblings: (weight, level total) —
    /// the static split used to seed initial rates.
    pub(crate) share: (u64, u64),
    /// Weight share among *all* siblings, used as the guarantee fallback
    /// when the parent cannot cover every guarantee.
    pub(crate) fallback: (u64, u64),
    /// Same-priority siblings (excluding self); at update time the weight
    /// denominator only counts the *active* ones (Subprocedure 3: expired
    /// classes drop out of the split instead of wasting their share).
    pub(crate) same_level: Vec<usize>,
    /// Guaranteed rate in raw fixed-point (0 when none).
    pub(crate) guarantee_raw: u64,
    /// Ceiling in raw fixed-point (`u64::MAX` when none).
    pub(crate) ceil_raw: u64,

    // --- runtime state (all atomics; data-path methods take &self) ---
    pub(crate) theta: AtomicU64,
    pub(crate) gamma: AtomicRate,
    /// Index of the class token bucket in the tree's flat bucket slab.
    pub(crate) bucket: u32,
    /// Index of the shadow (lendable-token) bucket in the slab.
    pub(crate) shadow: u32,
    /// Slab index of the ceiling bucket, present iff the class has a
    /// configured ceiling: every forwarded packet — borrowed ones included —
    /// must also conform here, which is what makes `ceil` bound borrowing
    /// (HTB semantics).
    pub(crate) ceil_bucket: Option<u32>,
    /// Striped per-packet hot state (consumption, touch, verdict counters).
    hot: [NodeHot; HOT_STRIPES],
    /// Level floor: 0 at build, then the lowest `last_packet` of the
    /// `same_level` siblings when the last update epoch scanned them
    /// (`u64::MAX` for no sibling). Read and written only under this
    /// class's update lock. `last_packet` only grows, so the floor stays a
    /// lower bound on every sibling's; while `now − floor ≤ expiry` every
    /// sibling is active and Equation 5's denominator is `share.1` without
    /// a scan.
    level_floor: AtomicU64,
    pub(crate) last_update: AtomicU64,
    pub(crate) shadow_last_update: AtomicU64,
    /// Real-thread update guards (`RealExec`).
    pub(crate) update_mutex: Mutex<()>,
    pub(crate) shadow_mutex: Mutex<()>,
}

impl Node {
    #[inline]
    pub(crate) fn hot(&self, stripe: usize) -> &NodeHot {
        &self.hot[stripe & HOT_STRIPE_MASK]
    }

    /// Every hot-state stripe, written or not: what a test-side
    /// transcription of a merge reads instead of the merge itself.
    #[cfg(test)]
    pub(crate) fn all_stripes(&self) -> &[NodeHot; HOT_STRIPES] {
        &self.hot
    }
}

impl core::fmt::Debug for Node {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.spec.id)
            .field("name", &self.spec.name)
            .field("depth", &self.depth)
            .finish_non_exhaustive()
    }
}

/// Raw fixed-point rate for an optional bandwidth.
/// Whether `rate` converts to a token rate without truncating and the
/// tokens it accrues over `window` fit a bucket's signed level — the bound
/// on every burst and on every refill, whose interval is capped at the
/// expiry window.
fn meterable(rate: BitRate, window: Nanos) -> bool {
    let raw = (u128::from(rate.as_bps()) << RATE_FRAC_BITS) / 1_000_000_000;
    raw <= u128::from(u64::MAX)
        && TokenRate::from_raw(raw as u64).accrued(window).raw() <= i64::MAX as u64
}

fn rate_raw(rate: Option<BitRate>) -> u64 {
    rate.map(|r| TokenRate::from_bit_rate(r).raw()).unwrap_or(0)
}

/// `raw × num / den` with u128 intermediates.
fn frac(raw: u64, (num, den): (u64, u64)) -> u64 {
    debug_assert!(den > 0);
    (raw as u128 * num as u128 / den as u128) as u64
}

/// Instantaneous rate (raw fixed-point bits/ns) from bits over an interval.
fn inst_rate_raw(bits: u64, dt: Nanos) -> u64 {
    if dt == Nanos::ZERO {
        return 0;
    }
    ((bits as u128) << RATE_FRAC_BITS as u128).div_euclid(dt.as_nanos() as u128) as u64
}

/// Registry handles for update-epoch activity: token-bucket and
/// shadow-bucket refills, surfaced as counters and trace-ring events.
/// Recording is wait-free, so the identical instrumentation runs under the
/// virtual clock (SimExec) and on real OS threads (RealExec benches).
pub(crate) struct TreeTelemetry {
    pub(crate) updates: Arc<Counter>,
    pub(crate) shadow_updates: Arc<Counter>,
    pub(crate) ring: Arc<EventRing>,
}

/// The FlowValve scheduling tree.
///
/// # Example
///
/// ```
/// use flowvalve::label::ClassId;
/// use flowvalve::tree::{ClassSpec, SchedulingTree, TreeParams};
/// use sim_core::units::BitRate;
///
/// let specs = vec![
///     ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(10.0)),
///     ClassSpec::new(ClassId(10), "hi", Some(ClassId(1))).prio(0),
///     ClassSpec::new(ClassId(20), "lo", Some(ClassId(1))).prio(1),
/// ];
/// let tree = SchedulingTree::build(specs, TreeParams::default())?;
/// assert_eq!(tree.len(), 3);
/// let label = tree.label(ClassId(10), &[])?;
/// assert_eq!(label.path().len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SchedulingTree {
    nodes: Vec<Node>,
    /// Every token bucket of the tree — class, shadow and ceiling — in one
    /// contiguous slab. Nodes and compiled admission chains reference
    /// buckets by slab index, so the per-packet token tests walk a flat
    /// array instead of pointer-chasing through `Node`.
    slab: Vec<TokenBucket>,
    /// Direct-indexed class lookup: `index[id.0]` is the node index, or
    /// `u32::MAX` for an absent id. Class ids are `u16`, so the table is at
    /// most 64 Ki entries and the per-packet id → node resolution is one
    /// bounds-checked array load instead of a SipHash `HashMap` probe.
    index: Vec<u32>,
    params: TreeParams,
    root: usize,
    root_rate_raw: u64,
    /// Bumped on every completed update epoch (rate-estimation roll) and
    /// every shadow epoch (borrowing-state change). See
    /// [`SchedulingTree::epoch`].
    epoch: AtomicU64,
    /// One past the highest hot-state stripe a packet has written: every
    /// merge reads `hot[..live]` (see `HOT_STRIPES`).
    live: AtomicUsize,
    telemetry: OnceLock<TreeTelemetry>,
    /// Same-level sibling activity reads by `update_node`, and its epochs
    /// that read none because the level floor held.
    #[cfg(test)]
    pub(crate) sibling_reads: AtomicU64,
    #[cfg(test)]
    pub(crate) floor_hits: AtomicU64,
    /// Read-modify-writes issued on hot state and by slab meters outside
    /// guarded updates: what a packet's walk pays per shared write.
    #[cfg(test)]
    pub(crate) walk_rmws: AtomicU64,
    /// Bits `update_node` has drained into Γ, every class together.
    #[cfg(test)]
    pub(crate) drained_bits: AtomicU64,
}

impl core::fmt::Debug for SchedulingTree {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SchedulingTree")
            .field("classes", &self.nodes.len())
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

impl SchedulingTree {
    /// Builds a tree from class specifications.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTreeError`] for duplicate ids, dangling parents,
    /// missing/multiple roots, a rate-less root, cycles, excessive depth,
    /// zero weights, or a ceiling below the guarantee.
    pub fn build(specs: Vec<ClassSpec>, params: TreeParams) -> Result<Self, BuildTreeError> {
        // Index and uniqueness.
        let window = params
            .expiry
            .max(params.burst_window)
            .max(params.shadow_burst_window);
        let mut index = HashMap::with_capacity(specs.len());
        for (i, s) in specs.iter().enumerate() {
            if index.insert(s.id, i).is_some() {
                return Err(BuildTreeError::DuplicateClass(s.id));
            }
            if s.weight == 0 {
                return Err(BuildTreeError::ZeroWeight(s.id));
            }
            if [s.rate, s.ceil]
                .into_iter()
                .flatten()
                .any(|r| !meterable(r, window))
            {
                return Err(BuildTreeError::RateOutOfRange(s.id));
            }
            if let (Some(r), Some(c)) = (s.rate, s.ceil) {
                if c < r {
                    return Err(BuildTreeError::CeilBelowRate(s.id));
                }
            }
        }

        // Root.
        let mut root = None;
        for (i, s) in specs.iter().enumerate() {
            match s.parent {
                None => match root {
                    None => root = Some(i),
                    Some(r) => {
                        return Err(BuildTreeError::MultipleRoots(specs[r].id, s.id));
                    }
                },
                Some(p) => {
                    if !index.contains_key(&p) {
                        return Err(BuildTreeError::UnknownParent {
                            class: s.id,
                            parent: p,
                        });
                    }
                }
            }
        }
        let root = root.ok_or(BuildTreeError::MissingRoot)?;
        let root_rate = specs[root]
            .rate
            .ok_or(BuildTreeError::RootWithoutRate(specs[root].id))?;
        let root_rate_raw = rate_raw(Some(root_rate));

        // Depths (also detects cycles).
        let mut depth = vec![usize::MAX; specs.len()];
        for i in 0..specs.len() {
            let mut d = 0usize;
            let mut cur = i;
            while let Some(p) = specs[cur].parent {
                cur = index[&p];
                d += 1;
                if d > specs.len() {
                    return Err(BuildTreeError::CyclicHierarchy(specs[i].id));
                }
            }
            if d + 1 > MAX_DEPTH {
                return Err(BuildTreeError::TooDeep(specs[i].id));
            }
            depth[i] = d;
        }

        // Children lists.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); specs.len()];
        for (i, s) in specs.iter().enumerate() {
            if let Some(p) = s.parent {
                children[index[&p]].push(i);
            }
        }

        // Sibling-derived rate rules and burst sizes.
        let burst = TokenRate::from_bit_rate(root_rate)
            .accrued(params.burst_window)
            .max(Tokens::from_bytes(2 * 1518));
        let shadow_burst = TokenRate::from_bit_rate(root_rate)
            .accrued(params.shadow_burst_window)
            .max(Tokens::from_bytes(2 * 1518));

        let mut nodes = Vec::with_capacity(specs.len());
        let mut slab: Vec<TokenBucket> = Vec::with_capacity(specs.len() * 3);
        for (i, s) in specs.iter().enumerate() {
            let siblings: Vec<usize> = match s.parent {
                Some(p) => children[index[&p]].clone(),
                None => vec![i],
            };
            let subtract: Vec<usize> = siblings
                .iter()
                .copied()
                .filter(|&j| specs[j].prio < s.prio)
                .collect();
            let lower: Vec<usize> = siblings
                .iter()
                .copied()
                .filter(|&j| specs[j].prio > s.prio)
                .collect();
            let level_total: u64 = siblings
                .iter()
                .filter(|&&j| specs[j].prio == s.prio)
                .map(|&j| specs[j].weight as u64)
                .sum();
            let all_total: u64 = siblings.iter().map(|&j| specs[j].weight as u64).sum();
            let same_level: Vec<usize> = siblings
                .iter()
                .copied()
                .filter(|&j| j != i && specs[j].prio == s.prio)
                .collect();

            nodes.push(Node {
                parent: s.parent.map(|p| index[&p]),
                children: children[i].clone(),
                depth: depth[i],
                subtract,
                lower,
                share: (s.weight as u64, level_total.max(1)),
                fallback: (s.weight as u64, all_total.max(1)),
                same_level,
                guarantee_raw: rate_raw(s.rate),
                ceil_raw: if s.ceil.is_some() {
                    rate_raw(s.ceil)
                } else {
                    u64::MAX
                },
                theta: AtomicU64::new(0),
                gamma: AtomicRate::new(),
                bucket: {
                    slab.push(TokenBucket::new(burst));
                    (slab.len() - 1) as u32
                },
                shadow: {
                    slab.push(TokenBucket::new(shadow_burst));
                    (slab.len() - 1) as u32
                },
                ceil_bucket: s.ceil.map(|_| {
                    slab.push(TokenBucket::new(burst));
                    (slab.len() - 1) as u32
                }),
                hot: Default::default(),
                level_floor: AtomicU64::new(0),
                last_update: AtomicU64::new(0),
                shadow_last_update: AtomicU64::new(0),
                update_mutex: Mutex::new(()),
                shadow_mutex: Mutex::new(()),
                spec: s.clone(),
            });
        }

        // Flatten the build-time id map into the direct-index table the
        // data path reads (class ids are u16, so this is small and dense
        // enough for policy-sized id spaces).
        let max_id = specs.iter().map(|s| s.id.0 as usize).max().unwrap_or(0);
        let mut flat = vec![u32::MAX; max_id + 1];
        for (id, i) in index {
            flat[id.0 as usize] = i as u32;
        }

        let tree = SchedulingTree {
            nodes,
            slab,
            index: flat,
            params,
            root,
            root_rate_raw,
            epoch: AtomicU64::new(0),
            live: AtomicUsize::new(1),
            telemetry: OnceLock::new(),
            #[cfg(test)]
            sibling_reads: AtomicU64::new(0),
            #[cfg(test)]
            floor_hits: AtomicU64::new(0),
            #[cfg(test)]
            walk_rmws: AtomicU64::new(0),
            #[cfg(test)]
            drained_bits: AtomicU64::new(0),
        };
        tree.initialize_rates();
        Ok(tree)
    }

    /// Wires update-epoch telemetry into `registry` (namespace `fv.tree.*`
    /// plus `TokenRefill`/`ShadowRefill` trace events). Attach-once: later
    /// calls on the same tree are ignored. Safe to call on a shared tree —
    /// recording is wait-free under both clocks.
    pub fn attach_telemetry(&self, registry: &Registry) {
        let _ = self.telemetry.set(TreeTelemetry {
            updates: registry.counter("fv.tree.updates"),
            shadow_updates: registry.counter("fv.tree.shadow_updates"),
            ring: registry.ring(),
        });
    }

    /// Seeds every node's θ with its static share (everyone assumed idle)
    /// and fills buckets to burst so the first packets are not punished.
    fn initialize_rates(&self) {
        // Root first, then by depth (parents before children).
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by_key(|&i| self.nodes[i].depth);
        for i in order {
            let n = &self.nodes[i];
            let theta = match n.parent {
                None => self.root_rate_raw,
                Some(p) => {
                    let tp = self.nodes[p].theta.load(Ordering::Acquire);
                    // Idle assumption: no higher-priority consumption, so
                    // every class starts at its same-level weighted share.
                    frac(tp, n.share).min(n.ceil_raw)
                }
            };
            n.theta.store(theta, Ordering::Release);
            let b = &self.slab[n.bucket as usize];
            b.set_level(b.burst());
            if let Some(ci) = n.ceil_bucket {
                let cb = &self.slab[ci as usize];
                cb.set_level(cb.burst());
            }
        }
    }

    /// Number of classes in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no classes (never true for a built tree).
    // Kept public because clippy's `len_without_is_empty` wants it beside
    // `len`.
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The tuning parameters.
    pub fn params(&self) -> TreeParams {
        self.params
    }

    /// All class ids, root first in depth order.
    pub fn class_ids(&self) -> Vec<ClassId> {
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by_key(|&i| (self.nodes[i].depth, self.nodes[i].spec.id));
        order.into_iter().map(|i| self.nodes[i].spec.id).collect()
    }

    /// The class specification for `id`.
    pub fn spec(&self, id: ClassId) -> Option<&ClassSpec> {
        self.node_index(id).map(|i| &self.nodes[i].spec)
    }

    /// The root class's rate ([`SchedulingTree::build`] refuses a root
    /// without one).
    pub fn root_rate(&self) -> BitRate {
        self.nodes[self.root]
            .spec
            .rate
            .expect("build refuses a root without a rate")
    }

    #[inline]
    pub(crate) fn node_index(&self, id: ClassId) -> Option<usize> {
        match self.index.get(id.0 as usize) {
            Some(&i) if i != u32::MAX => Some(i as usize),
            _ => None,
        }
    }

    pub(crate) fn node(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    /// One bucket of the flat slab (class, shadow and ceiling buckets of
    /// every node live here; nodes and compiled chains hold slab indices).
    pub(crate) fn slab_bucket(&self, i: u32) -> &TokenBucket {
        &self.slab[i as usize]
    }

    /// A point-in-time snapshot of the whole bucket slab, attributed to
    /// owning classes, for the fv-audit conservation ledger. Raw levels
    /// (debt included) rather than clamped ones: an overfilled or leaking
    /// bucket must show as it is.
    pub fn slab_snapshot(&self) -> Vec<fv_audit::BucketSnapshot> {
        let mut out = Vec::with_capacity(self.slab.len());
        for n in &self.nodes {
            let roles = [
                (Some(n.bucket), "class"),
                (Some(n.shadow), "shadow"),
                (n.ceil_bucket, "ceil"),
            ];
            for (idx, role) in roles {
                if let Some(i) = idx {
                    let b = &self.slab[i as usize];
                    out.push(fv_audit::BucketSnapshot {
                        index: i,
                        class: n.spec.id.0,
                        role,
                        raw: b.raw(),
                        burst: b.burst().raw(),
                    });
                }
            }
        }
        out.sort_by_key(|b| b.index);
        out
    }

    /// Adds `n` to one hot-state cell on a packet's walk: a `fetch_add`
    /// where workers share the cell, a plain load and store where the
    /// caller is its only writer (`Exec::EXCLUSIVE`, or a leased stripe),
    /// the way `Counter::add_single_writer` writes. The only writer's
    /// accesses are `Relaxed`: a reader merging meanwhile sees a value the
    /// cell held, and one that reads afterwards synchronizes with the
    /// writer through whatever ended its writing (a join, a channel, the
    /// lease's release), which orders these stores before that read.
    #[inline]
    pub(crate) fn hot_add(&self, cell: &AtomicU64, n: u64, exclusive: bool) {
        if exclusive {
            cell.store(
                cell.load(Ordering::Relaxed).wrapping_add(n),
                Ordering::Relaxed,
            );
        } else {
            #[cfg(test)]
            self.walk_rmws.fetch_add(1, Ordering::Relaxed);
            cell.fetch_add(n, Ordering::AcqRel);
        }
    }

    /// Marks `node` touched at `now_ns` on `stripe` (drives expiry): a
    /// `fetch_max`, or a compare and store for the stripe's only writer.
    #[inline]
    pub(crate) fn touch(&self, node: &Node, stripe: usize, now_ns: u64, exclusive: bool) {
        let cell = &node.hot(stripe).last_packet;
        if !exclusive {
            #[cfg(test)]
            self.walk_rmws.fetch_add(1, Ordering::Relaxed);
            cell.fetch_max(now_ns, Ordering::AcqRel);
        } else if cell.load(Ordering::Relaxed) < now_ns {
            cell.store(now_ns, Ordering::Relaxed);
        }
    }

    /// The token test of slab bucket `slot`: [`TokenBucket::meter`], or
    /// its single-writer form for the only writer.
    #[inline]
    pub(crate) fn meter(&self, slot: u32, need: Tokens, exclusive: bool) -> Color {
        let bucket = &self.slab[slot as usize];
        if exclusive {
            return bucket.meter_single_writer(need);
        }
        let color = bucket.meter(need);
        // A green is one subtraction, a red at the load none. A red that
        // lost a race to a concurrent meter issues two the tally leaves
        // out; the walks it pins run one at a time.
        #[cfg(test)]
        self.walk_rmws
            .fetch_add(u64::from(color == Color::Green), Ordering::Relaxed);
        color
    }

    /// Monotonic count of state rolls: incremented on every completed
    /// rate-estimation epoch (a class update past the interval
    /// floor) and every shadow epoch (borrowing-state change). Provenance
    /// records carry it.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    pub(crate) fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Whether a guarded update of `idx` would run a full epoch at `now`
    /// (pure read, no side effect). Inside the minimum interval,
    /// `update_node`/`update_shadow` return without touching any state, so
    /// an execution environment that does not model lock costs (RealExec)
    /// may elide the whole lock attempt when this is false — the resulting
    /// verdicts and tree state are bit-identical to attempting it.
    pub(crate) fn update_due(&self, idx: usize, shadow: bool, now: Nanos) -> bool {
        let n = &self.nodes[idx];
        let ts = if shadow {
            &n.shadow_last_update
        } else {
            &n.last_update
        };
        let prev = Nanos::from_nanos(ts.load(Ordering::Acquire));
        now.saturating_sub(prev) >= self.params.min_update_interval
    }

    /// Builds a [`QosLabel`] for traffic of leaf class `leaf`, permitted to
    /// borrow from `borrow` (in query order).
    ///
    /// # Errors
    ///
    /// Returns [`BuildTreeError::UnknownLeafClass`] if `leaf` is not in the
    /// tree, [`BuildTreeError::UnknownBorrowClass`] if a lender is not,
    /// [`BuildTreeError::TooManyLenders`] if `borrow` is longer than
    /// [`MAX_BORROW`].
    pub fn label(&self, leaf: ClassId, borrow: &[ClassId]) -> Result<QosLabel, BuildTreeError> {
        let mut idx = self
            .node_index(leaf)
            .ok_or(BuildTreeError::UnknownLeafClass(leaf))?;
        let mut path = vec![self.nodes[idx].spec.id];
        while let Some(p) = self.nodes[idx].parent {
            path.push(self.nodes[p].spec.id);
            idx = p;
        }
        path.reverse();
        for b in borrow {
            if self.node_index(*b).is_none() {
                return Err(BuildTreeError::UnknownBorrowClass(*b));
            }
        }
        if borrow.len() > MAX_BORROW {
            return Err(BuildTreeError::TooManyLenders(leaf));
        }
        Ok(QosLabel::new(&path, borrow))
    }

    /// Registers `stripe` as written before a packet first writes it:
    /// raises `live` to cover it. One relaxed load once the stripe is
    /// covered, and no code at all under an `Exec` whose stripe is the
    /// constant 0. A merge that races a registration misses only what the
    /// new stripe holds, and the next epoch drains it.
    #[inline]
    pub(crate) fn register_stripe(&self, stripe: usize) {
        let live = (stripe & HOT_STRIPE_MASK) + 1;
        if live > 1 && self.live.load(Ordering::Relaxed) < live {
            self.live.fetch_max(live, Ordering::Relaxed);
        }
    }

    /// One past the highest hot-state stripe a packet has written.
    #[cfg(test)]
    pub(crate) fn live_stripes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// The hot-state stripes of class `idx` that packets have written.
    #[inline]
    fn live_hot(&self, idx: usize) -> impl Iterator<Item = &NodeHot> {
        let live = self.live.load(Ordering::Relaxed);
        self.nodes[idx].hot.iter().take(live)
    }

    /// Most recent packet timestamp of class `idx` (raw nanos).
    #[inline]
    fn last_packet_ns(&self, idx: usize) -> u64 {
        self.live_hot(idx)
            .map(|h| h.last_packet.load(Ordering::Acquire))
            .max()
            .unwrap_or(0)
    }

    /// Whether a class whose last packet was at `last_ns` is still active
    /// at `now` (Subprocedure 3's expiry window).
    #[inline]
    fn active_since(&self, last_ns: u64, now: Nanos) -> bool {
        now.saturating_sub(Nanos::from_nanos(last_ns)) <= self.params.expiry
    }

    /// Whether class `idx` has seen traffic within the expiry window.
    pub(crate) fn is_active(&self, idx: usize, now: Nanos) -> bool {
        self.active_since(self.last_packet_ns(idx), now)
    }

    /// The measured consumption rate Γ of class `idx`, zeroed when the
    /// class's status has expired (Subprocedure 3: stale flow status must
    /// not mislead sibling calculations).
    pub(crate) fn gamma_raw(&self, idx: usize, now: Nanos) -> u64 {
        match self.is_active(idx, now) {
            true => self.nodes[idx].gamma.load(),
            false => 0,
        }
    }

    /// Equation 5's denominator for class `idx`: its own weight plus those
    /// of its active same-priority siblings (Subprocedure 3: expired
    /// siblings drop out). Scans the siblings only when the level floor
    /// cannot vouch that all of them are active, and refreshes the floor.
    fn level_total(&self, idx: usize, now: Nanos) -> u64 {
        let n = &self.nodes[idx];
        if self.active_since(n.level_floor.load(Ordering::Relaxed), now) {
            #[cfg(test)]
            self.floor_hits.fetch_add(1, Ordering::Relaxed);
            return n.share.1;
        }
        #[cfg(test)]
        self.sibling_reads
            .fetch_add(n.same_level.len() as u64, Ordering::Relaxed);
        let (mut total, mut floor) = (n.share.0, u64::MAX);
        for &sib in &n.same_level {
            let last = self.last_packet_ns(sib);
            floor = floor.min(last);
            if self.active_since(last, now) {
                total += self.nodes[sib].spec.weight as u64;
            }
        }
        n.level_floor.store(floor, Ordering::Relaxed);
        total
    }

    /// One guarded update epoch for class `idx` (paper Figure 8 step 3 and
    /// §IV-C Subprocedure 1). The caller must hold the class's update lock
    /// (modeled or real). Returns whether a full epoch ran (`false` when
    /// within the minimum interval).
    pub(crate) fn update_node(&self, idx: usize, now: Nanos) -> bool {
        let n = &self.nodes[idx];
        let prev = Nanos::from_nanos(n.last_update.load(Ordering::Acquire));
        let dt = now.saturating_sub(prev);
        if dt < self.params.min_update_interval {
            return false;
        }
        n.last_update.store(now.as_nanos(), Ordering::Release);

        // Γ: fold this epoch's instantaneous consumption rate (Equation 3).
        // Drain every live stripe by difference: each stripe's count only
        // grows, so what it gained since the mark this lock holder left is
        // the exact consumption since the last epoch, and the stripe keeps
        // its one writer.
        let consumed = self
            .live_hot(idx)
            .map(|h| {
                let total = h.consumed_bits.load(Ordering::Acquire);
                let gained = total.wrapping_sub(h.drained.load(Ordering::Relaxed));
                h.drained.store(total, Ordering::Relaxed);
                gained
            })
            .fold(0, u64::wrapping_add);
        #[cfg(test)]
        self.drained_bits.fetch_add(consumed, Ordering::Relaxed);
        // A very long gap means the class was idle; treat the stale epoch
        // as zero-rate rather than averaging bits over the whole gap.
        let dt_capped = dt.min(self.params.expiry);
        n.gamma.fold(inst_rate_raw(consumed, dt_capped));
        if !self.is_active(idx, now) {
            n.gamma.store(0);
        }

        // θ: recompute from the parent's published rate and sibling Γs.
        let theta_parent = match n.parent {
            None => self.root_rate_raw,
            Some(p) => self.nodes[p].theta.load(Ordering::Acquire),
        };
        // Higher-priority siblings take what they measure (Equation 4).
        let higher: u64 = n
            .subtract
            .iter()
            .map(|&s| self.gamma_raw(s, now))
            .fold(0, u64::saturating_add);
        // Lower-priority siblings keep their active guaranteed floors.
        let reserved: u64 = n
            .lower
            .iter()
            .map(|&s| {
                let sib = &self.nodes[s];
                let floor = sib.guarantee_raw.min(frac(theta_parent, sib.fallback));
                self.gamma_raw(s, now).min(floor)
            })
            .fold(0, u64::saturating_add);
        let base = theta_parent.saturating_sub(higher).saturating_sub(reserved);
        // Weighted share among same-priority siblings (Equation 5). Expired
        // siblings drop out of the denominator (Subprocedure 3), making the
        // split work-conserving without waiting for borrowing.
        let mut theta = frac(base, (n.share.0, self.level_total(idx, now)));
        // Guaranteed floor, degrading to the fair fallback share when the
        // parent itself cannot cover the guarantee.
        if n.guarantee_raw > 0 {
            let floor = n.guarantee_raw.min(frac(theta_parent, n.fallback));
            theta = theta.max(floor);
        }
        theta = theta.min(n.ceil_raw).min(theta_parent);
        n.theta.store(theta, Ordering::Release);

        // Refill the class bucket at the new rate, and the ceiling bucket
        // at the configured ceiling.
        self.slab[n.bucket as usize].refill(TokenRate::from_raw(theta).accrued(dt_capped));
        if let Some(ci) = n.ceil_bucket {
            self.slab[ci as usize].refill(TokenRate::from_raw(n.ceil_raw).accrued(dt_capped));
        }
        self.bump_epoch();
        if let Some(t) = self.telemetry.get() {
            t.updates.incr();
            t.ring.record(
                now,
                TraceKind::TokenRefill,
                n.spec.id.0 as u64,
                TokenRate::from_raw(theta).to_bit_rate().as_bps(),
            );
        }
        true
    }

    /// One guarded shadow-bucket update (Subprocedure 2). Borrowers trigger
    /// this on lender classes, so an idle lender's unconsumed tokens remain
    /// visible (Equation 6: θ_lendable = θ_C − Γ_C).
    pub(crate) fn update_shadow(&self, idx: usize, now: Nanos) -> bool {
        let n = &self.nodes[idx];
        let prev = Nanos::from_nanos(n.shadow_last_update.load(Ordering::Acquire));
        let dt = now.saturating_sub(prev);
        if dt < self.params.min_update_interval {
            return false;
        }
        n.shadow_last_update
            .store(now.as_nanos(), Ordering::Release);
        // An expired class lends nothing: its share has already been
        // redistributed to the active siblings by the weight recomputation
        // (Subprocedure 3), so lending its stale θ would double-count the
        // bandwidth and overdrive the FIFO. A leaf that never expired but
        // underuses its share lends exactly the unused part (Equation 6).
        if !self.is_active(idx, now) {
            self.bump_epoch();
            return true;
        }
        // A class with lower-priority siblings lends nothing either: its
        // unused rate *is* those siblings' Equation 4 residual. Lending it
        // again through the shadow bucket would hand the same bandwidth
        // out twice and push the FIFO past the wire.
        if !n.lower.is_empty() {
            self.bump_epoch();
            return true;
        }
        let theta = n.theta.load(Ordering::Acquire);
        // Ramp headroom: keep 25% above the lender's measured rate in
        // reserve so a lender squeezed by a bursty borrower can climb back
        // into its own share instead of being locked out by its own loan.
        let gamma = self.gamma_raw(idx, now);
        let lendable = theta.saturating_sub(gamma.saturating_add(gamma / 4));
        self.slab[n.shadow as usize]
            .refill(TokenRate::from_raw(lendable).accrued(dt.min(self.params.expiry)));
        self.bump_epoch();
        if let Some(t) = self.telemetry.get() {
            t.shadow_updates.incr();
            t.ring.record(
                now,
                TraceKind::ShadowRefill,
                n.spec.id.0 as u64,
                TokenRate::from_raw(lendable).to_bit_rate().as_bps(),
            );
        }
        true
    }

    /// Counts `bits` as forwarded on every class of `label`'s path, on
    /// stripe 0 (what the scheduling function does for a passing packet).
    #[cfg(test)]
    pub(crate) fn count_path(&self, label: &QosLabel, bits: u64) {
        for cid in label.path() {
            let node = &self.nodes[self.node_index(*cid).expect("class in tree")];
            self.hot_add(&node.hot(0).consumed_bits, bits, false);
        }
    }

    /// Marks every class on `label`'s path as touched at `now`, on stripe 0
    /// (what the scheduling function does for every packet).
    #[cfg(test)]
    pub(crate) fn touch_path(&self, label: &QosLabel, now: Nanos) {
        for cid in label.path() {
            let node = &self.nodes[self.node_index(*cid).expect("class in tree")];
            self.touch(node, 0, now.as_nanos(), false);
        }
    }

    /// Bits counted and not yet drained into Γ, per hot-state stripe: what
    /// each stripe gained since the last epoch's mark.
    #[cfg(test)]
    pub(crate) fn consumed_bits_by_stripe(&self, id: ClassId) -> [u64; HOT_STRIPES] {
        let n = &self.nodes[self.node_index(id).expect("class in tree")];
        std::array::from_fn(|s| {
            let total = n.hot[s].consumed_bits.load(Ordering::Acquire);
            total.wrapping_sub(n.hot[s].drained.load(Ordering::Relaxed))
        })
    }

    /// The published token rate θ of a class, as a bandwidth.
    pub fn theta(&self, id: ClassId) -> Option<BitRate> {
        let i = self.node_index(id)?;
        Some(TokenRate::from_raw(self.nodes[i].theta.load(Ordering::Acquire)).to_bit_rate())
    }

    /// The measured consumption rate Γ of a class at `now`.
    pub fn gamma(&self, id: ClassId, now: Nanos) -> Option<BitRate> {
        let i = self.node_index(id)?;
        Some(TokenRate::from_raw(self.gamma_raw(i, now)).to_bit_rate())
    }

    /// Data-path counters for a class.
    pub fn counters(&self, id: ClassId) -> Option<ClassCounters> {
        let i = self.node_index(id)?;
        // Sums over the live stripes (see `HOT_STRIPES`).
        let sum = |f: fn(&NodeHot) -> &AtomicU64| {
            self.live_hot(i).map(|h| f(h).load(Ordering::Acquire)).sum()
        };
        Some(ClassCounters {
            forwarded: sum(|h| &h.forwarded),
            borrowed: sum(|h| &h.borrowed),
            dropped: sum(|h| &h.dropped),
            lent: sum(|h| &h.lent),
        })
    }

    /// Renders the hierarchy as an indented text tree (for `fv show`).
    pub fn render(&self) -> String {
        fn walk(tree: &SchedulingTree, idx: usize, depth: usize, out: &mut String) {
            let n = &tree.nodes[idx];
            let s = &n.spec;
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!("{} ({})", s.id, s.name));
            if let Some(r) = s.rate {
                out.push_str(&format!(" rate {r}"));
            }
            if let Some(c) = s.ceil {
                out.push_str(&format!(" ceil {c}"));
            }
            out.push_str(&format!(" prio {} weight {}\n", s.prio, s.weight));
            let mut kids = n.children.clone();
            kids.sort_by_key(|&k| tree.nodes[k].spec.id);
            for k in kids {
                walk(tree, k, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, self.root, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gbps(g: f64) -> BitRate {
        BitRate::from_gbps(g)
    }

    fn simple_tree() -> SchedulingTree {
        let specs = vec![
            ClassSpec::new(ClassId(1), "root", None).rate(gbps(10.0)),
            ClassSpec::new(ClassId(10), "hi", Some(ClassId(1))).prio(0),
            ClassSpec::new(ClassId(20), "lo", Some(ClassId(1))).prio(1),
        ];
        SchedulingTree::build(specs, TreeParams::default()).unwrap()
    }

    #[test]
    fn build_validates_duplicates() {
        let specs = vec![
            ClassSpec::new(ClassId(1), "a", None).rate(gbps(1.0)),
            ClassSpec::new(ClassId(1), "b", Some(ClassId(1))),
        ];
        assert_eq!(
            SchedulingTree::build(specs, TreeParams::default()).unwrap_err(),
            BuildTreeError::DuplicateClass(ClassId(1))
        );
    }

    #[test]
    fn build_validates_parents_and_roots() {
        let specs = vec![ClassSpec::new(ClassId(2), "x", Some(ClassId(9)))];
        assert!(matches!(
            SchedulingTree::build(specs, TreeParams::default()).unwrap_err(),
            BuildTreeError::UnknownParent { .. }
        ));

        assert_eq!(
            SchedulingTree::build(vec![], TreeParams::default()).unwrap_err(),
            BuildTreeError::MissingRoot
        );

        let specs = vec![
            ClassSpec::new(ClassId(1), "a", None).rate(gbps(1.0)),
            ClassSpec::new(ClassId(2), "b", None).rate(gbps(1.0)),
        ];
        assert!(matches!(
            SchedulingTree::build(specs, TreeParams::default()).unwrap_err(),
            BuildTreeError::MultipleRoots(..)
        ));

        let specs = vec![ClassSpec::new(ClassId(1), "a", None)];
        assert_eq!(
            SchedulingTree::build(specs, TreeParams::default()).unwrap_err(),
            BuildTreeError::RootWithoutRate(ClassId(1))
        );
    }

    #[test]
    fn build_rejects_zero_weight_and_bad_ceil() {
        let specs = vec![
            ClassSpec::new(ClassId(1), "r", None).rate(gbps(1.0)),
            ClassSpec::new(ClassId(2), "w", Some(ClassId(1))).weight(0),
        ];
        assert_eq!(
            SchedulingTree::build(specs, TreeParams::default()).unwrap_err(),
            BuildTreeError::ZeroWeight(ClassId(2))
        );

        let specs = vec![ClassSpec {
            ceil: Some(gbps(1.0)),
            ..ClassSpec::new(ClassId(1), "r", None).rate(gbps(2.0))
        }];
        assert_eq!(
            SchedulingTree::build(specs, TreeParams::default()).unwrap_err(),
            BuildTreeError::CeilBelowRate(ClassId(1))
        );
    }

    #[test]
    fn build_refuses_a_rate_one_bit_per_second_past_the_token_range() {
        let params = TreeParams::default();
        // The largest rate whose tokens over one expiry window (the longest
        // refill interval) fit a bucket's signed level.
        let fits = |bps| {
            let rate = TokenRate::from_bit_rate(BitRate::from_bps(bps));
            rate.accrued(params.expiry).raw() <= i64::MAX as u64
        };
        let (mut bound, mut past) = (1u64, 1_000_000_000_000_000_000u64);
        while past - bound > 1 {
            let mid = bound + (past - bound) / 2;
            if fits(mid) {
                bound = mid;
            } else {
                past = mid;
            }
        }
        let tree = |root: u64, ceil: u64| {
            let specs = vec![
                ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_bps(root)),
                ClassSpec {
                    ceil: Some(BitRate::from_bps(ceil)),
                    ..ClassSpec::new(ClassId(10), "leaf", Some(ClassId(1)))
                },
            ];
            SchedulingTree::build(specs, params)
        };
        let out_of_range = |c| Err(BuildTreeError::RateOutOfRange(ClassId(c)));
        assert_eq!(tree(bound + 1, bound).map(|_| ()), out_of_range(1));
        assert_eq!(
            tree(10_000_000_000, bound + 1).map(|_| ()),
            out_of_range(10)
        );
        // At the bound, a leaf idle for a whole expiry window refills its
        // ceiling instead of draining it.
        let t = tree(bound, bound).expect("the bound builds");
        let label = t.label(ClassId(10), &[]).unwrap();
        crate::sched::tests::leased(|| {
            let mut exec = crate::sched::RealExec;
            assert!(t.schedule(&label, 12_144, Nanos::ZERO, &mut exec).passes());
            let later = params.expiry + params.min_update_interval;
            assert!(t.schedule(&label, 12_144, later, &mut exec).passes());
        });
    }

    #[test]
    fn build_rejects_overdeep_chain() {
        let mut specs = vec![ClassSpec::new(ClassId(0), "root", None).rate(gbps(1.0))];
        for i in 1..=MAX_DEPTH as u16 {
            specs.push(ClassSpec::new(
                ClassId(i),
                format!("c{i}"),
                Some(ClassId(i - 1)),
            ));
        }
        assert!(matches!(
            SchedulingTree::build(specs, TreeParams::default()).unwrap_err(),
            BuildTreeError::TooDeep(_)
        ));
    }

    #[test]
    fn initial_rates_are_static_shares() {
        let specs = vec![
            ClassSpec::new(ClassId(1), "root", None).rate(gbps(9.0)),
            ClassSpec::new(ClassId(10), "a", Some(ClassId(1))).weight(1),
            ClassSpec::new(ClassId(20), "b", Some(ClassId(1))).weight(2),
        ];
        let tree = SchedulingTree::build(specs, TreeParams::default()).unwrap();
        assert_eq!(tree.theta(ClassId(1)).unwrap(), gbps(9.0));
        let a = tree.theta(ClassId(10)).unwrap().as_gbps();
        let b = tree.theta(ClassId(20)).unwrap().as_gbps();
        assert!((a - 3.0).abs() < 0.01, "a={a}");
        assert!((b - 6.0).abs() < 0.01, "b={b}");
    }

    #[test]
    fn labels_walk_root_to_leaf() {
        let tree = simple_tree();
        let l = tree.label(ClassId(20), &[ClassId(10)]).unwrap();
        assert_eq!(l.path(), &[ClassId(1), ClassId(20)]);
        assert_eq!(l.borrow(), &[ClassId(10)]);
        assert_eq!(
            tree.label(ClassId(99), &[]),
            Err(BuildTreeError::UnknownLeafClass(ClassId(99)))
        );
        assert!(matches!(
            tree.label(ClassId(10), &[ClassId(99)]),
            Err(BuildTreeError::UnknownBorrowClass(_))
        ));
    }

    #[test]
    fn a_label_takes_at_most_max_borrow_lenders() {
        let tree = simple_tree();
        let lenders = [ClassId(10); MAX_BORROW + 1];
        let l = tree.label(ClassId(20), &lenders[..MAX_BORROW]).unwrap();
        assert_eq!(l.borrow().len(), MAX_BORROW);
        assert_eq!(
            tree.label(ClassId(20), &lenders),
            Err(BuildTreeError::TooManyLenders(ClassId(20)))
        );
    }

    #[test]
    fn update_respects_min_interval() {
        let tree = simple_tree();
        let idx = tree.node_index(ClassId(10)).unwrap();
        assert!(tree.update_node(idx, Nanos::from_micros(100)));
        // Too soon: skipped.
        assert!(!tree.update_node(idx, Nanos::from_micros(120)));
        assert!(tree.update_node(idx, Nanos::from_micros(200)));
    }

    #[test]
    fn priority_residual_rate() {
        // hi measured at 7 Gbps => lo's θ converges to ~3 Gbps.
        let tree = simple_tree();
        let hi = tree.node_index(ClassId(10)).unwrap();
        let lo = tree.node_index(ClassId(20)).unwrap();
        let label_hi = tree.label(ClassId(10), &[]).unwrap();
        let mut now = Nanos::ZERO;
        for _ in 0..200 {
            now += Nanos::from_micros(100);
            // hi forwards 700 kbit per 100 us = 7 Gbps.
            tree.count_path(&label_hi, 700_000);
            tree.touch_path(&label_hi, now);
            tree.update_node(hi, now);
            tree.update_node(lo, now);
        }
        let g = tree.gamma(ClassId(10), now).unwrap().as_gbps();
        assert!((g - 7.0).abs() < 0.3, "gamma {g}");
        let t = tree.theta(ClassId(20)).unwrap().as_gbps();
        assert!((t - 3.0).abs() < 0.3, "theta {t}");
        // hi itself keeps the full parent rate available.
        let t_hi = tree.theta(ClassId(10)).unwrap().as_gbps();
        assert!((t_hi - 10.0).abs() < 0.3, "theta_hi {t_hi}");
    }

    #[test]
    fn expiry_zeroes_stale_gamma() {
        let tree = simple_tree();
        let hi = tree.node_index(ClassId(10)).unwrap();
        let label_hi = tree.label(ClassId(10), &[]).unwrap();
        let mut now = Nanos::ZERO;
        for _ in 0..50 {
            now += Nanos::from_micros(100);
            tree.count_path(&label_hi, 700_000);
            tree.touch_path(&label_hi, now);
            tree.update_node(hi, now);
        }
        assert!(tree.gamma(ClassId(10), now).unwrap().as_gbps() > 5.0);
        // After the expiry window with no packets, Γ reads as zero.
        let later = now + tree.params().expiry + Nanos::from_micros(1);
        assert_eq!(tree.gamma(ClassId(10), later).unwrap(), BitRate::ZERO);
    }

    #[test]
    fn guaranteed_floor_holds_against_priority() {
        // KVS prio 0 vs ML prio 1 with 2 Gbps guarantee under a 6 Gbps parent:
        // even with KVS consuming everything it can, ML's θ ≥ 2 Gbps.
        let specs = vec![
            ClassSpec::new(ClassId(1), "s2", None).rate(gbps(6.0)),
            ClassSpec::new(ClassId(10), "kvs", Some(ClassId(1))).prio(0),
            ClassSpec::new(ClassId(20), "ml", Some(ClassId(1)))
                .prio(1)
                .rate(gbps(2.0)),
        ];
        let tree = SchedulingTree::build(specs, TreeParams::default()).unwrap();
        let kvs = tree.node_index(ClassId(10)).unwrap();
        let ml = tree.node_index(ClassId(20)).unwrap();
        let label_kvs = tree.label(ClassId(10), &[]).unwrap();
        let label_ml = tree.label(ClassId(20), &[]).unwrap();
        let mut now = Nanos::ZERO;
        for _ in 0..300 {
            now += Nanos::from_micros(100);
            tree.count_path(&label_kvs, 600_000); // offers 6 Gbps
            tree.count_path(&label_ml, 200_000); // ML takes its 2 Gbps
            tree.touch_path(&label_kvs, now);
            tree.touch_path(&label_ml, now);
            tree.update_node(kvs, now);
            tree.update_node(ml, now);
        }
        let t_ml = tree.theta(ClassId(20)).unwrap().as_gbps();
        assert!(t_ml >= 1.8, "ML theta {t_ml}");
        // KVS's θ leaves ML's guarantee reserved: ~4 Gbps.
        let t_kvs = tree.theta(ClassId(10)).unwrap().as_gbps();
        assert!((t_kvs - 4.0).abs() < 0.5, "KVS theta {t_kvs}");
    }

    #[test]
    fn guarantee_degrades_to_fair_share_when_parent_small() {
        // Parent only 3 Gbps: ML's floor is min(2, 3×1/2) = 1.5 Gbps.
        let specs = vec![
            ClassSpec::new(ClassId(1), "s2", None).rate(gbps(3.0)),
            ClassSpec::new(ClassId(10), "kvs", Some(ClassId(1))).prio(0),
            ClassSpec::new(ClassId(20), "ml", Some(ClassId(1)))
                .prio(1)
                .rate(gbps(2.0)),
        ];
        let tree = SchedulingTree::build(specs, TreeParams::default()).unwrap();
        let kvs = tree.node_index(ClassId(10)).unwrap();
        let ml = tree.node_index(ClassId(20)).unwrap();
        let label_kvs = tree.label(ClassId(10), &[]).unwrap();
        let label_ml = tree.label(ClassId(20), &[]).unwrap();
        let mut now = Nanos::ZERO;
        for _ in 0..300 {
            now += Nanos::from_micros(100);
            // Both hungry: KVS forwards at its θ, ML at its θ.
            let kvs_theta = tree.theta(ClassId(10)).unwrap().as_bps();
            let ml_theta = tree.theta(ClassId(20)).unwrap().as_bps();
            tree.count_path(&label_kvs, kvs_theta / 10_000); // bits per 100 us
            tree.count_path(&label_ml, ml_theta / 10_000);
            tree.touch_path(&label_kvs, now);
            tree.touch_path(&label_ml, now);
            tree.update_node(kvs, now);
            tree.update_node(ml, now);
        }
        let t = tree.theta(ClassId(20)).unwrap().as_gbps();
        assert!((t - 1.5).abs() < 0.3, "ML theta {t}");
        let t_kvs = tree.theta(ClassId(10)).unwrap().as_gbps();
        assert!((t_kvs - 1.5).abs() < 0.4, "KVS theta {t_kvs}");
    }

    #[test]
    fn an_all_active_level_updates_without_reading_a_sibling() {
        let mut specs = vec![ClassSpec::new(ClassId(1), "root", None).rate(gbps(48.0))];
        specs.extend((0..48).map(|i| ClassSpec::new(ClassId(100 + i), "leaf", Some(ClassId(1)))));
        let tree = SchedulingTree::build(specs, TreeParams::default()).unwrap();
        let labels: Vec<QosLabel> = (0..48)
            .map(|i| tree.label(ClassId(100 + i), &[]).unwrap())
            .collect();
        let leaf = tree.node_index(ClassId(100)).unwrap();
        let reads = || tree.sibling_reads.load(Ordering::Relaxed);
        let update = |now: Nanos| {
            labels.iter().for_each(|l| tree.touch_path(l, now));
            assert!(tree.update_node(leaf, now));
            assert!((tree.theta(ClassId(100)).unwrap().as_gbps() - 1.0).abs() < 1e-6);
        };
        // Past the first expiry window the build-time floor of 0 vouches
        // for nothing: the first update scans all 47 siblings.
        let first = Nanos::from_millis(10);
        update(first);
        assert_eq!(reads(), 47);
        // Every leaf keeps sending: for one expiry window after that scan,
        // no update reads a sibling.
        let mut now = first;
        while now + Nanos::from_micros(100) - first <= tree.params().expiry {
            now += Nanos::from_micros(100);
            update(now);
        }
        assert_eq!(tree.floor_hits.load(Ordering::Relaxed), 20);
        assert_eq!(reads(), 47);
        // Then the floor has aged out, and one rescan refreshes it.
        update(now + Nanos::from_micros(100));
        assert_eq!(reads(), 2 * 47);
    }

    #[test]
    fn ceiling_caps_theta() {
        let specs = vec![
            ClassSpec::new(ClassId(1), "root", None).rate(gbps(10.0)),
            ClassSpec {
                ceil: Some(gbps(4.0)),
                ..ClassSpec::new(ClassId(10), "capped", Some(ClassId(1)))
            },
        ];
        let tree = SchedulingTree::build(specs, TreeParams::default()).unwrap();
        let idx = tree.node_index(ClassId(10)).unwrap();
        tree.update_node(idx, Nanos::from_micros(100));
        assert!(tree.theta(ClassId(10)).unwrap() <= gbps(4.0));
    }

    #[test]
    fn shadow_bucket_accrues_lendable_tokens() {
        // Two same-priority weighted leaves: an active, underusing class
        // lends its unused share through the shadow bucket.
        let specs = vec![
            ClassSpec::new(ClassId(1), "root", None).rate(gbps(10.0)),
            ClassSpec::new(ClassId(10), "a", Some(ClassId(1))),
            ClassSpec::new(ClassId(20), "b", Some(ClassId(1))),
        ];
        let tree = SchedulingTree::build(specs, TreeParams::default()).unwrap();
        let a = tree.node_index(ClassId(10)).unwrap();
        let label_a = tree.label(ClassId(10), &[]).unwrap();
        // Keep `a` active but underusing (1 Gbps of its 5 Gbps share).
        let mut now = Nanos::ZERO;
        for _ in 0..10 {
            now += Nanos::from_micros(100);
            tree.count_path(&label_a, 100_000);
            tree.touch_path(&label_a, now);
            tree.update_node(a, now);
            tree.update_shadow(a, now);
        }
        let shadow = tree.slab_bucket(tree.node(a).shadow);
        assert!(shadow.raw() > 0, "shadow empty");
    }

    #[test]
    fn priority_class_with_lower_siblings_lends_nothing() {
        // hi's unused rate is already lo's Equation 4 residual; the shadow
        // bucket must stay empty or the bandwidth would be handed out twice.
        let tree = simple_tree();
        let hi = tree.node_index(ClassId(10)).unwrap();
        let label_hi = tree.label(ClassId(10), &[]).unwrap();
        let mut now = Nanos::ZERO;
        for _ in 0..10 {
            now += Nanos::from_micros(100);
            tree.touch_path(&label_hi, now);
            tree.update_shadow(hi, now);
        }
        assert_eq!(tree.slab_bucket(tree.node(hi).shadow).raw(), 0);
    }

    #[test]
    fn render_lists_all_classes() {
        let tree = simple_tree();
        let r = tree.render();
        assert!(r.contains("1:1 (root)"));
        assert!(r.contains("1:10 (hi)"));
        assert!(r.contains("1:20 (lo)"));
        // Children are indented under the root.
        assert!(r.contains("\n  1:10"));
    }

    #[test]
    fn counters_start_zero_and_queries_handle_unknown() {
        let tree = simple_tree();
        assert_eq!(tree.counters(ClassId(10)), Some(ClassCounters::default()));
        assert_eq!(tree.counters(ClassId(99)), None);
        assert_eq!(tree.theta(ClassId(99)), None);
        assert_eq!(tree.gamma(ClassId(99), Nanos::ZERO), None);
        assert_eq!(tree.spec(ClassId(10)).unwrap().name, "hi");
        assert!(!tree.is_empty());
        assert_eq!(tree.class_ids()[0], ClassId(1));
    }
}
