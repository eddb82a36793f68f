//! Differential property tests: the compiled scheduling program against
//! the interpreted walker (the same oracle pattern as the calendar-vs-heap
//! `QueueBackend` split in sim-core).
//!
//! Two layers are proven:
//!
//! * **Tree level** — `schedule_compiled` must agree with `schedule`
//!   verdict-for-verdict and counter-for-counter on randomized traffic that
//!   exercises every regime: conforming, overload, borrowing transitions,
//!   rate-estimation epoch rolls and expired-status removal after idle
//!   gaps.
//! * **Pipeline level** — the chain id carried in the flow-cache entry:
//!   on the very first packet after an `fv` reload, an epoch roll and a
//!   borrowing flip, the compiled fast path decides as the interpreted
//!   walker does, through a chain of the program that is installed then
//!   (there is no stale-chain window).

use std::sync::Arc;

use flowvalve::frontend::Policy;
use flowvalve::label::ClassId;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::program::CompiledProgram;
use flowvalve::sched::RealExec;
use flowvalve::tree::{ClassSpec, SchedulingTree, TreeParams};
use fv_audit::{AuditVerdict, ProvenanceRing, Sampler};
use netstack::flow::FlowKey;
use netstack::packet::{AppId, Packet, VfPort};
use np_sim::config::{CycleCosts, NicConfig};
use np_sim::cost::CostMeter;
use np_sim::lock::LockTable;
use np_sim::nic::{Decision, EgressDecider};
use sim_core::time::Nanos;
use sim_core::units::BitRate;

/// xorshift64 — deterministic, no external dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn two_leaf_tree() -> SchedulingTree {
    SchedulingTree::build(
        vec![
            ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(10.0)),
            ClassSpec::new(ClassId(10), "a", Some(ClassId(1))),
            ClassSpec::new(ClassId(20), "b", Some(ClassId(1))).ceil(BitRate::from_gbps(6.0)),
        ],
        TreeParams::default(),
    )
    .expect("tree builds")
}

#[test]
fn compiled_and_interpreted_agree_across_all_regimes() {
    let ti = two_leaf_tree();
    let tc = two_leaf_tree();
    let labels_i = [
        ti.label(ClassId(10), &[ClassId(20)]).unwrap(),
        ti.label(ClassId(20), &[ClassId(10)]).unwrap(),
    ];
    let labels_c = [
        tc.label(ClassId(10), &[ClassId(20)]).unwrap(),
        tc.label(ClassId(20), &[ClassId(10)]).unwrap(),
    ];
    let prog = CompiledProgram::compile(&tc, labels_c.iter());
    let chains = labels_c.map(|l| prog.resolve(&l).expect("label compiles"));

    let mut rng = Rng(0x5eed_f10e_aa1e_e001u64 ^ 0xffff);
    let mut now = Nanos::ZERO;
    for i in 0..100_000u64 {
        let r = rng.next();
        // Inter-arrival mixes sub-epoch gaps, epoch rolls (the default
        // min_update_interval is tens of microseconds) and occasional long
        // idle gaps that trigger expired-status removal.
        now += match r % 100 {
            0 => Nanos::from_millis(2),       // expiry-length idle gap
            1..=5 => Nanos::from_micros(120), // forces an epoch roll
            _ => Nanos::from_nanos(200 + (r % 2_000)),
        };
        // Alternate classes in bursts so borrowing flips on and off.
        let which = ((i / 64) % 2) as usize;
        let bits = 4_000 + (r % 16_000);
        let vi = ti.schedule(&labels_i[which], bits, now, &mut RealExec);
        let vc = tc.schedule_compiled(&prog, chains[which], bits, now, &mut RealExec);
        assert_eq!(vi, vc, "packet {i} diverged at t={now:?}");
    }
    for cid in [ClassId(1), ClassId(10), ClassId(20)] {
        assert_eq!(
            ti.counters(cid).unwrap(),
            tc.counters(cid).unwrap(),
            "counters diverged for {cid:?}"
        );
        assert_eq!(
            ti.gamma(cid, now).unwrap().as_bps(),
            tc.gamma(cid, now).unwrap().as_bps(),
            "measured rate diverged for {cid:?}"
        );
    }
}

const POLICY_V1: &str = "fv qdisc add dev nic0 root handle 1: fv\n\
     fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
     fv class add dev nic0 parent 1:1 classid 1:10 name a weight 1\n\
     fv class add dev nic0 parent 1:1 classid 1:20 name b weight 1\n\
     fv filter add dev nic0 match ip dport 5001 flowid 1:10 borrow 1:20\n\
     fv filter add dev nic0 match ip dport 5002 flowid 1:20 borrow 1:10\n";

/// V2 skews the weights and halves the root: a real reconfiguration, not
/// a no-op reload. It also lists the filters the other way round, so
/// the two labels trade chain ids: a chain id that survived the reload
/// would run the *other* class's admission.
const POLICY_V2: &str = "fv qdisc add dev nic0 root handle 1: fv\n\
     fv class add dev nic0 parent root classid 1:1 rate 5gbit\n\
     fv class add dev nic0 parent 1:1 classid 1:10 name a weight 1\n\
     fv class add dev nic0 parent 1:1 classid 1:20 name b weight 3\n\
     fv filter add dev nic0 match ip dport 5002 flowid 1:20 borrow 1:10\n\
     fv filter add dev nic0 match ip dport 5001 flowid 1:10 borrow 1:20\n";

fn pkt(id: u64, dport: u16, frame_len: u32) -> Packet {
    Packet::new(
        id,
        FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], dport),
        frame_len,
        AppId(0),
        VfPort(0),
        Nanos::ZERO,
    )
}

/// A pipeline with its own execution world.
struct Side {
    pipe: FlowValvePipeline,
    meter: CostMeter,
    locks: LockTable,
}

impl Side {
    fn new(pipe: FlowValvePipeline) -> Self {
        Side {
            pipe,
            meter: CostMeter::new(CycleCosts::agilio()),
            locks: LockTable::new(64),
        }
    }

    fn decide(&mut self, p: &Packet, now: Nanos) -> Decision {
        self.pipe.decide(p, now, &mut self.meter, &mut self.locks)
    }

    /// The chain the installed program runs for leaf `leaf` borrowing from
    /// `lender`, as provenance records number it.
    fn chain_of(&self, leaf: u16, lender: u16) -> u32 {
        let label = self
            .pipe
            .tree()
            .label(ClassId(leaf), &[ClassId(lender)])
            .expect("label builds");
        self.pipe
            .program()
            .resolve(&label)
            .expect("the policy emits this label")
            .index()
    }
}

/// The traffic generator's state and what the traffic so far has put the
/// fast path through.
struct Seen {
    rng: Rng,
    now: Nanos,
    id: u64,
    labeled: u64,
    /// Packets decided under a later tree epoch than the labeled packet
    /// before them: the first packet after an epoch roll.
    after_epoch_roll: u64,
    /// Packets whose class went from its own tokens to a lender's or
    /// back: the first packet after a borrowing flip.
    after_borrow_flip: u64,
    last_epoch: u64,
    last_borrowed: [Option<bool>; 2],
}

#[test]
fn pipeline_fast_path_reconverges_after_reload_epoch_roll_and_borrow_flip() {
    let nic = NicConfig::agilio_cx_10g();
    let policy = Policy::parse(POLICY_V1).unwrap();
    // The compiled fast path under test...
    let mut fast =
        Side::new(FlowValvePipeline::compile(&policy, TreeParams::default(), &nic).unwrap());
    // ...against the same pipeline with the fast path disabled: identical
    // lock discipline and execution world, interpreted walker only.
    let mut oracle = Side::new(
        FlowValvePipeline::compile(&policy, TreeParams::default(), &nic)
            .unwrap()
            .with_interpreted_scheduler(),
    );
    // Every decision of the fast path leaves a provenance record.
    let ring = Arc::new(ProvenanceRing::new(256));
    fast.pipe
        .attach_auditor(ring.clone(), Sampler::one_in_pow2(0));

    let mut seen = Seen {
        rng: Rng(0xabcdef0123456789),
        now: Nanos::ZERO,
        id: 0,
        labeled: 0,
        after_epoch_roll: 0,
        after_borrow_flip: 0,
        last_epoch: 0,
        last_borrowed: [None; 2],
    };

    // Every packet: same decision on both sides, and a record that names
    // the installed program's chain for the packet's class under the
    // current reload generation. Returns the labeled packets' records.
    let drive = |fast: &mut Side,
                 oracle: &mut Side,
                 seen: &mut Seen,
                 reload_gen: u64,
                 n: u64,
                 gap: Nanos| {
        let chains = [fast.chain_of(10, 20), fast.chain_of(20, 10)];
        let mut records = Vec::new();
        for _ in 0..n {
            seen.now += gap;
            seen.id += 1;
            let (now, id) = (seen.now, seen.id);
            let r = seen.rng.next();
            // Mostly class traffic, a sprinkle of unmatched bypass. The
            // classes take turns being the busy one, 256 packets at a
            // time, so each in turn has tokens to lend and need to borrow.
            let busy = 5_001 + (id / 256 % 2) as u16;
            let dport = match r % 10 {
                0 => 9_999,
                1..=8 => busy,
                _ => 10_003 - busy,
            };
            let p = pkt(id, dport, 200 + (r % 1_300) as u32);
            let df = fast.decide(&p, now);
            let dov = oracle.decide(&p, now);
            assert_eq!(df, dov, "packet {id} diverged at t={now:?}");
            let Some(rec) = ring.get(id) else {
                assert_eq!(dport, 9_999, "labeled packet {id} left no record");
                continue;
            };
            let class = usize::from(dport - 5_001);
            assert_eq!(rec.leaf, [10, 20][class], "packet {id}");
            assert_eq!(rec.chain, chains[class], "packet {id} ran a foreign chain");
            assert_eq!(rec.reload_gen, reload_gen, "packet {id}");
            seen.labeled += 1;
            if rec.epoch > seen.last_epoch {
                seen.after_epoch_roll += 1;
            }
            seen.last_epoch = rec.epoch;
            let borrowed = matches!(rec.verdict, AuditVerdict::Borrowed(_));
            if seen.last_borrowed[class].is_some_and(|was| was != borrowed) {
                seen.after_borrow_flip += 1;
            }
            if rec.verdict != AuditVerdict::Drop {
                seen.last_borrowed[class] = Some(borrowed);
            }
            records.push(rec);
        }
        records
    };

    // Phase 1 — overload: the 500 ns gap at ~850 B offers ~14 Gbps to a
    // 10 Gbps tree, most of it to the busy class, which runs dry, borrows
    // what the quiet one leaves and refills.
    let warm = drive(
        &mut fast,
        &mut oracle,
        &mut seen,
        0,
        20_000,
        Nanos::from_nanos(500),
    );
    for leaf in [10, 20] {
        let mut flow = warm.iter().filter(|r| r.leaf == leaf);
        let first = flow.next().expect("traffic");
        assert!(!first.cache_hit, "a flow's first packet walks the table");
        assert!(flow.all(|r| r.cache_hit), "a steady flow hits");
    }
    assert!(
        seen.after_borrow_flip > 10,
        "overload must flip borrowing: {}",
        seen.after_borrow_flip
    );
    assert!(seen.after_epoch_roll > 10, "{}", seen.after_epoch_roll);

    // Phase 2 — epoch rolls: every gap is past the update interval, so
    // every packet is the first one after a roll.
    let rolls_before = seen.after_epoch_roll;
    let rolled = drive(
        &mut fast,
        &mut oracle,
        &mut seen,
        0,
        200,
        Nanos::from_micros(120),
    );
    assert_eq!(seen.after_epoch_roll - rolls_before, rolled.len() as u64);

    // Phase 3 — hot reload on both sides: new tree, new program, the two
    // labels' chain ids traded. The first packet of either flow must
    // already run its class's chain in the new program (checked for every
    // packet inside `drive`), found by a table walk, not in the old cache.
    let old_chains = [fast.chain_of(10, 20), fast.chain_of(20, 10)];
    let v2 = Policy::parse(POLICY_V2).unwrap();
    fast.pipe.reload(&v2, TreeParams::default(), &nic).unwrap();
    oracle
        .pipe
        .reload(&v2, TreeParams::default(), &nic)
        .unwrap();
    assert_eq!(
        [fast.chain_of(20, 10), fast.chain_of(10, 20)],
        old_chains,
        "V2 must renumber the chains for this test to mean anything"
    );
    let reloaded = drive(
        &mut fast,
        &mut oracle,
        &mut seen,
        1,
        20_000,
        Nanos::from_nanos(500),
    );
    for leaf in [10, 20] {
        let first = reloaded.iter().find(|r| r.leaf == leaf).expect("traffic");
        assert!(!first.cache_hit, "the reload must empty the flow cache");
    }

    // Phase 4 — a long idle gap (expired-status removal), then traffic.
    seen.now += Nanos::from_millis(5);
    drive(
        &mut fast,
        &mut oracle,
        &mut seen,
        1,
        5_000,
        Nanos::from_nanos(800),
    );

    // Every labeled decision ran a pre-resolved chain on the fast side and
    // the walker on the oracle side.
    assert_eq!(fast.pipe.decision_cache_stats(), (seen.labeled, 0));
    assert_eq!(oracle.pipe.decision_cache_stats(), (0, seen.labeled));
}
