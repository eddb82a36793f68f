//! The ordered filter table: the slow path behind the flow cache.
//!
//! Rules match in `(priority, -specificity, insertion)` order, the same
//! first-match discipline as kernel `tc filter` chains. The walk is a
//! tuple-space search, not a linear scan: rules are grouped by their *mask
//! signature* — which fields they set, and how long each address prefix is
//! — and every group is one hash table keyed by those fields of the flow,
//! addresses masked to the group's prefix lengths. A lookup probes the
//! groups in order of the earliest rule each holds and stops as soon as no
//! remaining group can hold an earlier rule than the best match so far.
//! First-match semantics are preserved exactly: every hash entry carries
//! the lowest table position among the rules with that key, and the lowest
//! position wins. The cost model still charges the miss path as the
//! expensive one (`CycleCosts::classify_miss`) — the search narrows the
//! *software* gap, not the modeled silicon.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use netstack::flow::{FlowKey, IpProto};
use netstack::packet::VfPort;

use crate::rule::{Cidr, FilterRule, FlowMatch};

const SIG_SPORT: u8 = 1 << 0;
const SIG_DPORT: u8 = 1 << 1;
const SIG_PROTO: u8 = 1 << 2;
const SIG_VF: u8 = 1 << 3;

/// Which fields of a [`FlowMatch`] participate in the exact-match key, and
/// under which address masks — the rule's *mask signature*. Rules sharing
/// a signature land in one hash group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MaskSig {
    /// Network masks of the two address prefixes; 0 for a wildcard (an
    /// unset field or a /0, which matches everything alike).
    src_mask: u32,
    dst_mask: u32,
    /// The `SIG_*` bits of the exactly-matched fields.
    fields: u8,
}

/// Keys [`IpProto`] faithfully to its `PartialEq`: `Other(6)` and `Tcp`
/// must key differently because `FlowMatch::matches` distinguishes them.
fn proto_key(p: IpProto) -> u64 {
    match p {
        IpProto::Tcp => 1,
        IpProto::Udp => 2,
        IpProto::Other(n) => 0x100 | u64::from(n),
    }
}

/// The exact-match key extracted under one signature: masked addresses in
/// the first word, ports, protocol and VF in the second. Fields outside
/// the signature read as zero on both the rule and the flow side.
type ExactKey = (u64, u64);

fn pack(src: u32, dst: u32, sport: u16, dport: u16, proto: u64, vf: u8) -> ExactKey {
    (
        u64::from(src) << 32 | u64::from(dst),
        u64::from(sport) << 48 | u64::from(dport) << 32 | proto << 8 | u64::from(vf),
    )
}

impl MaskSig {
    fn of(m: &FlowMatch) -> MaskSig {
        let mask = |c: Option<Cidr>| match c {
            Some(c) if c.prefix > 0 => u32::MAX << (32 - u32::from(c.prefix)),
            _ => 0,
        };
        let bit = |set: bool, bit: u8| if set { bit } else { 0 };
        MaskSig {
            src_mask: mask(m.src),
            dst_mask: mask(m.dst),
            fields: bit(m.src_port.is_some(), SIG_SPORT)
                | bit(m.dst_port.is_some(), SIG_DPORT)
                | bit(m.proto.is_some(), SIG_PROTO)
                | bit(m.vf.is_some(), SIG_VF),
        }
    }

    fn key_of_rule(self, m: &FlowMatch) -> ExactKey {
        let addr = |c: Option<Cidr>, mask: u32| c.map_or(0, |c| u32::from(c.addr) & mask);
        pack(
            addr(m.src, self.src_mask),
            addr(m.dst, self.dst_mask),
            m.src_port.unwrap_or(0),
            m.dst_port.unwrap_or(0),
            m.proto.map_or(0, proto_key),
            m.vf.map_or(0, |v| v.0),
        )
    }

    #[inline]
    fn key_of_flow(self, flow: &FlowKey, vf: VfPort) -> ExactKey {
        let has = |bit: u8| self.fields & bit != 0;
        pack(
            u32::from(flow.src_ip) & self.src_mask,
            u32::from(flow.dst_ip) & self.dst_mask,
            if has(SIG_SPORT) { flow.src_port } else { 0 },
            if has(SIG_DPORT) { flow.dst_port } else { 0 },
            if has(SIG_PROTO) {
                proto_key(flow.proto)
            } else {
                0
            },
            if has(SIG_VF) { vf.0 } else { 0 },
        )
    }
}

/// Multiply-xorshift hasher for [`ExactKey`]s.
///
/// It has none of SipHash's resistance to crafted collisions and needs
/// none: every key *stored* in a group is extracted from a rule of the
/// operator's own rule set. Wire traffic only ever probes; it cannot
/// insert, so it cannot lengthen a bucket chain.
#[derive(Debug, Clone, Copy, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let h = (self.0.rotate_left(29) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One signature's hash group: extracted key → lowest table position of a
/// rule carrying that key. A hit needs no re-verification — every keyed
/// field matched exactly under the group's masks and every other field is
/// a wildcard.
#[derive(Debug, Clone)]
struct SigGroup {
    sig: MaskSig,
    /// Lowest table position of any rule in the group.
    first: usize,
    map: HashMap<ExactKey, usize, BuildHasherDefault<KeyHasher>>,
}

/// An ordered first-match filter table.
///
/// # Example
///
/// ```
/// use classifier::rule::{FilterRule, FlowMatch};
/// use classifier::table::FilterTable;
/// use netstack::flow::FlowKey;
/// use netstack::packet::VfPort;
///
/// let mut table = FilterTable::new("default");
/// table.add(FilterRule::new(10, FlowMatch { dst_port: Some(5001), ..FlowMatch::any() }, "kvs"));
/// table.add(FilterRule::new(20, FlowMatch::any(), "bulk"));
///
/// let kvs = FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], 5001);
/// assert_eq!(*table.lookup(&kvs, VfPort(0)), "kvs");
/// let other = FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], 9999);
/// assert_eq!(*table.lookup(&other, VfPort(0)), "bulk");
/// ```
#[derive(Debug, Clone)]
pub struct FilterTable<V> {
    rules: Vec<FilterRule<V>>,
    default: V,
    /// One hash group per distinct mask signature present, ascending by
    /// `first`.
    groups: Vec<SigGroup>,
}

/// Match order: ascending priority, most specific first within one.
fn order_key<V>(r: &FilterRule<V>) -> (u16, u32) {
    (r.priority, u32::MAX - r.matcher.specificity())
}

impl<V> FilterTable<V> {
    /// Creates an empty table with a default verdict for unmatched flows.
    pub fn new(default: V) -> Self {
        Self::from_rules(default, Vec::new())
    }

    /// Builds a table from a whole rule set: one sort, one indexing pass.
    /// Equal-(priority, specificity) rules keep their order in `rules`,
    /// exactly as if they had been [`add`](Self::add)ed one by one.
    pub fn from_rules(default: V, mut rules: Vec<FilterRule<V>>) -> Self {
        rules.sort_by_key(order_key);
        let groups = index(&rules);
        FilterTable {
            rules,
            default,
            groups,
        }
    }

    /// Adds a rule, keeping the table in match order.
    pub fn add(&mut self, rule: FilterRule<V>) {
        // Stable insertion keeps equal-(priority, specificity) rules in
        // insertion order.
        let key = order_key(&rule);
        let pos = self.rules.partition_point(|r| order_key(r) <= key);
        self.rules.insert(pos, rule);
        // Insertion shifts every later position; rebuild the groups.
        self.groups = index(&self.rules);
    }

    /// The same rules, order and index with every verdict (and the
    /// default) passed through `f`.
    pub fn map<U>(self, mut f: impl FnMut(V) -> U) -> FilterTable<U> {
        FilterTable {
            rules: self
                .rules
                .into_iter()
                .map(|r| FilterRule::new(r.priority, r.matcher, f(r.verdict)))
                .collect(),
            default: f(self.default),
            groups: self.groups,
        }
    }

    /// The verdict for unmatched flows.
    pub fn default_verdict(&self) -> &V {
        &self.default
    }

    /// First-match lookup; falls back to the default verdict.
    ///
    /// Cost is one hash probe per mask signature that could still hold the
    /// first match — independent of the rule count, and a single probe
    /// when the flow matches a rule of the earliest group.
    pub fn lookup(&self, flow: &FlowKey, vf: VfPort) -> &V {
        let mut best = usize::MAX;
        for g in &self.groups {
            // Groups ascend by their earliest rule: from here on nothing
            // can come before the best candidate.
            if g.first >= best {
                break;
            }
            if let Some(&pos) = g.map.get(&g.sig.key_of_flow(flow, vf)) {
                best = best.min(pos);
            }
        }
        self.rules
            .get(best)
            .map(|r| &r.verdict)
            .unwrap_or(&self.default)
    }

    /// Iterates over the rules in match order.
    pub fn iter(&self) -> impl Iterator<Item = &FilterRule<V>> {
        self.rules.iter()
    }
}

/// Builds the signature groups for rules already in match order.
fn index<V>(rules: &[FilterRule<V>]) -> Vec<SigGroup> {
    let mut groups: Vec<SigGroup> = Vec::new();
    for (pos, r) in rules.iter().enumerate() {
        let sig = MaskSig::of(&r.matcher);
        let at = groups.iter().position(|g| g.sig == sig).unwrap_or_else(|| {
            // Positions ascend, so a new group's first rule comes after
            // every existing group's: pushing keeps `groups` sorted.
            groups.push(SigGroup {
                sig,
                first: pos,
                map: HashMap::default(),
            });
            groups.len() - 1
        });
        // First writer wins: the entry already holds the lowest position.
        groups[at]
            .map
            .entry(sig.key_of_rule(&r.matcher))
            .or_insert(pos);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Cidr, FlowMatch};

    fn flow(dst_port: u16) -> FlowKey {
        FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], dst_port)
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FilterTable::new(0u32);
        t.add(FilterRule::new(20, FlowMatch::any(), 2));
        t.add(FilterRule::new(10, FlowMatch::any(), 1));
        assert_eq!(*t.lookup(&flow(80), VfPort(0)), 1);
    }

    #[test]
    fn specificity_breaks_priority_ties() {
        let mut t = FilterTable::new(0u32);
        t.add(FilterRule::new(10, FlowMatch::any(), 1));
        t.add(FilterRule::new(
            10,
            FlowMatch {
                dst_port: Some(80),
                ..FlowMatch::any()
            },
            2,
        ));
        assert_eq!(*t.lookup(&flow(80), VfPort(0)), 2);
        assert_eq!(*t.lookup(&flow(81), VfPort(0)), 1);
    }

    #[test]
    fn default_when_no_match() {
        let mut t = FilterTable::new(99u32);
        t.add(FilterRule::new(
            10,
            FlowMatch {
                dst_port: Some(80),
                ..FlowMatch::any()
            },
            1,
        ));
        assert_eq!(*t.lookup(&flow(81), VfPort(0)), 99);
        assert_eq!(*t.default_verdict(), 99);
    }

    #[test]
    fn vf_scoped_rules() {
        let mut t = FilterTable::new("none");
        t.add(FilterRule::new(
            10,
            FlowMatch {
                vf: Some(VfPort(1)),
                ..FlowMatch::any()
            },
            "vm1",
        ));
        t.add(FilterRule::new(
            10,
            FlowMatch {
                vf: Some(VfPort(2)),
                ..FlowMatch::any()
            },
            "vm2",
        ));
        assert_eq!(*t.lookup(&flow(80), VfPort(1)), "vm1");
        assert_eq!(*t.lookup(&flow(80), VfPort(2)), "vm2");
        assert_eq!(*t.lookup(&flow(80), VfPort(3)), "none");
    }

    #[test]
    fn cidr_rules_and_iteration() {
        let mut t = FilterTable::new(0u8);
        t.add(FilterRule::new(
            5,
            FlowMatch {
                dst: Some(Cidr::new([10, 0, 0, 0], 24)),
                ..FlowMatch::any()
            },
            7,
        ));
        assert_eq!(*t.lookup(&flow(80), VfPort(0)), 7);
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn prefilter_matches_linear_walk_on_mixed_rule_soup() {
        use netstack::flow::IpProto;
        // A deliberately adversarial mix: on BOTH addresses, independently,
        // wildcards, /0, partial /8–/31 prefixes (nested ones over the same
        // few networks, so several groups match one flow) and /32 hosts;
        // plus ports, protocols, VFs and seven priorities for 384 rules, so
        // ties are broken by specificity and then insertion order. Every
        // lookup is checked against the reference linear first-match walk,
        // for the table built rule by rule and for the bulk-built one.
        let prefix = |salt: u32| match salt % 4 {
            0 => 32,
            1 => 0,
            _ => 8 + (salt / 4 % 24) as u8,
        };
        let mut rules = Vec::new();
        let mut salt = 0x9e37u32;
        for i in 0..384u32 {
            salt = salt.wrapping_mul(0x0100_0193) ^ i;
            let mut m = FlowMatch::any();
            if salt & 1 != 0 {
                let net = [10, (i % 3) as u8, (i % 2) as u8, (i % 8) as u8];
                m.dst = Some(Cidr::new(net, prefix(salt >> 8)));
            }
            if salt & 2 != 0 {
                let net = [10, (i % 2) as u8, 0, (i % 5) as u8];
                m.src = Some(Cidr::new(net, prefix(salt >> 16)));
            }
            if salt & 8 != 0 {
                m.dst_port = Some(5_000 + (i % 16) as u16);
            }
            if salt & 16 != 0 {
                m.src_port = Some(40_000 + (i % 4) as u16);
            }
            if salt & 32 != 0 {
                m.proto = Some(if salt & 64 != 0 {
                    IpProto::Tcp
                } else {
                    IpProto::Udp
                });
            }
            if salt & 128 != 0 {
                m.vf = Some(VfPort((i % 4) as u8));
            }
            rules.push(FilterRule::new((i % 7) as u16, m, i));
        }
        let mut t = FilterTable::new(u32::MAX);
        for r in &rules {
            t.add(r.clone());
        }
        let bulk = FilterTable::from_rules(u32::MAX, rules);
        assert!(t.iter().eq(bulk.iter()), "bulk build reordered the rules");
        let partial = |c: Option<Cidr>| c.is_some_and(|c| (1..32).contains(&c.prefix));
        assert!(
            t.iter()
                .any(|r| partial(r.matcher.src) && partial(r.matcher.dst)),
            "soup must hold rules with both prefixes partial"
        );

        let mut matched = 0;
        for j in 0..4_000u32 {
            let f = FlowKey::tcp(
                [10, (j % 2) as u8, (j / 2 % 2) as u8, (j % 7) as u8],
                40_000 + (j % 6) as u16,
                [10, (j % 4) as u8, (j / 4 % 3) as u8, (j % 9) as u8],
                5_000 + (j % 20) as u16,
            );
            let vf = VfPort((j % 5) as u8);
            let expect = t
                .iter()
                .find(|r| r.matcher.matches(&f, vf))
                .map(|r| r.verdict)
                .unwrap_or(u32::MAX);
            matched += u32::from(expect != u32::MAX);
            assert_eq!(*t.lookup(&f, vf), expect, "flow {j} diverged from walk");
            assert_eq!(*bulk.lookup(&f, vf), expect, "flow {j} diverged (bulk)");
        }
        assert!(matched > 1_000, "only {matched} flows matched any rule");
    }

    #[test]
    fn map_keeps_order_and_index() {
        let mut t = FilterTable::new(7u32);
        t.add(FilterRule::new(
            20,
            FlowMatch {
                dst_port: Some(81),
                ..FlowMatch::any()
            },
            2,
        ));
        t.add(FilterRule::new(
            10,
            FlowMatch {
                dst_port: Some(80),
                ..FlowMatch::any()
            },
            1,
        ));
        let t = t.map(|v| v * 10);
        assert_eq!(*t.lookup(&flow(80), VfPort(0)), 10);
        assert_eq!(*t.lookup(&flow(81), VfPort(0)), 20);
        assert_eq!(*t.lookup(&flow(82), VfPort(0)), 70);
    }

    #[test]
    fn proto_prefilter_distinguishes_other_from_tcp() {
        use netstack::flow::IpProto;
        // IpProto::Other(6) and IpProto::Tcp are unequal under matches();
        // the hash key must not conflate their wire numbers.
        let mut t = FilterTable::new("none");
        t.add(FilterRule::new(
            10,
            FlowMatch {
                proto: Some(IpProto::Other(6)),
                ..FlowMatch::any()
            },
            "other6",
        ));
        let f = FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], 80);
        assert_eq!(*t.lookup(&f, VfPort(0)), "none");
    }

    #[test]
    fn zero_prefix_rule_keys_as_wildcard() {
        // A /0 CIDR matches everything; the pre-filter must treat it as an
        // unkeyed field, not an exact key of its (irrelevant) address.
        let mut t = FilterTable::new(0u8);
        t.add(FilterRule::new(
            10,
            FlowMatch {
                dst: Some(Cidr::new([99, 99, 99, 99], 0)),
                dst_port: Some(80),
                ..FlowMatch::any()
            },
            7,
        ));
        let f = FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], 80);
        assert_eq!(*t.lookup(&f, VfPort(0)), 7);
    }

    #[test]
    fn insertion_order_stable_for_identical_keys() {
        let mut t = FilterTable::new(0u32);
        t.add(FilterRule::new(
            10,
            FlowMatch {
                dst_port: Some(80),
                ..FlowMatch::any()
            },
            1,
        ));
        t.add(FilterRule::new(
            10,
            FlowMatch {
                dst_port: Some(80),
                ..FlowMatch::any()
            },
            2,
        ));
        // First inserted wins.
        assert_eq!(*t.lookup(&flow(80), VfPort(0)), 1);
    }
}
