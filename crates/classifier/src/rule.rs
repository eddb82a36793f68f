//! Filter rules: the offloaded analogue of `tc filter` matching.
//!
//! A rule matches a flow's 5-tuple (with CIDR prefixes for addresses and
//! optional exact matches for ports/protocol) plus optionally the SR-IOV
//! virtual function the packet entered through — the paper's Observation 3
//! is that classifying per-VF removes the need for a central host queue.

use core::fmt;
use std::net::Ipv4Addr;

#[cfg(test)]
use netstack::flow::FlowKey;
use netstack::flow::IpProto;
use netstack::packet::VfPort;

/// An IPv4 CIDR prefix match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cidr {
    /// Network address.
    pub addr: Ipv4Addr,
    /// Prefix length, 0–32.
    pub prefix: u8,
}

impl Cidr {
    /// Creates a CIDR prefix.
    ///
    /// # Panics
    ///
    /// Panics if `prefix > 32`.
    pub fn new(addr: impl Into<Ipv4Addr>, prefix: u8) -> Self {
        assert!(prefix <= 32, "prefix length out of range");
        Cidr {
            addr: addr.into(),
            prefix,
        }
    }

    /// Whether `ip` falls inside this prefix: half of [`FlowMatch::matches`],
    /// the linear walk the filter table's tests hold its hash groups to.
    #[cfg(test)]
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        if self.prefix == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - self.prefix as u32);
        (u32::from(ip) & mask) == (u32::from(self.addr) & mask)
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.prefix)
    }
}

/// The match half of a filter rule; unset fields are wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowMatch {
    /// Source address prefix.
    pub src: Option<Cidr>,
    /// Destination address prefix.
    pub dst: Option<Cidr>,
    /// Exact source port.
    pub src_port: Option<u16>,
    /// Exact destination port.
    pub dst_port: Option<u16>,
    /// Transport protocol.
    pub proto: Option<IpProto>,
    /// Ingress virtual function.
    pub vf: Option<VfPort>,
}

impl FlowMatch {
    /// A wildcard match (matches everything).
    pub fn any() -> Self {
        Self::default()
    }

    /// Whether this match accepts `flow` entering through `vf`: the
    /// reference first-match walk the filter table's tuple-space search is
    /// tested against.
    #[cfg(test)]
    pub fn matches(&self, flow: &FlowKey, vf: VfPort) -> bool {
        if let Some(c) = self.src {
            if !c.contains(flow.src_ip()) {
                return false;
            }
        }
        if let Some(c) = self.dst {
            if !c.contains(flow.dst_ip()) {
                return false;
            }
        }
        if let Some(p) = self.src_port {
            if p != flow.src_port() {
                return false;
            }
        }
        if let Some(p) = self.dst_port {
            if p != flow.dst_port() {
                return false;
            }
        }
        if let Some(p) = self.proto {
            if p != flow.proto() {
                return false;
            }
        }
        if let Some(v) = self.vf {
            if v != vf {
                return false;
            }
        }
        true
    }

    /// How specific this match is (count of set fields); used to order
    /// equal-priority rules most-specific-first.
    pub fn specificity(&self) -> u32 {
        u32::from(self.src.is_some())
            + u32::from(self.dst.is_some())
            + u32::from(self.src_port.is_some())
            + u32::from(self.dst_port.is_some())
            + u32::from(self.proto.is_some())
            + u32::from(self.vf.is_some())
    }
}

/// A filter rule: a match plus a verdict, ordered by priority.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterRule<V> {
    /// Lower value = matched first (kernel `tc filter` convention).
    pub priority: u16,
    /// The tuple match.
    pub matcher: FlowMatch,
    /// Verdict attached to matching flows.
    pub verdict: V,
}

impl<V> FilterRule<V> {
    /// Creates a rule.
    pub fn new(priority: u16, matcher: FlowMatch, verdict: V) -> Self {
        FilterRule {
            priority,
            matcher,
            verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cidr_contains() {
        let c = Cidr::new([10, 0, 0, 0], 8);
        assert!(c.contains(Ipv4Addr::new(10, 200, 3, 4)));
        assert!(!c.contains(Ipv4Addr::new(11, 0, 0, 1)));
        let host = Cidr::new([10, 0, 0, 7], 32);
        assert!(host.contains(Ipv4Addr::new(10, 0, 0, 7)));
        assert!(!host.contains(Ipv4Addr::new(10, 0, 0, 8)));
    }

    #[test]
    fn zero_prefix_matches_all() {
        let c = Cidr::new([1, 2, 3, 4], 0);
        assert!(c.contains(Ipv4Addr::new(255, 255, 255, 255)));
    }

    #[test]
    #[should_panic]
    fn prefix_over_32_rejected() {
        let _ = Cidr::new([0, 0, 0, 0], 33);
    }

    #[test]
    fn wildcard_matches_everything() {
        let f = FlowKey::tcp([1, 2, 3, 4], 5, [6, 7, 8, 9], 10);
        assert!(FlowMatch::any().matches(&f, VfPort(3)));
        assert_eq!(FlowMatch::any().specificity(), 0);
    }

    #[test]
    fn field_matching() {
        let f = FlowKey::tcp([10, 0, 0, 1], 4000, [10, 0, 0, 2], 5001);
        let m = FlowMatch {
            dst_port: Some(5001),
            proto: Some(IpProto::Tcp),
            vf: Some(VfPort(1)),
            ..FlowMatch::any()
        };
        assert!(m.matches(&f, VfPort(1)));
        assert!(!m.matches(&f, VfPort(2)));
        let other_port = FlowMatch {
            dst_port: Some(80),
            ..m
        };
        assert!(!other_port.matches(&f, VfPort(1)));
        assert_eq!(m.specificity(), 3);
    }

    #[test]
    fn src_and_prefix_matching() {
        let f = FlowKey::udp([192, 168, 5, 5], 999, [10, 0, 0, 2], 53);
        let m = FlowMatch {
            src: Some(Cidr::new([192, 168, 0, 0], 16)),
            src_port: Some(999),
            ..FlowMatch::any()
        };
        assert!(m.matches(&f, VfPort(0)));
        let m2 = FlowMatch {
            src: Some(Cidr::new([192, 169, 0, 0], 16)),
            ..FlowMatch::any()
        };
        assert!(!m2.matches(&f, VfPort(0)));
    }

    #[test]
    fn cidr_display() {
        assert_eq!(Cidr::new([10, 0, 0, 0], 24).to_string(), "10.0.0.0/24");
    }
}
