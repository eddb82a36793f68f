//! Flow identification: IP 5-tuples.

use core::fmt;
use std::net::Ipv4Addr;

/// An IP transport protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IpProto {
    /// TCP (protocol number 6).
    Tcp,
    /// UDP (protocol number 17).
    Udp,
    /// Any other protocol, by IANA number.
    Other(u8),
}

impl IpProto {
    /// The IANA protocol number.
    pub fn number(self) -> u8 {
        match self {
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(n) => n,
        }
    }
}

impl From<u8> for IpProto {
    fn from(n: u8) -> Self {
        match n {
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

impl fmt::Display for IpProto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProto::Tcp => write!(f, "tcp"),
            IpProto::Udp => write!(f, "udp"),
            IpProto::Other(n) => write!(f, "proto{n}"),
        }
    }
}

/// An IPv4 5-tuple identifying a flow.
///
/// # Example
///
/// ```
/// use netstack::flow::{FlowKey, IpProto};
///
/// let f = FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], 5001);
/// assert_eq!(f.proto, IpProto::Tcp);
/// assert_eq!(f.to_string(), "tcp 10.0.0.1:40000 -> 10.0.0.2:5001");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: IpProto,
}

impl FlowKey {
    /// Creates a TCP flow key.
    pub fn tcp(
        src_ip: impl Into<Ipv4Addr>,
        src_port: u16,
        dst_ip: impl Into<Ipv4Addr>,
        dst_port: u16,
    ) -> Self {
        FlowKey {
            src_ip: src_ip.into(),
            dst_ip: dst_ip.into(),
            src_port,
            dst_port,
            proto: IpProto::Tcp,
        }
    }

    /// Creates a UDP flow key.
    pub fn udp(
        src_ip: impl Into<Ipv4Addr>,
        src_port: u16,
        dst_ip: impl Into<Ipv4Addr>,
        dst_port: u16,
    ) -> Self {
        FlowKey {
            src_ip: src_ip.into(),
            dst_ip: dst_ip.into(),
            src_port,
            dst_port,
            proto: IpProto::Udp,
        }
    }

    /// A stable 64-bit hash of the tuple, used for RSS-style core placement
    /// and flow-cache bucketing. This is a simple FNV-1a; it only needs to
    /// be deterministic and well-spread, not cryptographic.
    pub fn stable_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        };
        for b in self.src_ip.octets() {
            eat(b);
        }
        for b in self.dst_ip.octets() {
            eat(b);
        }
        for b in self.src_port.to_be_bytes() {
            eat(b);
        }
        for b in self.dst_port.to_be_bytes() {
            eat(b);
        }
        eat(self.proto.number());
        h
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{}",
            self.proto, self.src_ip, self.src_port, self.dst_ip, self.dst_port
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proto_numbers_roundtrip() {
        assert_eq!(IpProto::from(6), IpProto::Tcp);
        assert_eq!(IpProto::from(17), IpProto::Udp);
        assert_eq!(IpProto::from(47), IpProto::Other(47));
        for p in [IpProto::Tcp, IpProto::Udp, IpProto::Other(89)] {
            assert_eq!(IpProto::from(p.number()), p);
        }
    }

    #[test]
    fn stable_hash_is_deterministic_and_spread() {
        let a = FlowKey::tcp([10, 0, 0, 1], 1000, [10, 0, 0, 2], 80);
        let b = FlowKey::tcp([10, 0, 0, 1], 1001, [10, 0, 0, 2], 80);
        assert_eq!(a.stable_hash(), a.stable_hash());
        assert_ne!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn hash_distributes_over_cores() {
        // 256 flows over 8 buckets should not collapse onto few buckets.
        let mut counts = [0u32; 8];
        for p in 0..256u16 {
            let f = FlowKey::tcp([10, 0, 0, 1], 1000 + p, [10, 0, 0, 2], 80);
            counts[(f.stable_hash() % 8) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 8), "skewed: {counts:?}");
    }

    #[test]
    fn display_format() {
        let f = FlowKey::udp([192, 168, 0, 1], 53, [8, 8, 8, 8], 53);
        assert_eq!(f.to_string(), "udp 192.168.0.1:53 -> 8.8.8.8:53");
    }
}
