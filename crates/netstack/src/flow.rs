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
/// The key carries the low 32 bits of its [`FlowKey::stable_hash`], worked
/// out once when it is built, as the NFP's ingress parser hands the flow
/// hash on with the packet: a flow-cache lookup reads [`FlowKey::tag`]
/// instead of rehashing the tuple. The tuple's fields are read through
/// accessors, so no code can change one and leave the tag stale.
///
/// # Example
///
/// ```
/// use netstack::flow::{FlowKey, IpProto};
///
/// let f = FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], 5001);
/// assert_eq!(f.proto(), IpProto::Tcp);
/// assert_eq!(f.tag(), f.stable_hash() as u32);
/// assert_eq!(f.to_string(), "tcp 10.0.0.1:40000 -> 10.0.0.2:5001");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    proto: IpProto,
    /// Low 32 bits of `stable_hash()`, little-endian. Bytes rather than a
    /// `u32` keep the key 2-aligned at 18 B, and so a flow-cache slot of
    /// the pipeline's verdict at 28 B. Declared last, so the derived
    /// orderings are the tuple's: equal tuples carry equal tags.
    tag: [u8; 4],
}

impl FlowKey {
    /// Creates a TCP flow key.
    pub fn tcp(
        src_ip: impl Into<Ipv4Addr>,
        src_port: u16,
        dst_ip: impl Into<Ipv4Addr>,
        dst_port: u16,
    ) -> Self {
        Self::new(
            src_ip.into(),
            src_port,
            dst_ip.into(),
            dst_port,
            IpProto::Tcp,
        )
    }

    /// Creates a UDP flow key.
    pub fn udp(
        src_ip: impl Into<Ipv4Addr>,
        src_port: u16,
        dst_ip: impl Into<Ipv4Addr>,
        dst_port: u16,
    ) -> Self {
        Self::new(
            src_ip.into(),
            src_port,
            dst_ip.into(),
            dst_port,
            IpProto::Udp,
        )
    }

    /// The one constructor: hashes the tuple and keeps the tag.
    fn new(
        src_ip: Ipv4Addr,
        src_port: u16,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        proto: IpProto,
    ) -> Self {
        let mut key = FlowKey {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
            tag: [0; 4],
        };
        key.tag = (key.stable_hash() as u32).to_le_bytes();
        key
    }

    /// Source IPv4 address.
    #[inline]
    pub fn src_ip(&self) -> Ipv4Addr {
        self.src_ip
    }

    /// Destination IPv4 address.
    #[inline]
    pub fn dst_ip(&self) -> Ipv4Addr {
        self.dst_ip
    }

    /// Source transport port.
    #[inline]
    pub fn src_port(&self) -> u16 {
        self.src_port
    }

    /// Destination transport port.
    #[inline]
    pub fn dst_port(&self) -> u16 {
        self.dst_port
    }

    /// Transport protocol.
    #[inline]
    pub fn proto(&self) -> IpProto {
        self.proto
    }

    /// The low 32 bits of [`FlowKey::stable_hash`], computed when the key
    /// was built: what the flow cache places and compares the key by.
    #[inline]
    pub fn tag(&self) -> u32 {
        u32::from_le_bytes(self.tag)
    }

    /// A stable 64-bit FNV-1a hash of the tuple, worked out from the five
    /// fields on every call. Its low 32 bits are the key's [`FlowKey::tag`],
    /// which places the key in the flow cache; the whole hash is the flow
    /// id the probe files a sampled packet under, and the chaos harness
    /// names its driven flows by it. It only needs to be deterministic and
    /// well-spread, not cryptographic.
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

    /// The carried tag is the low half of the hash the tuple gives, for
    /// every protocol a key can hold, and a key built twice from one
    /// tuple carries one tag.
    #[test]
    fn tag_is_the_low_half_of_the_stable_hash() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..3_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let [a, b, c, d, e, f, g, h] = x.to_le_bytes();
            let (src, dst) = ([10, a, b, c], [d, e, f, g]);
            let (sport, dport) = ((x >> 8) as u16, (x >> 40) as u16);
            let proto = match h % 3 {
                0 => IpProto::Tcp,
                1 => IpProto::Udp,
                _ => IpProto::Other(h),
            };
            let key = FlowKey::new(src.into(), sport, dst.into(), dport, proto);
            assert_eq!(key.tag(), key.stable_hash() as u32, "{key}");
            let again = match proto {
                IpProto::Tcp => FlowKey::tcp(src, sport, dst, dport),
                IpProto::Udp => FlowKey::udp(src, sport, dst, dport),
                IpProto::Other(_) => FlowKey::new(src.into(), sport, dst.into(), dport, proto),
            };
            assert_eq!(key, again);
            assert_eq!(key.tag(), again.tag(), "{key}");
        }
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
