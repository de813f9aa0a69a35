//! Client↔waypoint tunneling: VPN vs NAT.
//!
//! §IV-C: "VPN adds 36 bytes of per-packet overhead for IP encapsulation
//! and UDP and OpenVPN headers, while NAT adds no extra bytes to a
//! packet"; conversely, "once a client establishes a VPN tunnel with a
//! waypoint, this tunnel may be reused to create a detour for any TCP
//! connection to any server … The NAT mechanism requires signaling with
//! the waypoint for every new server address and port number
//! combination." [`TunnelState`] models exactly that tradeoff
//! (experiment E10), and [`SubnetAllocator`] implements the paper's
//! "/26 from the 10.0.0.0/8 block … 256K non-conflicting waypoints
//! [each serving] 64 clients".

use hpop_netsim::time::SimDuration;
use hpop_transport::tcp::MSS;
use std::collections::BTreeSet;

/// Which tunneling mechanism a detour uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TunnelType {
    /// OpenVPN-style encapsulation: 36 B/packet, one-time join.
    Vpn,
    /// netfilter NAT rules: 0 B/packet, per-(dst, port) signaling.
    Nat,
}

impl TunnelType {
    /// Per-packet encapsulation overhead in bytes.
    pub fn per_packet_overhead(self) -> u32 {
        match self {
            TunnelType::Vpn => 36,
            TunnelType::Nat => 0,
        }
    }
}

/// Live tunnel state between one client and one waypoint.
#[derive(Clone, Debug)]
pub struct TunnelState {
    kind: TunnelType,
    vpn_joined: bool,
    nat_rules: BTreeSet<(u64, u16)>,
    /// Signaling round trips spent so far (setup cost metric).
    pub signaling_rtts: u32,
}

impl TunnelState {
    /// A fresh (unestablished) tunnel.
    pub fn new(kind: TunnelType) -> TunnelState {
        TunnelState {
            kind,
            vpn_joined: false,
            nat_rules: BTreeSet::new(),
            signaling_rtts: 0,
        }
    }

    /// The mechanism in use.
    pub fn kind(&self) -> TunnelType {
        self.kind
    }

    /// Prepares the tunnel for a connection to `(dst, port)`, returning
    /// the setup delay incurred *this time* given the client↔waypoint
    /// RTT:
    ///
    /// - VPN: 2 RTTs once ever (join VPN + DHCP), then free for any
    ///   destination;
    /// - NAT: 1 RTT per new `(dst, port)` pair, then free for repeats.
    pub fn prepare(&mut self, dst: u64, port: u16, rtt: SimDuration) -> SimDuration {
        match self.kind {
            TunnelType::Vpn => {
                if self.vpn_joined {
                    SimDuration::ZERO
                } else {
                    self.vpn_joined = true;
                    self.signaling_rtts += 2;
                    rtt * 2
                }
            }
            TunnelType::Nat => {
                if self.nat_rules.insert((dst, port)) {
                    self.signaling_rtts += 1;
                    rtt
                } else {
                    SimDuration::ZERO
                }
            }
        }
    }

    /// Number of NAT rules installed (0 for VPN tunnels).
    pub fn nat_rule_count(&self) -> usize {
        self.nat_rules.len()
    }

    /// Total wire bytes for sending `goodput` bytes through this tunnel
    /// in [`MSS`]-sized segments.
    pub fn wire_bytes(&self, goodput: u64) -> u64 {
        let packets = goodput.div_ceil(u64::from(MSS));
        goodput + packets * self.kind.per_packet_overhead() as u64
    }
}

/// A waypoint's private-subnet allocation: `/26`s carved from
/// `10.0.0.0/8`.
#[derive(Clone, Debug, Default)]
pub struct SubnetAllocator {
    next: u32,
    released: BTreeSet<u32>,
}

/// Total allocatable `/26` subnets in `10.0.0.0/8` (2^24 / 2^6).
pub const MAX_SUBNETS: u32 = 1 << 18;

/// Clients addressable within one `/26` (64 addresses; the paper's "64
/// clients simultaneously" — broadcast/network addresses ignored in this
/// model).
pub const CLIENTS_PER_SUBNET: u32 = 64;

/// A waypoint's allocated `/26`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Subnet(u32);

impl Subnet {
    /// The subnet in dotted `10.x.y.z/26` notation.
    pub fn cidr(&self) -> String {
        let base = self.0 << 6;
        format!(
            "10.{}.{}.{}/26",
            (base >> 16) & 0xff,
            (base >> 8) & 0xff,
            base & 0xff
        )
    }

    /// The private address of client slot `idx` within the subnet.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 64`.
    pub fn client_addr(&self, idx: u32) -> String {
        assert!(idx < CLIENTS_PER_SUBNET, "client slot out of range");
        let addr = (self.0 << 6) + idx;
        format!(
            "10.{}.{}.{}",
            (addr >> 16) & 0xff,
            (addr >> 8) & 0xff,
            addr & 0xff
        )
    }
}

impl SubnetAllocator {
    /// A fresh allocator over the whole `10.0.0.0/8` pool.
    pub fn new() -> SubnetAllocator {
        SubnetAllocator::default()
    }

    /// Allocates the next free `/26`; `None` when the pool is exhausted.
    pub fn allocate(&mut self) -> Option<Subnet> {
        if let Some(&r) = self.released.iter().next() {
            self.released.remove(&r);
            return Some(Subnet(r));
        }
        if self.next >= MAX_SUBNETS {
            return None;
        }
        let s = Subnet(self.next);
        self.next += 1;
        Some(s)
    }

    /// Returns a subnet to the pool.
    pub fn release(&mut self, s: Subnet) {
        if s.0 < self.next {
            self.released.insert(s.0);
        }
    }

    /// Subnets currently allocated.
    pub fn allocated_count(&self) -> u32 {
        self.next - self.released.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RTT: SimDuration = SimDuration::from_millis(20);

    #[test]
    fn vpn_pays_once_nat_pays_per_destination() {
        let mut vpn = TunnelState::new(TunnelType::Vpn);
        let mut nat = TunnelState::new(TunnelType::Nat);
        // First connection.
        assert_eq!(vpn.prepare(1, 443, RTT), RTT * 2);
        assert_eq!(nat.prepare(1, 443, RTT), RTT);
        // Same destination again: both free.
        assert_eq!(vpn.prepare(1, 443, RTT), SimDuration::ZERO);
        assert_eq!(nat.prepare(1, 443, RTT), SimDuration::ZERO);
        // New destination: VPN free, NAT pays again.
        assert_eq!(vpn.prepare(2, 443, RTT), SimDuration::ZERO);
        assert_eq!(nat.prepare(2, 443, RTT), RTT);
        assert_eq!(vpn.signaling_rtts, 2);
        assert_eq!(nat.signaling_rtts, 2);
        assert_eq!(nat.nat_rule_count(), 2);
        assert_eq!(vpn.nat_rule_count(), 0);
    }

    #[test]
    fn wire_overhead_is_36_bytes_per_packet_for_vpn_only() {
        let vpn = TunnelState::new(TunnelType::Vpn);
        let nat = TunnelState::new(TunnelType::Nat);
        // 1 MB in 1460-byte segments = 685 packets.
        let goodput = 1_000_000u64;
        assert_eq!(nat.wire_bytes(goodput), goodput);
        assert_eq!(vpn.wire_bytes(goodput), goodput + 685 * 36);
        assert_eq!(TunnelType::Vpn.per_packet_overhead(), 36);
        assert_eq!(TunnelType::Nat.per_packet_overhead(), 0);
    }

    #[test]
    fn subnet_allocation_and_addressing() {
        let mut alloc = SubnetAllocator::new();
        let s0 = alloc.allocate().unwrap();
        let s1 = alloc.allocate().unwrap();
        assert_eq!(s0.cidr(), "10.0.0.0/26");
        assert_eq!(s1.cidr(), "10.0.0.64/26");
        assert_eq!(s0.client_addr(0), "10.0.0.0");
        assert_eq!(s0.client_addr(63), "10.0.0.63");
        assert_eq!(s1.client_addr(1), "10.0.0.65");
        assert_eq!(alloc.allocated_count(), 2);
    }

    #[test]
    fn release_reuses_lowest_subnet() {
        let mut alloc = SubnetAllocator::new();
        let a = alloc.allocate().unwrap();
        let _b = alloc.allocate().unwrap();
        alloc.release(a);
        assert_eq!(alloc.allocated_count(), 1);
        let c = alloc.allocate().unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn pool_capacity_matches_paper_arithmetic() {
        // 256K waypoints × 64 clients (§IV-C).
        assert_eq!(MAX_SUBNETS, 262_144);
        assert_eq!(CLIENTS_PER_SUBNET, 64);
    }

    #[test]
    #[should_panic(expected = "client slot out of range")]
    fn client_slot_bounds_checked() {
        let mut alloc = SubnetAllocator::new();
        let s = alloc.allocate().unwrap();
        let _ = s.client_addr(64);
    }
}
