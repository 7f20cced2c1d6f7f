//! Frozen inputs: the seeded generators every workload draws from.
//!
//! These live in the benchmark, not in `zeus-workloads`, so that a later
//! change to the repository cannot alter what the benchmark feeds it. The
//! same `(workload, seed, client)` always yields the same operation stream
//! (pinned by the stream-hash tests below).

/// Nodes of every threaded workload (`ZeusConfig::with_nodes(3)`).
pub const NODES: u64 = 3;
/// Closed-loop client threads (the sandbox has two cores).
pub const CLIENTS: u64 = 2;
/// Objects loaded before every threaded run.
pub const OBJECTS: u64 = 60_000;
/// Size of one object's value.
pub const OBJECT_BYTES: usize = 128;
/// Balance every object starts with.
pub const INITIAL_BALANCE: i64 = 1_000;
/// Keys per (home node, client) cell: clients write disjoint objects so the
/// generator's bookkeeping (last writer, committed counts) is exact.
const CELL: u64 = OBJECTS / (NODES * CLIENTS);
/// Smallbank customers per (home node, client) cell; a customer has a
/// checking object (`2 * customer`) and a savings object (`2 * customer + 1`).
const CUSTOMER_CELL: u64 = CELL / 2;

/// xorshift64* — small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct XorShift64(u64);

impl XorShift64 {
    /// A generator for `seed`; distinct seeds give unrelated streams.
    pub fn new(seed: u64) -> Self {
        // splitmix64 scrambles the seed so that seeds 1, 2, 3… do not start
        // from nearly identical states (and never from the forbidden 0).
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift64((z ^ (z >> 31)) | 1)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: unbiased enough for load shaping, no division.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(θ) over `0..n` by the method of Gray et al.; rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// A Zipf distribution over `0..n` with skew `theta` in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |k: u64| (1..=k).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    /// Samples a rank in `0..n`.
    pub fn sample(&self, rng: &mut XorShift64) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }
}

/// The latency class a transaction is reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// A write whose objects the coordinator already owns.
    Write,
    /// A read-only transaction.
    Read,
    /// A write the generator knows needs an ownership move first.
    Handover,
}

/// One transaction: read `reads`, then add `delta` to the balance (and one
/// to the write counter) of every object in `writes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    /// The node whose session submits the transaction.
    pub node: u16,
    /// The class its latency is reported under.
    pub class: Class,
    reads: [u64; 2],
    n_reads: u8,
    writes: [(u64, i64); 2],
    n_writes: u8,
}

impl Op {
    /// A transaction submitted at `node` (at most two reads, two writes).
    pub fn new(node: u64, class: Class, reads: &[u64], writes: &[(u64, i64)]) -> Self {
        let mut op = Op {
            node: node as u16,
            class,
            reads: [0; 2],
            n_reads: reads.len() as u8,
            writes: [(0, 0); 2],
            n_writes: writes.len() as u8,
        };
        op.reads[..reads.len()].copy_from_slice(reads);
        op.writes[..writes.len()].copy_from_slice(writes);
        op
    }

    /// Objects read but not written.
    pub fn reads(&self) -> &[u64] {
        &self.reads[..self.n_reads as usize]
    }

    /// `(object, balance delta)` of every object written.
    pub fn writes(&self) -> &[(u64, i64)] {
        &self.writes[..self.n_writes as usize]
    }
}

/// The five workload names, fixed by `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every write lands on the owner.
    LocalWrite,
    /// Two-object read-only transactions at a non-owner replica.
    ReplicaRead,
    /// Every write needs an ownership move.
    Handover,
    /// The Smallbank mix, Zipf 0.9, 2% remote.
    SmallbankMix,
    /// The deterministic protocol script on the simulator.
    SimProtocol,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::LocalWrite,
        Workload::ReplicaRead,
        Workload::Handover,
        Workload::SmallbankMix,
        Workload::SimProtocol,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalWrite => "local_write",
            Workload::ReplicaRead => "replica_read",
            Workload::Handover => "handover",
            Workload::SmallbankMix => "smallbank_mix",
            Workload::SimProtocol => "sim_protocol",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The node an object is created on (its first owner).
    pub fn home(self, object: u64) -> u64 {
        match self {
            Workload::SmallbankMix => (object / 2) % NODES,
            _ => object % NODES,
        }
    }

    /// Write-pipeline depth of one client (reads always block).
    pub fn depth(self) -> usize {
        match self {
            Workload::LocalWrite => 16,
            Workload::Handover | Workload::SmallbankMix => 8,
            Workload::ReplicaRead | Workload::SimProtocol => 1,
        }
    }
}

/// The key in cell `(home, client)` with index `k`, such that
/// `Workload::home(key) == home` for the non-Smallbank layout.
fn key(k: u64, client: u64, home: u64) -> u64 {
    (k * CLIENTS + client) * NODES + home
}

/// Distinct objects that may be in flight at once: no handover is generated
/// for an object among the last `RECENT` ones, so each pipelined move is
/// independent and the last-writer bookkeeping stays exact.
const RECENT: usize = 16;

/// The operation stream of one client of one threaded workload.
#[derive(Debug, Clone)]
pub struct OpGen {
    workload: Workload,
    client: u64,
    rng: XorShift64,
    zipf: Zipf,
    /// Current owner of every object of this client's cells, as far as the
    /// generator's own submissions determine it (indexed by object id).
    owner: Vec<u8>,
    recent: [u64; RECENT],
    cursor: usize,
}

impl OpGen {
    /// The stream of `client` (`0..CLIENTS`) for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, client: u64) -> Self {
        assert!(client < CLIENTS && workload != Workload::SimProtocol);
        let stream = (workload as u64) << 8 | client;
        OpGen {
            workload,
            client,
            rng: XorShift64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)),
            zipf: Zipf::new(CUSTOMER_CELL, 0.9),
            owner: (0..OBJECTS).map(|o| workload.home(o) as u8).collect(),
            recent: [u64::MAX; RECENT],
            cursor: 0,
        }
    }

    /// The next transaction of the stream.
    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::LocalWrite => {
                let home = self.rng.below(NODES);
                let object = key(self.rng.below(CELL), self.client, home);
                Op::new(home, Class::Write, &[], &[(object, 1)])
            }
            Workload::ReplicaRead => {
                let node = self.rng.below(NODES);
                let mut pick = || {
                    let home = (node + 1 + self.rng.below(NODES - 1)) % NODES;
                    key(self.rng.below(CELL), self.rng.below(CLIENTS), home)
                };
                let objects = [pick(), pick()];
                Op::new(node, Class::Read, &objects, &[])
            }
            Workload::Handover => {
                let object = loop {
                    let home = self.rng.below(NODES);
                    let object = key(self.rng.below(CELL), self.client, home);
                    if !self.recent.contains(&object) {
                        break object;
                    }
                };
                self.recent[self.cursor] = object;
                self.cursor = (self.cursor + 1) % RECENT;
                let from = u64::from(self.owner[object as usize]);
                let node = (from + 1 + self.rng.below(NODES - 1)) % NODES;
                self.owner[object as usize] = node as u8;
                Op::new(node, Class::Handover, &[], &[(object, 1)])
            }
            Workload::SmallbankMix => self.next_smallbank(),
            Workload::SimProtocol => unreachable!("sim_protocol runs a fixed script"),
        }
    }

    /// A customer homed on `home`, Zipf-ranked within this client's cell.
    fn customer(&mut self, home: u64) -> u64 {
        key(self.zipf.sample(&mut self.rng), self.client, home)
    }

    fn next_smallbank(&mut self) -> Op {
        let node = self.rng.below(NODES);
        let kind = self.rng.below(100);
        let amount = 1 + self.rng.below(100) as i64;
        let first = self.customer(node);
        // 2% of writes reach for an account homed on another node.
        let remote = self.rng.below(100) < 2;
        let other_home = (node + 1 + self.rng.below(NODES - 1)) % NODES;
        let (checking, savings) = (|c: u64| 2 * c, |c: u64| 2 * c + 1);
        // A single-customer write uses a remote customer when `remote`.
        let single = if remote {
            self.customer(other_home)
        } else {
            first
        };
        let (reads, writes): (Vec<u64>, Vec<(u64, i64)>) = match kind {
            // Balance: read both accounts of one customer.
            0..=14 => return Op::new(node, Class::Read, &[checking(first), savings(first)], &[]),
            // DepositChecking.
            15..=29 => (vec![], vec![(checking(single), amount)]),
            // TransactSavings.
            30..=44 => (vec![], vec![(savings(single), amount)]),
            // WriteCheck: read savings, debit checking.
            45..=59 => (vec![savings(single)], vec![(checking(single), -amount)]),
            // SendPayment (checking → checking) / Amalgamate (savings →
            // checking): two customers, money moves between them.
            _ => {
                let second = loop {
                    let candidate = self.customer(if remote { other_home } else { node });
                    if candidate != first {
                        break candidate;
                    }
                };
                let source = if kind < 85 {
                    checking(first)
                } else {
                    savings(first)
                };
                (vec![], vec![(source, -amount), (checking(second), amount)])
            }
        };
        let mut class = Class::Write;
        for &(object, _) in &writes {
            if u64::from(self.owner[object as usize]) != node {
                class = Class::Handover;
                self.owner[object as usize] = node as u8;
            }
        }
        Op::new(node, class, &reads, &writes)
    }
}

/// FNV-1a over the first `n` operations of a stream: the fingerprint the
/// frozen-input tests pin.
pub fn stream_hash(workload: Workload, seed: u64, client: u64, n: usize) -> u64 {
    let mut gen = OpGen::new(workload, seed, client);
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for _ in 0..n {
        let op = gen.next_op();
        mix(u64::from(op.node));
        mix(op.class as u64);
        op.reads().iter().for_each(|&o| mix(o));
        op.writes().iter().for_each(|&(o, d)| {
            mix(o);
            mix(d as u64);
        });
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    const THREADED: [Workload; 4] = [
        Workload::LocalWrite,
        Workload::ReplicaRead,
        Workload::Handover,
        Workload::SmallbankMix,
    ];

    #[test]
    fn same_seed_same_stream_and_seeds_and_clients_differ() {
        for w in THREADED {
            assert_eq!(stream_hash(w, 42, 0, 5_000), stream_hash(w, 42, 0, 5_000));
            assert_ne!(stream_hash(w, 42, 0, 5_000), stream_hash(w, 43, 0, 5_000));
            assert_ne!(stream_hash(w, 42, 0, 5_000), stream_hash(w, 42, 1, 5_000));
        }
    }

    #[test]
    fn streams_are_frozen() {
        // Changing a generator changes what every past result was measured
        // on; these fingerprints make that a deliberate act.
        let hashes: Vec<u64> = THREADED
            .iter()
            .map(|&w| stream_hash(w, 42, 0, 10_000))
            .collect();
        assert_eq!(
            hashes,
            [
                0xD02E_52B1_FA8A_CB9A,
                0x86B8_439D_BB2E_0AE0,
                0x0770_047D_CA1B_6661,
                0x7B84_D2D6_DD74_0132
            ],
            "{hashes:#018X?}"
        );
    }

    #[test]
    fn clients_write_disjoint_objects_homed_where_the_layout_says() {
        for w in THREADED {
            let mut seen = [vec![false; OBJECTS as usize], vec![false; OBJECTS as usize]];
            for client in 0..CLIENTS {
                let mut gen = OpGen::new(w, 7, client);
                for _ in 0..20_000 {
                    for &(object, _) in gen.next_op().writes() {
                        assert!(object < OBJECTS);
                        seen[client as usize][object as usize] = true;
                    }
                }
            }
            assert!(!(0..OBJECTS as usize).any(|o| seen[0][o] && seen[1][o]));
        }
    }

    #[test]
    fn local_writes_target_the_owner_and_reads_a_non_owner() {
        let mut gen = OpGen::new(Workload::LocalWrite, 1, 0);
        for _ in 0..10_000 {
            let op = gen.next_op();
            let (object, _) = op.writes()[0];
            assert_eq!(Workload::LocalWrite.home(object), u64::from(op.node));
        }
        let mut gen = OpGen::new(Workload::ReplicaRead, 1, 1);
        for _ in 0..10_000 {
            let op = gen.next_op();
            assert_eq!(op.reads().len(), 2);
            for &object in op.reads() {
                assert_ne!(Workload::ReplicaRead.home(object), u64::from(op.node));
            }
        }
    }

    #[test]
    fn every_handover_targets_an_object_last_written_elsewhere() {
        let mut gen = OpGen::new(Workload::Handover, 3, 0);
        let mut owner: Vec<u64> = (0..OBJECTS).map(|o| Workload::Handover.home(o)).collect();
        let mut window: Vec<u64> = Vec::new();
        for _ in 0..50_000 {
            let op = gen.next_op();
            let (object, _) = op.writes()[0];
            assert_ne!(owner[object as usize], u64::from(op.node));
            assert!(
                !window.contains(&object),
                "object repeated within the pipeline window"
            );
            owner[object as usize] = u64::from(op.node);
            window.push(object);
            if window.len() > 8 {
                window.remove(0);
            }
        }
    }

    #[test]
    fn smallbank_mix_has_the_stated_shares_and_conserves_transfers() {
        let mut gen = OpGen::new(Workload::SmallbankMix, 42, 0);
        let (mut reads, mut moves, mut two, n) = (0u32, 0u32, 0u32, 200_000u32);
        for _ in 0..n {
            let op = gen.next_op();
            match op.class {
                Class::Read => reads += 1,
                Class::Handover => moves += 1,
                Class::Write => {}
            }
            if op.writes().len() == 2 {
                two += 1;
                assert_eq!(op.writes()[0].1 + op.writes()[1].1, 0);
                assert_ne!(op.writes()[0].0, op.writes()[1].0);
            }
        }
        let share = |c: u32| f64::from(c) / f64::from(n);
        assert!((share(reads) - 0.15).abs() < 0.01, "reads {}", share(reads));
        assert!(
            (share(two) - 0.40).abs() < 0.01,
            "two-object {}",
            share(two)
        );
        // 2% of the writes go remote; more moves bring those accounts home.
        assert!(
            (0.017..0.06).contains(&share(moves)),
            "moves {}",
            share(moves)
        );
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(5_000, 0.9);
        let mut rng = XorShift64::new(9);
        let mut head = 0;
        for _ in 0..100_000 {
            let rank = zipf.sample(&mut rng);
            assert!(rank < 5_000);
            head += u32::from(rank < 10);
        }
        assert!(head > 20_000, "top-10 share too small: {head}");
    }
}
