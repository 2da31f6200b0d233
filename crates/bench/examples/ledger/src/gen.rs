//! Seeded input generation. `--seed` is the only input: the program under
//! test sees nothing but the records produced here.

use logr::workload::{generate_pocketdata, generate_usbank, PocketDataConfig, UsBankConfig};
use std::collections::HashSet;

/// splitmix64 — small, seedable, and good enough for picking inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream seed of one workload: workloads must not share a stream.
pub fn workload_seed(seed: u64, workload: &str) -> u64 {
    mix(seed ^ fnv1a(workload.as_bytes()))
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Order-sensitive digest of a record stream (selfcheck compares these).
pub fn stream_hash(acc: u64, records: &[String]) -> u64 {
    records.iter().fold(acc, |h, r| mix(h ^ fnv1a(r.as_bytes())))
}

/// A fixed statement universe with multiplicities. A stream over it is
/// the same multiset of records whatever the seed, in a seeded order: the
/// seed moves statements between windows, not the workload's overall mix,
/// so the fidelity numbers of two seeds are comparable.
#[derive(Debug)]
pub struct Universe(Vec<(String, u64)>);

impl Universe {
    /// The paper's stable machine workload: 605 parameterized statements.
    pub fn pocketdata() -> Universe {
        Universe(generate_pocketdata(&PocketDataConfig::default()).statements)
    }

    /// 13.7k raw strings that differ in literals over ~1.8k shapes.
    pub fn usbank() -> Universe {
        Universe(generate_usbank(&UsBankConfig::default()).statements)
    }

    /// `n` records: each statement in proportion to its multiplicity
    /// (largest remainders make up the rounding), shuffled by `rng`.
    pub fn stream(&self, rng: &mut Rng, n: usize) -> Vec<String> {
        let total: u128 = self.0.iter().map(|(_, count)| u128::from(*count)).sum();
        let mut copies: Vec<(usize, u128)> = Vec::with_capacity(self.0.len());
        let mut out = Vec::with_capacity(n);
        for (at, (sql, count)) in self.0.iter().enumerate() {
            let share = u128::from(*count) * n as u128;
            out.extend(std::iter::repeat_n(sql, (share / total) as usize).cloned());
            copies.push((at, share % total));
        }
        copies.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let short = n - out.len();
        out.extend(copies.iter().take(short).map(|&(at, _)| self.0[at].0.clone()));
        shuffle(rng, &mut out);
        out
    }
}

fn shuffle(rng: &mut Rng, items: &mut [String]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// `n` statements, no two of one shape: the combinatorial family
/// `benches/close_path.rs` uses, in four sub-families that share no
/// feature, so that a 4-mixture has one right answer and the fidelity
/// numbers do not hang on how the clustering breaks ties. Which shapes is
/// fixed; `rng` only orders them, so every seed ends on the same history.
pub fn novel_shapes(rng: &mut Rng, n: usize) -> Vec<String> {
    let mut pick = Rng::new(0x5EED_0F5A);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let f = out.len() % 4;
        let (x, y) = (pick.below(53), pick.below(48));
        let (t, w) = (pick.below(5), pick.below(32));
        if seen.insert([f as u64, x, y, t, w]) {
            out.push(format!("SELECT f{f}_c{x}, f{f}_d{y} FROM f{f}_t{t} WHERE f{f}_a{w} = ?"));
        }
    }
    shuffle(rng, &mut out);
    out
}

/// Lines `start..start + n` of the service log: ten shapes in rotation,
/// three of which (0, 2, 9) carry a request id no other line has.
pub fn service_lines(seed: u64, start: u64, n: usize) -> Vec<String> {
    (start..start + n as u64)
        .map(|i| {
            let mut rng = Rng::new(mix(seed ^ i));
            let rid = rng.next_u64();
            let (a, b, c) = (rng.below(19), rng.below(17), rng.below(251));
            let (ms, n) = (3 + rng.below(400), rng.below(997));
            match i % 10 {
                0 => format!("auth: user u{a} logged in from 10.0.{b}.{c} req {rid:016x}"),
                1 => format!("auth: user u{a} failed password from 203.0.113.{c}"),
                2 => format!("http: GET /api/v1/items/{n} -> 200 in {ms} ms req {rid:016x}"),
                3 => format!("http: POST /api/v1/orders -> 201 in {ms} ms"),
                4 => format!("db: slow query {ms} ms on shard {b}"),
                5 => format!("cache: evicted {n} keys from shard {b}"),
                6 => format!("gc: pause {ms} ms heap {} mb", 256 + n),
                7 => format!("disk: wrote segment /var/data/seg-{b}.db in {ms} ms"),
                8 => format!("net: connection reset by 10.1.{b}.{c}"),
                _ => format!("job: backup {rid:016x} completed in {ms} s"),
            }
        })
        .collect()
}

/// One tenant's statements for `server_mixed`: two families of 273
/// shapes that share no feature (one right answer for the daemon's
/// 2-mixtures), so closes stay window-sized instead of growing a codebook
/// forever. Every shape comes up equally often; `rng` orders them.
pub fn tenant_statements(rng: &mut Rng, tenant: &str, n: usize) -> Vec<String> {
    let mut out: Vec<String> = (0..n as u64)
        .map(|i| {
            let (f, i) = (i % 2, i / 2);
            let (c, t, a) = (f * 13 + i % 13, f * 3 + i % 3, f * 7 + i % 7);
            format!("SELECT c{c} FROM {tenant}_t{t} WHERE a{a} = ?")
        })
        .collect();
    shuffle(rng, &mut out);
    out
}
