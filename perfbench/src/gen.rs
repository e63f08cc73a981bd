//! Seeded input generation: record values, the degraded key set of
//! `reorg-churn`, and the per-thread operation streams. Everything here is
//! a pure function of the seed; the engine receives only what it yields.

/// Bytes per record value.
pub const VALUE_LEN: usize = 64;

/// SplitMix64: small, fast, and good enough to drive a workload.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// An independent sub-seed for stream `stream` of `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// The value stored for `key` at `version`: the key and version, then a
/// filler derived from both, so a misplaced or torn value never decodes.
pub fn value(key: u64, version: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    let mut r = Rng::new(key ^ (u64::from(version) << 40));
    while v.len() < VALUE_LEN {
        v.push(r.next_u64() as u8);
    }
    v
}

/// The version a value was written at, if it is a valid value for `key`.
pub fn decode(key: u64, v: &[u8]) -> Option<u32> {
    if v.len() != VALUE_LEN || v[..8] != key.to_le_bytes() {
        return None;
    }
    let version = u32::from_le_bytes(v[8..12].try_into().ok()?);
    (value(key, version) == v).then_some(version)
}

/// One foreground operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Point read.
    Get(u64),
    /// Overwrite an existing key (upsert over the wire, update in-process).
    Put { key: u64, version: u32 },
    /// Insert an absent key.
    Insert { key: u64, version: u32 },
    /// Delete a present key.
    Delete(u64),
    /// Inclusive short range scan.
    Scan { lo: u64, hi: u64 },
}

/// Latency class an operation is reported under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Point reads.
    Get,
    /// Writes, including their commit.
    Put,
    /// Short scans.
    Scan,
}

impl Op {
    /// The reporting class.
    pub fn class(&self) -> Class {
        match self {
            Op::Get(_) => Class::Get,
            Op::Scan { .. } => Class::Scan,
            Op::Put { .. } | Op::Insert { .. } | Op::Delete(_) => Class::Put,
        }
    }

    /// The write an acknowledged operation made: key → new version, or
    /// `None` for a delete.
    pub fn effect(&self) -> Option<(u64, Option<u32>)> {
        match self {
            Op::Put { key, version } | Op::Insert { key, version } => Some((*key, Some(*version))),
            Op::Delete(key) => Some((*key, None)),
            Op::Get(_) | Op::Scan { .. } => None,
        }
    }
}

/// The `reorg-churn` starting key set, `present[i]` for key `base + i`:
/// keys loaded the way a churned tree is built (even keys bulk-loaded, odd
/// keys inserted), then a seeded random share deleted.
pub fn churn_present(seed: u64, n: u64, keep_permille: u64) -> Vec<bool> {
    let mut rng = Rng::new(derive(seed, 0xC4));
    (0..n).map(|_| rng.below(1000) < keep_permille).collect()
}

/// Which keys a stream draws from and in what proportions.
#[derive(Clone)]
pub enum Shape {
    /// Uniform keys in `0..keys`: 50% GET, 30% PUT to the stream's own
    /// partition, 20% SCAN of 30 keys.
    WireOltp { keys: u64 },
    /// 90% of keys from a hot range: 90% GET, 5% PUT to the own partition,
    /// 5% SCAN of 20 keys.
    ReadLarge {
        keys: u64,
        hot_lo: u64,
        hot_len: u64,
    },
    /// The single `reorg-churn` writer.
    Churn(Churn),
}

impl Shape {
    /// The `reorg-churn` shape over keys `base + i` for `present[i]`.
    pub fn churn(base: u64, present: Vec<bool>) -> Shape {
        Shape::Churn(Churn {
            base,
            present,
            band_next: 1,
        })
    }
}

/// `reorg-churn` mix over the data keys `base..base + present.len()`:
/// 25% GET, 10% SCAN of 40 keys, 50% band inserts, 15% toggles (insert if
/// absent, delete if present) of a random data key. The band is the key
/// range `1..base`, below every data key and above key 0, which stays:
/// band inserts take its keys in ascending order, so the newest leaf at
/// the low end of the tree keeps splitting. The stream tracks which data
/// keys are present from the writes acknowledged to it
/// ([`Stream::acknowledged`]), so no write fails, even after a refusal.
#[derive(Clone)]
pub struct Churn {
    base: u64,
    present: Vec<bool>,
    band_next: u64,
}

impl Churn {
    fn band_op(&mut self, version: u32) -> Op {
        let key = self.band_next;
        if key >= self.base {
            return Op::Get(key);
        }
        self.band_next += 1;
        Op::Insert { key, version }
    }

    fn toggle(&self, i: u64, version: u32) -> Op {
        let key = self.base + i;
        if self.present[i as usize] {
            Op::Delete(key)
        } else {
            Op::Insert { key, version }
        }
    }

    /// A toggle of a data key was acknowledged: its presence flips.
    fn acknowledged(&mut self, op: &Op) {
        let (key, present) = match op {
            Op::Insert { key, .. } => (*key, true),
            Op::Delete(key) => (*key, false),
            _ => return,
        };
        if key >= self.base {
            self.present[(key - self.base) as usize] = present;
        }
    }
}

/// A deterministic operation stream for one generator thread. Keys the
/// stream writes satisfy `key % parts == part`, so concurrent streams never
/// race on a key and each one's acknowledged writes form its own oracle.
#[derive(Clone)]
pub struct Stream {
    rng: Rng,
    shape: Shape,
    part: u64,
    parts: u64,
    version: u32,
}

fn bump(version: &mut u32) -> u32 {
    *version += 1;
    *version
}

impl Stream {
    /// Stream `part` of `parts` for `seed`.
    pub fn new(seed: u64, shape: Shape, part: u64, parts: u64) -> Stream {
        Stream {
            rng: Rng::new(derive(seed, 1 + part)),
            shape,
            part,
            parts,
            version: 0,
        }
    }

    /// `op`, the last one this stream yielded, was acknowledged. A refused
    /// operation is not reported, so the stream's view of which keys are
    /// present follows the acknowledged writes only.
    pub fn acknowledged(&mut self, op: &Op) {
        if let Shape::Churn(c) = &mut self.shape {
            c.acknowledged(op);
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        let Stream {
            rng,
            shape,
            part,
            parts,
            version,
        } = self;
        let own = |rng: &mut Rng, keys: u64| *part + *parts * rng.below(keys / *parts);
        let r = rng.below(100);
        match shape {
            Shape::WireOltp { keys } => match r {
                0..=49 => Op::Get(rng.below(*keys)),
                50..=79 => Op::Put {
                    key: own(rng, *keys),
                    version: bump(version),
                },
                _ => {
                    let lo = rng.below(*keys);
                    Op::Scan { lo, hi: lo + 29 }
                }
            },
            Shape::ReadLarge {
                keys,
                hot_lo,
                hot_len,
            } => {
                let mut pick = || {
                    if rng.below(10) < 9 {
                        *hot_lo + rng.below(*hot_len)
                    } else {
                        rng.below(*keys)
                    }
                };
                match r {
                    0..=89 => Op::Get(pick()),
                    90..=94 => Op::Put {
                        key: own(rng, *keys),
                        version: bump(version),
                    },
                    _ => {
                        let lo = pick();
                        Op::Scan { lo, hi: lo + 19 }
                    }
                }
            }
            Shape::Churn(c) => {
                let n = c.present.len() as u64;
                match r {
                    0..=24 => Op::Get(c.base + rng.below(n)),
                    25..=34 => {
                        let lo = c.base + rng.below(n);
                        Op::Scan { lo, hi: lo + 39 }
                    }
                    35..=84 => c.band_op(bump(version)),
                    _ => c.toggle(rng.below(n), bump(version)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes(seed: u64) -> Vec<Shape> {
        vec![
            Shape::WireOltp { keys: 10_000 },
            Shape::ReadLarge {
                keys: 10_000,
                hot_lo: 2_000,
                hot_len: 1_000,
            },
            Shape::churn(1 << 20, churn_present(seed, 5_000, 400)),
        ]
    }

    /// 20 000 ops of stream `part`, each acknowledged except every
    /// `refuse_every`-th write (0: none refused). Returns every op with
    /// whether it was acknowledged.
    fn run(seed: u64, shape: Shape, part: u64, refuse_every: usize) -> Vec<(Op, bool)> {
        let mut s = Stream::new(seed, shape, part, 2);
        let mut writes = 0;
        (0..20_000)
            .map(|_| {
                let op = s.next_op();
                let mut acked = true;
                if op.effect().is_some() {
                    writes += 1;
                    acked = refuse_every == 0 || writes % refuse_every != 0;
                }
                if acked {
                    s.acknowledged(&op);
                }
                (op, acked)
            })
            .collect()
    }

    fn ops(seed: u64, shape: Shape, part: u64) -> Vec<Op> {
        run(seed, shape, part, 0)
            .into_iter()
            .map(|(op, _)| op)
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_streams() {
        for (a, b) in shapes(42).into_iter().zip(shapes(42)) {
            assert_eq!(ops(42, a, 1), ops(42, b, 1));
        }
        assert_eq!(churn_present(42, 5_000, 400), churn_present(42, 5_000, 400));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for (a, b) in shapes(42).into_iter().zip(shapes(43)) {
            assert_ne!(ops(42, a, 1), ops(43, b, 1));
        }
        assert_ne!(churn_present(42, 5_000, 400), churn_present(43, 5_000, 400));
    }

    #[test]
    fn partitions_never_write_the_same_key() {
        for part in 0..2 {
            for op in ops(9, Shape::WireOltp { keys: 10_000 }, part) {
                if let Op::Put { key, .. } = op {
                    assert_eq!(key % 2, part);
                }
            }
        }
    }

    /// Replays a churn stream against a set of the present keys, applying
    /// only acknowledged writes: no insert may target a present key and no
    /// delete an absent one. Returns (inserts, deletes) issued.
    fn churn_replay(refuse_every: usize) -> (u64, u64) {
        let base = 1 << 20;
        let present = churn_present(5, 5_000, 400);
        let mut live: std::collections::HashSet<u64> = (0..5_000)
            .filter(|&i| present[i as usize])
            .map(|i| base + i)
            .collect();
        let (mut inserts, mut deletes) = (0, 0);
        for (op, acked) in run(5, Shape::churn(base, present), 0, refuse_every) {
            match op {
                Op::Insert { key, .. } => {
                    assert!(key > 0, "key 0 stays untouched");
                    assert!(!live.contains(&key), "insert of present {key}");
                    if acked {
                        live.insert(key);
                    }
                    inserts += 1;
                }
                Op::Delete(key) => {
                    assert!(key >= base, "band keys are never deleted");
                    assert!(live.contains(&key), "delete of absent {key}");
                    if acked {
                        live.remove(&key);
                    }
                    deletes += 1;
                }
                _ => {}
            }
        }
        (inserts, deletes)
    }

    #[test]
    fn churn_writes_never_fail() {
        let (inserts, deletes) = churn_replay(0);
        assert!(inserts > 5_000 && deletes > 1_000);
    }

    #[test]
    fn refused_churn_writes_leave_presence_unchanged() {
        let (inserts, deletes) = churn_replay(7);
        assert!(inserts > 5_000 && deletes > 1_000);
    }

    #[test]
    fn values_round_trip_and_reject_other_keys() {
        let v = value(77, 3);
        assert_eq!(v.len(), VALUE_LEN);
        assert_eq!(decode(77, &v), Some(3));
        assert_eq!(decode(78, &v), None);
    }
}
