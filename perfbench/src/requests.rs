//! The seeded request sequence of the serving phases.
//!
//! Request `i` of seed `s` is a pure function of `(s, i)`, so every
//! protocol (and the in-process replay) walks exactly the same sequence
//! from index 0 without storing it. Requests come in blocks of
//! [`BLOCK`]: one range and `BLOCK - 1` point lookups, with the range's
//! slot inside each block drawn from the seed. Offsets are uniform over
//! the target table.

/// Requests per block: one range, then four points (in seeded order).
pub const BLOCK: u64 = 5;

/// Rows per range request.
pub const RANGE_ROWS: u64 = 2000;

/// One serving request: rows `start..start + rows` of the target table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// First row.
    pub start: u64,
    /// Row count: [`RANGE_ROWS`] for ranges, 1 for points.
    pub rows: u64,
}

impl Request {
    /// True for a single-row point lookup.
    pub fn is_point(&self) -> bool {
        self.rows == 1
    }
}

/// SplitMix64 finalizer: the benchmark's own mixer, independent of the
/// program's PRNG so a change there cannot reshape the benchmark inputs.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(splitmix(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)) ^ index)
}

/// The seeded request sequence over a table of `table_rows` rows
/// (which must exceed [`RANGE_ROWS`]).
#[derive(Debug, Clone, Copy)]
pub struct Sequence {
    seed: u64,
    table_rows: u64,
}

impl Sequence {
    /// Sequence for `seed` over a table of `table_rows` rows.
    pub fn new(seed: u64, table_rows: u64) -> Self {
        assert!(table_rows > RANGE_ROWS + 2, "table too small for the mix");
        Self { seed, table_rows }
    }

    /// Request `i`. Ranges start uniformly in `0..=rows - RANGE_ROWS`.
    /// Points avoid the first and last row, whose whole-table framing a
    /// one-row reference run would include but a point lookup omits.
    pub fn get(&self, i: u64) -> Request {
        let block = i / BLOCK;
        let range_slot = draw(self.seed, 1, block) % BLOCK;
        let offset = draw(self.seed, 2, i);
        if i % BLOCK == range_slot {
            Request {
                start: offset % (self.table_rows - RANGE_ROWS + 1),
                rows: RANGE_ROWS,
            }
        } else {
            Request {
                start: 1 + offset % (self.table_rows - 2),
                rows: 1,
            }
        }
    }

    /// Whether request `i`'s response is kept for the byte-equality
    /// check: a seeded one-in-`every` sample.
    pub fn sampled(&self, i: u64, every: u64) -> bool {
        draw(self.seed, 3, i).is_multiple_of(every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let a = Sequence::new(7, 6_000_000);
        let b = Sequence::new(7, 6_000_000);
        for i in 0..10_000 {
            assert_eq!(a.get(i), b.get(i));
            assert_eq!(a.sampled(i, 8), b.sampled(i, 8));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Sequence::new(1, 6_000_000);
        let b = Sequence::new(2, 6_000_000);
        let same = (0..1000).filter(|&i| a.get(i) == b.get(i)).count();
        assert!(same < 10, "{same} of 1000 requests coincide across seeds");
    }

    #[test]
    fn one_range_per_block_inside_the_table() {
        let rows = 60_000;
        let s = Sequence::new(42, rows);
        for block in 0..2000 {
            let reqs: Vec<Request> = (0..BLOCK).map(|k| s.get(block * BLOCK + k)).collect();
            assert_eq!(reqs.iter().filter(|r| !r.is_point()).count(), 1);
            for r in reqs {
                assert!(r.start + r.rows <= rows);
                if r.is_point() {
                    assert!(r.start >= 1 && r.start < rows - 1);
                }
            }
        }
        let sampled = (0..80_000).filter(|&i| s.sampled(i, 8)).count();
        assert!((9_000..11_000).contains(&sampled), "{sampled}");
    }
}
