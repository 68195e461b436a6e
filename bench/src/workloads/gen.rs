//! Seeded inputs of the five workloads. Sizes are constants here, not
//! flags: a result is comparable only with results of the same sizes, so
//! the only size switch is `quick`, and quick results are marked
//! non-comparable.
//!
//! The program sees only these inputs, never the seed, and the same seed
//! gives the same inputs ([`fnv`] hashes pin that in the tests).

use crate::adapter::{planted_dense, power_law, KruskalModel, Matrix, SparseTensor, NELL2, YELP};

/// The harness's own generator (splitmix64), so query streams and
/// shuffles do not move when the program's RNG does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at these `n`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over a byte stream: the input fingerprints of the self-tests
/// and of every result file.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u32s(&mut self, v: &[u32]) {
        for x in v {
            self.bytes(&x.to_le_bytes());
        }
    }

    pub fn f64s(&mut self, v: &[f64]) {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn hash_tensor(t: &SparseTensor) -> u64 {
    let mut h = Fnv::default();
    for m in 0..t.order() {
        h.u32s(t.ind(m));
    }
    h.f64s(t.vals());
    h.finish()
}

// ---------------------------------------------------------------- cpd_*

/// Paper protocol: rank 35, exactly 20 iterations (tolerance 0).
pub const CPD_RANK: usize = 35;
pub const CPD_ITERS: usize = 20;
const CPD_QUICK_ITERS: usize = 4;

/// NELL-2 at 1/25: 480 x 360 x 1160, 3.08M nonzeros.
const NELL2_SCALE: f64 = 1.0 / 25.0;
const NELL2_QUICK_SCALE: f64 = 1.0 / 250.0;

/// YELP's dims / 3 with 600k nonzeros: mode 0 (13666 rows) exceeds
/// 0.02 * nnz, so its leaf kernel takes the lock path even at one task.
const YELP_DIMS: [usize; 3] = [YELP.dims[0] / 3, YELP.dims[1] / 3, YELP.dims[2] / 3];
const YELP_NNZ: usize = 600_000;
const YELP_QUICK_DIMS: [usize; 3] = [1_366, 366, 2_500];
const YELP_QUICK_NNZ: usize = 60_000;

pub fn cpd_iters(quick: bool) -> usize {
    if quick {
        CPD_QUICK_ITERS
    } else {
        CPD_ITERS
    }
}

pub fn nell2_tensor(seed: u64, quick: bool) -> SparseTensor {
    NELL2.generate(
        if quick {
            NELL2_QUICK_SCALE
        } else {
            NELL2_SCALE
        },
        seed,
    )
}

pub fn yelp_tensor(seed: u64, quick: bool) -> SparseTensor {
    if quick {
        power_law(&YELP_QUICK_DIMS, YELP_QUICK_NNZ, YELP.skew, seed)
    } else {
        power_law(&YELP_DIMS, YELP_NNZ, YELP.skew, seed)
    }
}

// ------------------------------------------------------- refresh_stream

pub type Entry = (Vec<u32>, f64);

/// Entries per delta record (one WAL commit each).
pub const RECORD_ENTRIES: usize = 1024;
pub const REFRESH_RANK: usize = 16;

/// Shape of the delta stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    pub dims: [usize; 3],
    /// Records that arrive as deltas; the rest of the tensor is the base.
    pub delta_records: usize,
    /// Timed refresh rounds the delta records are split evenly over.
    pub rounds: usize,
}

/// 128 x 100 x 80 = 1000 records; 760 are the base (76 %), 240 arrive in
/// 16 rounds of 15.
const STREAM: StreamShape = StreamShape {
    dims: [128, 100, 80],
    delta_records: 240,
    rounds: 16,
};
const STREAM_QUICK: StreamShape = StreamShape {
    dims: [64, 50, 32],
    delta_records: 24,
    rounds: 4,
};
const PLANTED_RANK: usize = 8;
const PLANTED_NOISE: f64 = 0.1;

pub struct Stream {
    pub shape: StreamShape,
    /// The whole planted tensor, shuffled, cut into 1024-entry records.
    pub records: Vec<Vec<Entry>>,
    /// The first `records.len() - delta_records` records, merged.
    pub base: SparseTensor,
}

impl Stream {
    /// The records that arrive after the base.
    pub fn deltas(&self) -> &[Vec<Entry>] {
        &self.records[self.records.len() - self.shape.delta_records..]
    }

    pub fn nnz(&self) -> usize {
        self.records.iter().map(Vec::len).sum()
    }

    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for (coord, v) in self.records.iter().flatten() {
            h.u32s(coord);
            h.f64s(&[*v]);
        }
        h.finish() ^ hash_tensor(&self.base)
    }
}

pub fn refresh_stream(seed: u64, quick: bool) -> Stream {
    let shape = if quick { STREAM_QUICK } else { STREAM };
    let (tensor, _truth) = planted_dense(&shape.dims, PLANTED_RANK, PLANTED_NOISE, seed);
    let mut entries = tensor.canonical_entries();
    let mut rng = SplitMix64::new(seed ^ 0x5EED_DE17);
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.below(i + 1));
    }
    let records: Vec<Vec<Entry>> = entries.chunks(RECORD_ENTRIES).map(<[_]>::to_vec).collect();
    assert!(records.len() > shape.delta_records);
    let mut base = SparseTensor::new(shape.dims.to_vec());
    let base_entries: Vec<Entry> = records[..records.len() - shape.delta_records].concat();
    base.merge_entries(&base_entries);
    Stream {
        shape,
        records,
        base,
    }
}

// -------------------------------------------------------------- serve_*

pub const SERVE_RANK: usize = 16;
const SERVE_DIMS: [usize; 3] = [16_384, 128, 96];
const SERVE_QUICK_DIMS: [usize; 3] = [2_048, 64, 48];
pub const TOPK_K: u32 = 10;

/// Per-client query-list lengths; a client that exhausts its list starts
/// over (Entry answers are never cached, and the scan key set is 8x the
/// LRU, so wrapping changes nothing).
const POINT_QUERIES: usize = 60_000;
const SCAN_QUERIES: usize = 3_000;

/// 20 % of scan requests draw from `SCAN_HOT` keys, 80 % from
/// `SCAN_COLD`; the engine's LRU holds `SCAN_CACHE` results.
const SCAN_HOT: usize = 64;
const SCAN_COLD: usize = 2_048;
const SCAN_HOT_SHARE: f64 = 0.2;
pub const SCAN_CACHE: usize = 256;
/// Of every ten keys, three are Slice and seven TopK.
const SLICE_KEYS_IN_TEN: usize = 3;

pub fn serve_model(seed: u64, quick: bool) -> KruskalModel {
    let dims = if quick { SERVE_QUICK_DIMS } else { SERVE_DIMS };
    let mut rng = SplitMix64::new(seed ^ 0x001A_3BDA);
    KruskalModel {
        lambda: (0..SERVE_RANK).map(|_| 0.5 + rng.unit()).collect(),
        factors: dims
            .iter()
            .enumerate()
            .map(|(m, &d)| Matrix::random(d, SERVE_RANK, seed.wrapping_add(m as u64)))
            .collect(),
    }
}

/// One query, in a form every depth (kernel, engine, wire) can be built
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Q {
    Entry([u32; 3]),
    /// Top-k over mode 0 with modes 1, 2 fixed.
    TopK([u32; 2]),
    /// The mode-0 slice at this index.
    Slice(u32),
}

/// A client's query list: `keys` are the distinct queries, `order[i]`
/// indexes the key of the i-th request.
#[derive(Debug, Clone)]
pub struct QueryList {
    pub keys: Vec<Q>,
    pub order: Vec<u32>,
}

impl QueryList {
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for &i in &self.order {
            match self.keys[i as usize] {
                Q::Entry(c) => h.u32s(&c),
                Q::TopK(f) => h.u32s(&[1, f[0], f[1]]),
                Q::Slice(i) => h.u32s(&[2, i]),
            }
        }
        h.finish()
    }
}

fn dims_of(model: &KruskalModel) -> [usize; 3] {
    [
        model.factors[0].rows(),
        model.factors[1].rows(),
        model.factors[2].rows(),
    ]
}

/// Uniform single-coordinate queries, all distinct keys.
pub fn point_queries(model: &KruskalModel, seed: u64, client: u64, quick: bool) -> QueryList {
    let dims = dims_of(model);
    let n = if quick {
        POINT_QUERIES / 20
    } else {
        POINT_QUERIES
    };
    let mut rng = SplitMix64::new(seed ^ (0x00C1_1E47 + client));
    let keys = (0..n)
        .map(|_| Q::Entry([0, 1, 2].map(|m| rng.below(dims[m]) as u32)))
        .collect();
    QueryList {
        keys,
        order: (0..n as u32).collect(),
    }
}

/// The scan key set, shared by all clients: hot keys first, then cold.
/// Keys are distinct (a stride coprime to the cell count walks the fixed
/// coordinates), so the working set is exactly `SCAN_HOT + SCAN_COLD`.
pub fn scan_keys(model: &KruskalModel, seed: u64) -> Vec<Q> {
    const STRIDE: usize = 7919;
    let dims = dims_of(model);
    let cells = dims[1] * dims[2];
    assert!(!cells.is_multiple_of(STRIDE) && SCAN_HOT + SCAN_COLD <= cells.min(dims[0] * 10));
    let mut rng = SplitMix64::new(seed ^ 0x5CA9_4E15);
    let (row0, cell0) = (rng.below(dims[0]), rng.below(cells));
    (0..SCAN_HOT + SCAN_COLD)
        .map(|i| {
            if i % 10 < SLICE_KEYS_IN_TEN {
                Q::Slice(((row0 + i) % dims[0]) as u32)
            } else {
                let cell = (cell0 + i * STRIDE) % cells;
                Q::TopK([(cell / dims[2]) as u32, (cell % dims[2]) as u32])
            }
        })
        .collect()
}

/// One client's hot/cold request order over [`scan_keys`].
pub fn scan_queries(keys: Vec<Q>, seed: u64, client: u64, quick: bool) -> QueryList {
    let n = if quick {
        SCAN_QUERIES / 10
    } else {
        SCAN_QUERIES
    };
    let mut rng = SplitMix64::new(seed ^ (0x5CA9_0DE5 + client));
    let order = (0..n)
        .map(|_| {
            if rng.unit() < SCAN_HOT_SHARE {
                rng.below(SCAN_HOT) as u32
            } else {
                (SCAN_HOT + rng.below(SCAN_COLD)) as u32
            }
        })
        .collect();
    QueryList { keys, order }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed, same input — and another seed, another input — for all
    /// five generators (quick sizes: the code path is the same).
    #[test]
    fn same_seed_same_input_for_all_five_generators() {
        let fingerprints = |seed: u64| -> [u64; 5] {
            let model = serve_model(seed, true);
            [
                hash_tensor(&nell2_tensor(seed, true)),
                hash_tensor(&yelp_tensor(seed, true)),
                refresh_stream(seed, true).hash(),
                point_queries(&model, seed, 0, true).hash(),
                scan_queries(scan_keys(&model, seed), seed, 0, true).hash(),
            ]
        };
        let a = fingerprints(7);
        assert_eq!(a, fingerprints(7));
        let b = fingerprints(8);
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x, y, "a different seed must give a different input");
        }
        // the two clients of one run get different streams
        let model = serve_model(7, true);
        assert_ne!(
            point_queries(&model, 7, 0, true).hash(),
            point_queries(&model, 7, 1, true).hash()
        );
    }

    #[test]
    fn stream_shape_is_as_documented() {
        let s = refresh_stream(3, true);
        let cells: usize = s.shape.dims.iter().product();
        assert_eq!(s.nnz(), cells);
        assert_eq!(s.records.len(), cells / RECORD_ENTRIES);
        assert_eq!(s.deltas().len(), s.shape.delta_records);
        assert_eq!(s.shape.delta_records % s.shape.rounds, 0);
        assert_eq!(
            s.base.nnz(),
            (s.records.len() - s.shape.delta_records) * RECORD_ENTRIES
        );
        let full = STREAM;
        let records = full.dims.iter().product::<usize>() / RECORD_ENTRIES;
        assert_eq!(records, 1000);
        assert_eq!(full.delta_records % full.rounds, 0);
    }

    #[test]
    fn scan_key_set_has_the_documented_mix() {
        let model = serve_model(5, false);
        let keys = scan_keys(&model, 5);
        assert_eq!(keys.len(), SCAN_HOT + SCAN_COLD);
        let slices = keys.iter().filter(|k| matches!(k, Q::Slice(_))).count();
        assert!((slices as f64 / keys.len() as f64 - 0.3).abs() < 0.01);
        assert!(keys.len() >= 8 * SCAN_CACHE);
        let list = scan_queries(keys, 5, 0, false);
        let hot = list
            .order
            .iter()
            .filter(|&&i| (i as usize) < SCAN_HOT)
            .count();
        assert!((hot as f64 / list.order.len() as f64 - SCAN_HOT_SHARE).abs() < 0.03);
    }
}
