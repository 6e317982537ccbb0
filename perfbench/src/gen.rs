//! Seeded input generator. Every request body, grid and batch the benchmark
//! sends is a pure function of the workload seed (and an index), so the same
//! seed replays byte-identical inputs; the server only ever sees these
//! generated bodies.

use std::collections::HashSet;

/// SplitMix64: a small, fast, well-mixed generator. Enough for input
/// generation; nothing here needs cryptographic quality.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for item `index` of stream `stream` under `seed`, so any
    /// item of a stream can be regenerated without replaying its prefix.
    pub fn for_item(seed: u64, stream: u64, index: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.0 ^= rng.next_u64() ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Log-uniform in `[lo, hi)`.
    pub fn log_range(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * self.unit()).exp()
    }
}

/// Rounds to `digits` significant digits, so bodies stay short while distinct
/// draws stay distinct far beyond the cache key's quantization.
pub fn round_sig(x: f64, digits: i32) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let scale = 10f64.powi(digits - 1 - x.abs().log10().floor() as i32);
    (x * scale).round() / scale
}

pub const PLATFORMS: [&str; 4] = ["Hera", "Atlas", "Coastal", "Coastal SSD"];
pub const FAMILIES: [&str; 4] = ["amdahl", "powerlaw", "gustafson", "perfect"];

/// One generated `/v1/optimize` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub body: String,
    /// Sent with `Accept: text/csv`.
    pub csv: bool,
}

/// A profile value: a spec string for even draws, an object for odd ones, so
/// both request forms are exercised.
fn profile_json(family: usize, rng: &mut Rng) -> String {
    let (kind, param) = match FAMILIES[family] {
        "amdahl" => (
            "amdahl",
            Some(("alpha", round_sig(rng.log_range(1e-4, 0.5), 6))),
        ),
        "powerlaw" => (
            "powerlaw",
            Some(("sigma", round_sig(rng.range(0.3, 0.99), 6))),
        ),
        "gustafson" => (
            "gustafson",
            Some(("alpha", round_sig(rng.log_range(1e-3, 0.5), 6))),
        ),
        _ => ("perfect", None),
    };
    match (rng.next_u64() & 1 == 0, param) {
        (true, Some((_, value))) => format!("\"{kind}:{value}\""),
        (true, None) => format!("\"{kind}\""),
        (false, Some((name, value))) => format!("{{\"kind\":\"{kind}\",\"{name}\":{value}}}"),
        (false, None) => format!("{{\"kind\":\"{kind}\"}}"),
    }
}

/// Query `index` of a stream: platform, scenario and profile family cycle so
/// that every 96 consecutive queries cover all 4 × 6 × 4 combinations; odd
/// indices fix the processor count, and every eighth query asks for CSV.
fn query(seed: u64, stream: u64, index: u64) -> Query {
    let mut rng = Rng::for_item(seed, stream, index);
    let i = index as usize;
    let platform = PLATFORMS[i % 4];
    let scenario = (i / 4) % 6 + 1;
    let profile = profile_json((i / 24) % 4, &mut rng);
    let multiplier = round_sig(rng.log_range(0.25, 20.0), 9);
    let mut body = format!(
        "{{\"platform\":\"{platform}\",\"scenario\":{scenario},\"profile\":{profile},\"lambda_multiplier\":{multiplier}"
    );
    if i % 2 == 1 {
        let processors = rng.log_range(16.0, 1_048_576.0).round();
        body.push_str(&format!(",\"processors\":{processors}"));
    }
    body.push('}');
    Query {
        body,
        csv: i % 8 == 7,
    }
}

const WARM_STREAM: u64 = 1;
const COLD_STREAM: u64 = 2;
const BATCH_STREAM: u64 = 3;
const GRID_STREAM: u64 = 4;

/// The warm set: `count` distinct queries (duplicates are redrawn).
pub fn warm_queries(seed: u64, count: usize) -> Vec<Query> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut index = 0u64;
    while out.len() < count {
        // A duplicate (in practice never drawn) is redrawn from a far index.
        let slot = out.len() as u64;
        let q = query(seed, WARM_STREAM, slot + (index << 32));
        index += 1;
        if seen.insert(q.body.clone()) {
            out.push(q);
            index = 0;
        }
    }
    out
}

/// Query `index` of the never-repeating cold stream (JSON only: the cold
/// workload measures search and eviction, not rendering).
pub fn cold_query(seed: u64, index: u64) -> String {
    query(seed, COLD_STREAM, index).body
}

/// Query `index` of the batch stream.
pub fn batch_query(seed: u64, index: u64) -> String {
    query(seed, BATCH_STREAM, index).body
}

/// A `/v1/batch` body of the stream's queries `from..from + count`.
pub fn batch_body(seed: u64, stream_cold: bool, from: u64, count: u64) -> String {
    let mut body = String::from("{\"queries\":[");
    for k in 0..count {
        if k > 0 {
            body.push(',');
        }
        let q = if stream_cold {
            cold_query(seed, from + k)
        } else {
            batch_query(seed, from + k)
        };
        body.push_str(&q);
    }
    body.push_str("]}");
    body
}

/// Cells of the generated sweep grid: 4 platforms × 6 scenarios × 4 profiles
/// × 6 λ multipliers × 6 processor counts × 20 pattern lengths.
pub const GRID_CELLS: usize = 4 * 6 * 4 * 6 * 6 * 20;

/// The generated sweep grid as a `/v1/sweep` body (without `shards`).
pub fn grid_body(seed: u64) -> String {
    grid_body_with(seed, 20)
}

/// The same grid with only its first two pattern lengths
/// ([`GRID_CELLS`] / 10 cells): the probe job of workloads without jobs.
pub fn small_grid_body(seed: u64) -> String {
    grid_body_with(seed, 2)
}

/// Jitter of the grid's axis values around their base values.
const GRID_JITTER: f64 = 0.02;

/// The grid's axes are fixed base values, each moved by a seeded jitter of
/// up to ±2 %: every seed gives a different grid (and different answers)
/// with the same shape — the same searches, the same run-cache reuse, and
/// CSVs of nearly the same size — so the seed varies the inputs without
/// varying the cost of a job, or the memory its retained result takes.
fn grid_body_with(seed: u64, keep_lengths: usize) -> String {
    let mut rng = Rng::for_item(seed, GRID_STREAM, 0);
    let mut jitter = |base: f64| base * rng.range(1.0 - GRID_JITTER, 1.0 + GRID_JITTER);
    let profiles = [
        format!("\"amdahl:{}\"", round_sig(jitter(0.1), 6)),
        format!("\"powerlaw:{}\"", round_sig(jitter(0.8), 6)),
        format!("\"gustafson:{}\"", round_sig(jitter(0.05), 6)),
        "\"perfect\"".to_string(),
    ];
    let multipliers: Vec<f64> = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        .iter()
        .map(|&m| round_sig(jitter(m), 6))
        .collect();
    let processors: Vec<f64> = [128.0, 512.0, 2_048.0, 8_192.0, 32_768.0, 131_072.0]
        .iter()
        .map(|&p| jitter(p).round())
        .collect();
    let lengths: Vec<f64> = (0..keep_lengths)
        .map(|k| round_sig(jitter(600.0 * 144f64.powf(k as f64 / 19.0)), 6))
        .collect();
    let list = |values: &[f64]| {
        values
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"platforms\":[{}],\"scenarios\":[1,2,3,4,5,6],\"profiles\":[{}],\"lambda_multipliers\":[{}],\"processors\":[{}],\"pattern_lengths\":[{}]}}",
        PLATFORMS
            .iter()
            .map(|p| format!("\"{p}\""))
            .collect::<Vec<_>>()
            .join(","),
        profiles.join(","),
        list(&multipliers),
        list(&processors),
        list(&lengths),
    )
}

/// A grid body with a shard count spliced in.
pub fn sharded(grid: &str, shards: usize) -> String {
    format!("{},\"shards\":{shards}}}", &grid[..grid.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        assert_eq!(warm_queries(7, 512), warm_queries(7, 512));
        assert_eq!(grid_body(7), grid_body(7));
        assert_eq!(batch_body(7, false, 100, 16), batch_body(7, false, 100, 16));
        for i in [0, 1, 99_999] {
            assert_eq!(cold_query(7, i), cold_query(7, i));
        }
    }

    #[test]
    fn grids_of_different_seeds_differ_but_keep_their_shape() {
        let (a, b) = (grid_body(7), grid_body(8));
        assert_ne!(a, b);
        let shape = |grid: &str| {
            let doc = ayd_serve::Json::parse(grid).expect("valid JSON");
            [
                "profiles",
                "lambda_multipliers",
                "processors",
                "pattern_lengths",
            ]
            .map(|key| {
                doc.get(key)
                    .and_then(ayd_serve::Json::as_array)
                    .map(<[_]>::len)
            })
        };
        assert_eq!(shape(&a), shape(&b));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(warm_queries(7, 64), warm_queries(8, 64));
        assert_ne!(grid_body(7), grid_body(8));
        assert_ne!(cold_query(7, 5), cold_query(8, 5));
    }

    #[test]
    fn warm_set_is_distinct_and_covers_the_mix() {
        let set = warm_queries(3, 512);
        let distinct: HashSet<&str> = set.iter().map(|q| q.body.as_str()).collect();
        assert_eq!(distinct.len(), 512);
        for name in PLATFORMS.iter().chain(FAMILIES.iter()) {
            assert!(set.iter().any(|q| q.body.contains(name)), "{name} missing");
        }
        let fixed = set.iter().filter(|q| q.body.contains("processors")).count();
        assert_eq!(fixed, 256);
        assert_eq!(set.iter().filter(|q| q.csv).count(), 64);
    }

    #[test]
    fn cold_stream_does_not_repeat() {
        let distinct: HashSet<String> = (0..20_000).map(|i| cold_query(11, i)).collect();
        assert_eq!(distinct.len(), 20_000);
    }

    #[test]
    fn bodies_parse_and_the_grid_has_the_stated_size() {
        for q in warm_queries(5, 96) {
            let json = ayd_serve::Json::parse(&q.body).expect("valid JSON");
            ayd_serve::api::parse_optimize(&json).expect("valid query");
        }
        let grid = ayd_serve::Json::parse(&grid_body(5)).expect("valid JSON");
        let grid = ayd_serve::api::parse_grid(&grid).expect("valid grid");
        assert_eq!(grid.len(), GRID_CELLS);
        let body = sharded(&grid_body(5), 3);
        assert!(body.ends_with(",\"shards\":3}"));
        ayd_serve::Json::parse(&body).expect("valid JSON");
    }
}
