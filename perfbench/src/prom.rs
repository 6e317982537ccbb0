//! Prometheus text snapshots of `/metrics`: parsing and deltas between two
//! snapshots.

use std::collections::BTreeMap;

/// One scrape: full sample key (`name{labels}`) → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot(pub BTreeMap<String, f64>);

impl Snapshot {
    /// Parses the text format, skipping comments and blank lines.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut samples = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("sample line without a value: {line:?}"))?;
            let value: f64 = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                other => other
                    .parse()
                    .map_err(|_| format!("bad sample value in {line:?}"))?,
            };
            samples.insert(key.to_string(), value);
        }
        Ok(Self(samples))
    }

    /// A sample by its full key; absent samples read as 0 (counters that
    /// were never touched are not rendered by every family).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `self − before`, sample by sample (samples new in `self` count from 0).
    pub fn delta(&self, before: &Snapshot) -> Snapshot {
        Snapshot(
            self.0
                .iter()
                .map(|(key, value)| (key.clone(), value - before.get(key)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# HELP ayd_cache_hits_total Evaluation-cache hits.\n\
        # TYPE ayd_cache_hits_total counter\n\
        ayd_cache_hits_total 10\n\
        ayd_requests_total{endpoint=\"optimize\",status=\"200\"} 5\n\
        lat_bucket{le=\"+Inf\"} 1\n\
        lat_sum 0.5\n";
    const AFTER: &str = "ayd_cache_hits_total 110\n\
        ayd_requests_total{endpoint=\"optimize\",status=\"200\"} 25\n\
        ayd_requests_total{endpoint=\"batch\",status=\"200\"} 3\n\
        lat_bucket{le=\"+Inf\"} 101\n\
        lat_sum 0.75\n";

    #[test]
    fn parses_and_deltas() {
        let before = Snapshot::parse(BEFORE).unwrap();
        let after = Snapshot::parse(AFTER).unwrap();
        let delta = after.delta(&before);
        assert_eq!(delta.get("ayd_cache_hits_total"), 100.0);
        assert_eq!(
            delta.get("ayd_requests_total{endpoint=\"optimize\",status=\"200\"}"),
            20.0
        );
        // A sample new since the first scrape counts from zero.
        assert_eq!(
            delta.get("ayd_requests_total{endpoint=\"batch\",status=\"200\"}"),
            3.0
        );
        assert_eq!(delta.get("absent_total"), 0.0);
        assert_eq!(delta.get("lat_bucket{le=\"+Inf\"}"), 100.0);
        assert_eq!(delta.get("lat_sum"), 0.25);
        assert!(Snapshot::parse("no_value_here").is_err());
    }
}
