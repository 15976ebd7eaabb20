//! The metric catalog and the result line the benchmark prints last.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("docs_per_s", "1/s"),
    ("fit_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// workload that bypasses a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.request_ms", "ms"),
    ("serve.outside_ms", "ms"),
    ("serve.batch_wait_ms", "ms"),
    ("serve.flush_deadline_share", "share"),
    ("serve.batch_docs_mean", "count"),
    ("serve.rejections", "count"),
    ("serve.timeouts", "count"),
    ("engine.classify_ms", "ms"),
    ("engine.head_ms", "ms"),
    ("textkit.tokenize_ms", "ms"),
    ("textkit.unk_share", "share"),
    ("plm.encode_ms", "ms"),
    ("plm.tokens_per_s", "1/s"),
    ("plm.pretrain_s", "s"),
    ("plm.adapt_s", "s"),
    ("plm.encode_corpus_s", "s"),
    ("linalg.gemm_ms", "ms"),
    ("linalg.gemm_gflops.exact", "GFLOP/s"),
    ("linalg.gemm_gflops.fast", "GFLOP/s"),
    ("linalg.computed_gemm_flop_per_doc", "flop"),
    ("linalg.computed_gemm_bytes_per_doc", "B"),
    ("linalg.prepack_hit_share", "share"),
    ("linalg.pack_panels_per_doc", "count"),
    ("exec.par_calls", "count"),
    ("exec.items_per_call", "count"),
    ("core.westclass_train_s", "s"),
    ("core.xclass_predict_s", "s"),
    ("embed.sgns_s", "s"),
    ("store.misses", "count"),
    ("store.disk_writes", "count"),
    ("store.bytes_written", "B"),
    ("proc.cpu_ms_per_doc", "ms"),
    ("proc.cpu_util", "cores"),
    ("gen.late_p99_ms", "ms"),
    ("gen.sent", "count"),
    ("gen.ok", "count"),
    ("gen.failed", "count"),
    ("failed_frac", "share"),
    ("trace.overhead", "share"),
    ("trace.coverage", "share"),
];

/// What one run did: operations attempted and failed, and its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Count `n` operations, `bad` of which failed.
    pub fn tally(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The result line: `catalog` metrics only, each of which must be set.
    pub fn to_json(&self, catalog: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(catalog.len());
        for &(name, unit) in catalog {
            let value = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Shortest round-trip decimal of `v`, always with a fraction or exponent
/// so JSON readers see a number as measured.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runreport::field;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let distinct: std::collections::BTreeSet<&&str> = all.iter().collect();
        assert_eq!(distinct.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc: serde::Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(serde::Value::Seq(items)) = field(&doc, key) else {
                panic!("{key} is not a list")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| match field(m, k) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        _ => panic!("{key} entry lacks {k}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_requires_every_catalog_metric() {
        let mut out = Outcome::default();
        out.tally(3, 0);
        out.set("setup_s", 0.25);
        assert!(out.to_json(&[("setup_s", "s"), ("fit_s", "s")]).is_err());
        out.set("fit_s", 2.0);
        assert_eq!(
            out.to_json(&[("setup_s", "s"), ("fit_s", "s")]).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"fit_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
