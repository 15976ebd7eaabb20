//! Reading the program's own run report: the JSON that `GET /stats` serves
//! and `--report-json` writes (schema in `structmine_store::obs`).

use serde::Value;

use crate::report::Outcome;
use std::collections::BTreeMap;

/// Member `key` of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// One node of the span tree, flattened: its label path, close count and
/// total wall time.
#[derive(Clone, Debug)]
pub struct Span {
    pub path: Vec<String>,
    pub count: u64,
    pub wall_ms: f64,
}

/// Counters and spans of one report.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    pub counters: BTreeMap<String, u64>,
    pub spans: Vec<Span>,
}

impl RunReport {
    pub fn parse(json: &str) -> Result<RunReport, String> {
        let root = structmine_store::obs::validate_report(json)?;
        let mut out = RunReport::default();
        if let Some(Value::Map(entries)) = field(&root, "counters") {
            for (k, v) in entries {
                if let Value::UInt(n) = v {
                    out.counters.insert(k.clone(), *n);
                }
            }
        }
        let spans = field(&root, "spans").ok_or("report has no spans")?;
        if let Some(tree) = field(spans, "tree") {
            flatten(tree, &mut Vec::new(), &mut out.spans);
        }
        Ok(out)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Wall time and count of the spans labelled `label`, wherever they
    /// sit in the tree.
    pub fn span_total(&self, label: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.path.last().is_some_and(|l| l == label))
            .fold((0.0, 0), |(ms, n), s| (ms + s.wall_ms, n + s.count))
    }

    /// `self - earlier`: counters and span totals accrued in between two
    /// snapshots of one process.
    pub fn since(&self, earlier: &RunReport) -> RunReport {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let before = earlier.spans.iter().find(|e| e.path == s.path);
                Span {
                    path: s.path.clone(),
                    count: s.count - before.map_or(0, |e| e.count.min(s.count)),
                    wall_ms: s.wall_ms - before.map_or(0.0, |e| e.wall_ms),
                }
            })
            .collect();
        RunReport { counters, spans }
    }

    /// Figures read from a run report: `self` holds what accrued while
    /// `docs` documents were measured, `whole` the process's totals (set-up
    /// included).
    pub fn set_metrics(&self, out: &mut Outcome, whole: &RunReport, docs: f64) {
        let hits = self.counter("linalg.prepack.hits") as f64;
        let builds = self.counter("linalg.prepack.builds") as f64;
        out.set("linalg.prepack_hit_share", hits / (hits + builds).max(1.0));
        out.set(
            "linalg.pack_panels_per_doc",
            self.counter("linalg.pack_panels") as f64 / docs,
        );
        let calls = self.counter("exec.par_calls") as f64;
        out.set("exec.par_calls", calls);
        out.set(
            "exec.items_per_call",
            self.counter("exec.par_items") as f64 / calls.max(1.0),
        );
        let secs = |label: &str| whole.span_total(label).0 / 1e3;
        out.set("plm.pretrain_s", secs("plm/pretrain"));
        out.set("plm.adapt_s", secs("plm/adapt"));
        out.set("plm.encode_corpus_s", secs("plm/encode-corpus"));
        out.set("core.westclass_train_s", secs("westclass/train"));
        // The X-Class pipeline: `xclass/predict` in the tables, and the
        // serving rule's `xclass/fit-model` (class reps, align, classifier).
        out.set(
            "core.xclass_predict_s",
            secs("xclass/predict") + secs("xclass/fit-model"),
        );
        out.set("embed.sgns_s", secs("embed/sgns-word-vectors"));
        out.set("store.misses", whole.counter("store.misses") as f64);
        out.set(
            "store.disk_writes",
            whole.counter("store.disk_writes") as f64,
        );
    }
}

fn flatten(nodes: &Value, prefix: &mut Vec<String>, out: &mut Vec<Span>) {
    let Value::Seq(nodes) = nodes else { return };
    for node in nodes {
        let Some(Value::Str(label)) = field(node, "label") else {
            continue;
        };
        prefix.push(label.clone());
        out.push(Span {
            path: prefix.clone(),
            count: field(node, "count").and_then(as_f64).unwrap_or(0.0) as u64,
            wall_ms: field(node, "wall_ms").and_then(as_f64).unwrap_or(0.0),
        });
        if let Some(children) = field(node, "children") {
            flatten(children, prefix, out);
        }
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{"schema_version":1,"binary":"t","created_unix_ms":1,
        "config":{"fingerprint":"00000000000000000000000000000000","env":{}},
        "counters":{"serve.docs":40,"serve.batches":4},
        "spans":{"total_wall_ms":10.0,"attributed_ms":6.0,"tree":[
          {"label":"serve/batch-classify","count":4,"wall_ms":6.0,"threads":[1],"children":[
            {"label":"engine/classify","count":4,"wall_ms":5.5,"threads":[1],"children":[]}]}]}}"#;

    #[test]
    fn parses_counters_and_nested_spans() {
        let r = RunReport::parse(REPORT).unwrap();
        assert_eq!(r.counter("serve.docs"), 40);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.span_total("engine/classify"), (5.5, 4));
        assert_eq!(r.spans[1].path, ["serve/batch-classify", "engine/classify"]);
        let d = r.since(&RunReport::default());
        assert_eq!(d.span_total("serve/batch-classify"), (6.0, 4));
    }
}
