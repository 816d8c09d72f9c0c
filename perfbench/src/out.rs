//! The metric catalogue (it mirrors `BENCHMARK.json`; a test keeps the
//! two in step) and the result line.

use bbncg_serve::http::json_escape;

/// End-to-end metrics: printed by every untraced run, every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("activations_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("latency_p50_ms.low", "ms"),
    ("latency_p90_ms.low", "ms"),
    ("latency_p50_ms.mid", "ms"),
    ("latency_p90_ms.mid", "ms"),
    ("max_ok_rate_rps", "1/s"),
    ("ok_share", "share"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: printed by every traced run, every workload. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.dynamics_ms", "ms"),
    ("scenario.event_ms", "ms"),
    ("scenario.sink_ms", "ms"),
    ("scenario.phases", "count"),
    ("round.evals", "count"),
    ("round.commits", "count"),
    ("round.discards", "count"),
    ("round.commit_rate", "share"),
    ("round.overhead_ms", "ms"),
    ("br.activations", "count"),
    ("br.busy_ms", "ms"),
    ("br.activation_us_p50", "us"),
    ("br.activation_us_p90", "us"),
    ("kernel.begin_us_p50", "us"),
    ("kernel.priced", "count"),
    ("kernel.pruned", "count"),
    ("kernel.prune_hit_rate", "share"),
    ("kernel.priced_per_activation", "count"),
    ("kernel.price_ns", "ns"),
    ("kernel.base_bfs", "count"),
    ("sweep.seed_ms_p50", "ms"),
    ("sweep.seed_ms_max", "ms"),
    ("sweep.utilization", "share"),
    ("serve.receipt_ms_p50", "ms"),
    ("serve.receipt_ms_p90", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.stream_ms_p50", "ms"),
    ("serve.cache_hit_share", "share"),
    ("serve.cache_coalesced", "count"),
    ("serve.rejected_429", "count"),
    ("serve.keepalive_reuse_share", "share"),
    ("serve.worker_busy_share", "share"),
    ("serve.http_submit_us_p90", "us"),
    ("serve.http_stream_us_p90", "us"),
    ("verify.audit_ms_p50", "ms"),
    ("loadgen.lag_ms_p90", "ms"),
    ("trace.overhead_share", "share"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Host/config facts printed on the line before the result.
    pub fingerprint: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.fingerprint.push((key.to_string(), value.to_string()));
    }

    pub fn fingerprint_line(&self) -> String {
        let fields: Vec<String> = self
            .fingerprint
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
            .collect();
        format!("{{\"fingerprint\":{{{}}}}}", fields.join(","))
    }

    /// The result line: metrics in catalogue order, each with its unit.
    /// A metric the run could not measure is left out, and that is an
    /// error: the caller then exits non-zero.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::new();
        for &(name, unit) in catalogue {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(",")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbncg_report::json;

    /// The entries of one array-valued section of `BENCHMARK.json`.
    fn section(name: &str) -> Vec<json::Json> {
        let text = include_str!("../../BENCHMARK.json");
        match json::parse(text).expect("BENCHMARK.json parses").get(name) {
            Some(json::Json::Arr(items)) => items.clone(),
            _ => panic!("BENCHMARK.json has no array {name}"),
        }
    }

    fn declared(name: &str) -> Vec<(String, String)> {
        section(name)
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn printed_names_and_units_match_benchmark_json() {
        for (catalogue, section) in [(END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")] {
            let mut out = Outcome {
                correct: true,
                attempted: 1,
                ..Outcome::default()
            };
            for (i, &(name, _)) in catalogue.iter().enumerate() {
                out.set(name, 1.5 + i as f64);
            }
            let line = json::parse(&out.result_line(catalogue).unwrap()).unwrap();
            let printed: Vec<(String, String)> = match line.get("metrics").unwrap() {
                json::Json::Obj(fields) => fields
                    .iter()
                    .map(|(k, v)| (k.clone(), v.get("unit").unwrap().as_str().unwrap().into()))
                    .collect(),
                _ => panic!("metrics is not an object"),
            };
            assert_eq!(printed, declared(section));
        }
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let names: Vec<String> = section("workloads")
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn an_unmeasured_metric_is_an_error() {
        let out = Outcome::default();
        assert!(out.result_line(END_TO_END).is_err());
    }
}
