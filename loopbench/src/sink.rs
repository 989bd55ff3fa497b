//! The benchmark's trace sink: keeps only `UtilSample` records, as the
//! JSONL bytes `JsonlSink` writes for them — the stream `rodd` reads.

use std::time::Instant;

use rod_sim::{TraceRecord, TraceSink};

pub struct UtilSampleSink {
    /// JSONL of every kept record.
    pub bytes: Vec<u8>,
    /// Records the engine offered, of every kind.
    pub offered: u64,
    /// When tracing, the start and end of each kept record's encoding.
    pub intervals: Option<Vec<(Instant, Instant)>>,
}

impl UtilSampleSink {
    pub fn new(timed: bool) -> UtilSampleSink {
        UtilSampleSink {
            bytes: Vec::new(),
            offered: 0,
            intervals: timed.then(Vec::new),
        }
    }
}

impl TraceSink for UtilSampleSink {
    fn record(&mut self, record: &TraceRecord) {
        self.offered += 1;
        if !matches!(record, TraceRecord::UtilSample { .. }) {
            return;
        }
        let start = self.intervals.is_some().then(Instant::now);
        let line = serde_json::to_string(record).expect("trace record serialises");
        self.bytes.extend_from_slice(line.as_bytes());
        self.bytes.push(b'\n');
        if let (Some(intervals), Some(start)) = (self.intervals.as_mut(), start) {
            intervals.push((start, Instant::now()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rod_core::cluster::Cluster;
    use rod_core::graph::QueryGraph;
    use rod_core::load_model::LoadModel;
    use rod_core::rod::RodPlanner;
    use rod_sim::{BatchConfig, JsonlSink, Simulation, SimulationConfig, SourceSpec};
    use rod_traces::Trace;

    #[test]
    fn keeps_exactly_the_util_sample_bytes_jsonl_sink_writes() {
        let inputs = crate::gen::pipeline(3);
        let graph: QueryGraph = serde_json::from_str(&inputs.graph_json).unwrap();
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(3, 1.0);
        let plan = RodPlanner::new()
            .place(&model, &cluster)
            .unwrap()
            .allocation;
        // A short, slow slice of the pipeline's traces keeps the test fast
        // while still emitting every record kind a healthy run emits.
        let sources: Vec<SourceSpec> = inputs
            .traces
            .iter()
            .map(|t| {
                SourceSpec::TraceDriven(Trace::new(
                    t.rates()[..20].iter().map(|r| r / 100.0).collect(),
                    t.dt(),
                ))
            })
            .collect();
        let cfg = SimulationConfig {
            horizon: 2.0,
            warmup: 0.5,
            seed: 9,
            sample_interval: Some(crate::gen::PIPE_SAMPLE_INTERVAL),
            batch: Some(BatchConfig::default()),
            ..SimulationConfig::default()
        };
        let sim = Simulation::new(&graph, &plan, &cluster, sources, cfg);
        let mut jsonl = JsonlSink::new(Vec::new());
        let full_report = sim.run_with_sink(&mut jsonl);
        let written = jsonl.records_written();
        let full = jsonl.into_inner();
        let mut ours = UtilSampleSink::new(true);
        let report = sim.run_with_sink(&mut ours);

        let expected: Vec<u8> = full
            .split_inclusive(|&b| b == b'\n')
            .filter(|line| line.starts_with(b"{\"UtilSample\":"))
            .flatten()
            .copied()
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(ours.bytes, expected);
        assert_eq!(ours.offered, written);
        assert_eq!(
            ours.intervals.as_ref().map(Vec::len),
            Some(expected.iter().filter(|&&b| b == b'\n').count())
        );
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&full_report).unwrap()
        );
    }
}
