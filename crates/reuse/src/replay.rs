//! Offline similarity replay (the paper's Section III methodology).
//!
//! The paper analyzes input similarity across "multiple configurations:
//! number of clusters, range of the inputs and layers where the
//! quantization is applied". Re-running the DNN for every configuration is
//! wasteful: the *raw* layer inputs do not depend on the quantizer under
//! analysis (inputs are produced by the fp32 network during profiling).
//! [`InputRecorder`] captures each layer's raw input stream once;
//! [`replay_similarity`] then evaluates any cluster count against the
//! recording in one cheap pass.
//!
//! The replay is *exact* for the first quantized layer of a configuration
//! and a close approximation for deeper layers (whose real inputs would be
//! perturbed by upstream quantization — a second-order effect the paper's
//! per-layer table ignores too).

use reuse_nn::Network;
use reuse_quant::{InputRange, LinearQuantizer, RangeProfiler};

use crate::ReuseError;

/// Recorded raw input streams for every weighted layer of a network.
#[derive(Debug, Clone)]
pub struct InputRecorder {
    /// Layer names, in network order.
    names: Vec<String>,
    /// Per layer: one raw input vector per execution.
    streams: Vec<Vec<Vec<f32>>>,
}

impl InputRecorder {
    /// Runs the fp32 network over `frames`, recording every weighted
    /// layer's input stream.
    ///
    /// # Errors
    ///
    /// Propagates network execution errors.
    pub fn record(network: &Network, frames: &[Vec<f32>]) -> Result<Self, ReuseError> {
        let layers = network.layers();
        let names: Vec<String> = layers
            .iter()
            .filter(|(_, l)| l.has_weights())
            .map(|(name, _)| name.clone())
            .collect();
        // Layers past the last weighted one feed no recorded input.
        let run = layers
            .iter()
            .rposition(|(_, l)| l.has_weights())
            .map_or(0, |last| last + 1);
        let mut streams: Vec<Vec<Vec<f32>>> = vec![Vec::new(); names.len()];
        let mut next = Vec::new();
        for frame in frames {
            let mut cur = frame.clone();
            let mut slot = 0;
            for (i, (_, layer)) in layers[..run].iter().enumerate() {
                if layer.has_weights() {
                    streams[slot].push(cur.clone());
                    slot += 1;
                }
                network.apply_layer_into(i, &cur, &mut next)?;
                std::mem::swap(&mut cur, &mut next);
            }
        }
        Ok(InputRecorder { names, streams })
    }

    /// Recorded layer names.
    pub fn layer_names(&self) -> &[String] {
        &self.names
    }

    /// The raw input stream of one layer.
    pub fn stream(&self, name: &str) -> Option<&[Vec<f32>]> {
        let idx = self.names.iter().position(|n| n == name)?;
        Some(&self.streams[idx])
    }

    /// Executions recorded.
    pub fn executions(&self) -> usize {
        self.streams.first().map_or(0, Vec::len)
    }
}

/// Similarity of one recorded stream under a hypothetical quantizer
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySimilarity {
    /// Layer name.
    pub name: String,
    /// Fraction of inputs whose quantized index matches the previous
    /// execution's, over all non-first executions.
    pub input_similarity: f64,
    /// The quantizer's step under the profiled range.
    pub step: f32,
}

/// Replays one layer's recorded stream under `clusters`-way linear
/// quantization with a range profiled from the stream itself (margin 0).
///
/// Returns `None` for unknown layers or degenerate streams (fewer than two
/// executions, zero-width frames, or a zero-width profiled range) — a
/// similarity over zero comparisons is meaningless, not `0.0`.
pub fn replay_similarity(
    recorder: &InputRecorder,
    layer: &str,
    clusters: usize,
) -> Option<ReplaySimilarity> {
    let stream = recorder.stream(layer)?;
    let mut prev = Vec::new();
    let mut cur = Vec::new();
    replay_similarity_on(layer, stream, clusters, &mut prev, &mut cur)
}

/// The replay core: evaluates one already-resolved stream, reusing the
/// caller's two code scratch buffers (previous / current frame) so a sweep
/// over many cluster counts quantizes thousands of frames without
/// allocating per frame.
fn replay_similarity_on(
    layer: &str,
    stream: &[Vec<f32>],
    clusters: usize,
    prev: &mut Vec<reuse_quant::QuantCode>,
    cur: &mut Vec<reuse_quant::QuantCode>,
) -> Option<ReplaySimilarity> {
    if stream.len() < 2 || stream[0].is_empty() {
        return None;
    }
    let mut profiler = RangeProfiler::new();
    for input in stream {
        profiler.observe_slice(input);
    }
    let range: InputRange = profiler.range(0.0).ok()?;
    let quantizer = LinearQuantizer::new(range, clusters).ok()?;
    quantizer.quantize_slice_into(&stream[0], prev);
    let mut same = 0u64;
    let mut total = 0u64;
    for input in &stream[1..] {
        quantizer.quantize_slice_into(input, cur);
        same += cur.iter().zip(prev.iter()).filter(|(a, b)| a == b).count() as u64;
        total += cur.len() as u64;
        std::mem::swap(prev, cur);
    }
    if total == 0 {
        return None;
    }
    Some(ReplaySimilarity {
        name: layer.to_string(),
        input_similarity: same as f64 / total as f64,
        step: quantizer.step(),
    })
}

/// Replays every recorded layer under a set of cluster counts:
/// `result[layer][cluster_config]`. Each layer's stream is resolved once
/// and its code buffers are shared across the whole sweep.
pub fn replay_sweep(
    recorder: &InputRecorder,
    cluster_counts: &[usize],
) -> Vec<Vec<Option<ReplaySimilarity>>> {
    let mut prev = Vec::new();
    let mut cur = Vec::new();
    recorder
        .layer_names()
        .iter()
        .map(|name| {
            let stream = recorder.stream(name);
            cluster_counts
                .iter()
                .map(|&c| {
                    stream.and_then(|s| replay_similarity_on(name, s, c, &mut prev, &mut cur))
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuse_nn::{init::Rng64, Activation, NetworkBuilder};

    fn walk(len: usize, dim: usize, step: f32, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Rng64::new(seed);
        let mut frame: Vec<f32> = (0..dim).map(|_| rng.uniform(0.5)).collect();
        (0..len)
            .map(|_| {
                for v in &mut frame {
                    *v = (*v + rng.uniform(step)).clamp(-1.0, 1.0);
                }
                frame.clone()
            })
            .collect()
    }

    fn mlp() -> Network {
        NetworkBuilder::new("replay-mlp", 8)
            .seed(3)
            .fully_connected(12, Activation::Relu)
            .fully_connected(4, Activation::Identity)
            .build()
            .unwrap()
    }

    #[test]
    fn recorder_captures_all_weighted_layers() {
        let net = mlp();
        let rec = InputRecorder::record(&net, &walk(10, 8, 0.1, 1)).unwrap();
        assert_eq!(rec.layer_names(), &["fc1".to_string(), "fc2".to_string()]);
        assert_eq!(rec.executions(), 10);
        assert_eq!(rec.stream("fc1").unwrap()[0].len(), 8);
        assert_eq!(rec.stream("fc2").unwrap()[0].len(), 12);
        assert!(rec.stream("nope").is_none());
    }

    #[test]
    fn recorded_fc2_inputs_equal_fc1_outputs() {
        let net = mlp();
        let frames = walk(5, 8, 0.1, 2);
        let rec = InputRecorder::record(&net, &frames).unwrap();
        // fc2's recorded input at execution t is the fp32 fc1 activation.
        let mut expect = Vec::new();
        net.apply_layer_into(0, &frames[3], &mut expect).unwrap();
        assert_eq!(rec.stream("fc2").unwrap()[3], expect);
    }

    #[test]
    fn replay_matches_engine_for_first_quantized_layer() {
        // The engine's fc1 similarity (reuse enabled everywhere, margin 0,
        // calibrated on the same frames) must match the replay exactly:
        // fc1's real inputs are raw frames in both paths.
        let net = mlp();
        let frames = walk(30, 8, 0.1, 3);
        let rec = InputRecorder::record(&net, &frames).unwrap();
        let replay = replay_similarity(&rec, "fc1", 16).unwrap();

        let config = crate::ReuseConfig::uniform(16).range_margin(0.0);
        let mut engine = crate::ReuseSession::from_network(&net, &config);
        for f in &frames {
            engine.execute(f).unwrap();
        }
        let engine_sim = engine.metrics().layer("fc1").unwrap().input_similarity();
        // The engine's first reuse execution compares against the quantized
        // scratch execution (frame 1), while the replay starts at frame 0 —
        // one frame of offset tolerance.
        assert!(
            (replay.input_similarity - engine_sim).abs() < 0.06,
            "replay {} vs engine {engine_sim}",
            replay.input_similarity
        );
    }

    #[test]
    fn fewer_clusters_more_similarity() {
        let net = mlp();
        let rec = InputRecorder::record(&net, &walk(40, 8, 0.1, 4)).unwrap();
        let sweep = replay_sweep(&rec, &[8, 16, 32, 64]);
        for layer_row in &sweep {
            let sims: Vec<f64> = layer_row
                .iter()
                .map(|r| r.as_ref().unwrap().input_similarity)
                .collect();
            for pair in sims.windows(2) {
                assert!(
                    pair[0] >= pair[1] - 1e-9,
                    "similarity must not rise with clusters: {sims:?}"
                );
            }
        }
    }

    #[test]
    fn degenerate_streams_return_none() {
        let net = mlp();
        // No frames at all: nothing was recorded.
        let rec = InputRecorder::record(&net, &[]).unwrap();
        assert_eq!(rec.executions(), 0);
        assert!(replay_similarity(&rec, "fc1", 16).is_none());
        // A single execution has no previous frame to compare against.
        let rec = InputRecorder::record(&net, &walk(1, 8, 0.1, 5)).unwrap();
        assert!(replay_similarity(&rec, "fc1", 16).is_none());
        // Constant stream: zero-width range.
        let rec2 = InputRecorder::record(&net, &vec![vec![0.5; 8]; 4]).unwrap();
        assert!(replay_similarity(&rec2, "fc1", 16).is_none());
        // The sweep mirrors the per-layer result instead of fabricating
        // zeros (fc1's raw stream is zero-width; fc2's activations still
        // span a range and replay as fully similar).
        let sweep = replay_sweep(&rec2, &[8, 16]);
        assert!(sweep[0].iter().all(Option::is_none));
        assert!(sweep[1]
            .iter()
            .all(|r| r.as_ref().is_some_and(|s| s.input_similarity == 1.0)));
    }

    #[test]
    fn sweep_matches_individual_replays() {
        // The sweep's hoisted stream lookup and shared scratch buffers must
        // not change any result relative to independent replay calls.
        let net = mlp();
        let rec = InputRecorder::record(&net, &walk(20, 8, 0.12, 9)).unwrap();
        let sweep = replay_sweep(&rec, &[4, 16, 64]);
        assert_eq!(sweep.len(), rec.layer_names().len());
        for (name, row) in rec.layer_names().iter().zip(sweep.iter()) {
            for (&clusters, got) in [4usize, 16, 64].iter().zip(row.iter()) {
                let alone = replay_similarity(&rec, name, clusters);
                assert_eq!(got, &alone, "{name} @ {clusters}");
            }
        }
    }
}
