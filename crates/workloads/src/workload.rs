//! The [`Workload`] facade: one handle per evaluated DNN bundling the
//! network, its reuse configuration, its input generator and the
//! accelerator-simulation parameters.

use reuse_core::ReuseConfig;
use reuse_nn::Network;

use crate::{audio, autopilot, c3d, eesen, kaldi, video};

/// Which of the paper's four DNNs (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// MLP for acoustic scoring.
    Kaldi,
    /// Bidirectional-LSTM RNN for speech recognition.
    Eesen,
    /// 3D CNN for video classification.
    C3d,
    /// 2D CNN for self-driving steering.
    AutoPilot,
}

impl WorkloadKind {
    /// All four workloads in the paper's presentation order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Kaldi,
        WorkloadKind::Eesen,
        WorkloadKind::C3d,
        WorkloadKind::AutoPilot,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Kaldi => "Kaldi",
            WorkloadKind::Eesen => "EESEN",
            WorkloadKind::C3d => "C3D",
            WorkloadKind::AutoPilot => "AutoPilot",
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Model scale: full Table I geometry or reduced variants for tests and
/// quick runs (see DESIGN.md — similarity statistics are driven by temporal
/// correlation and cluster counts, not by spatial size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Exact Table I dimensions.
    Full,
    /// Reduced dimensions for default benchmark runs.
    #[default]
    Small,
    /// Minimal dimensions for unit tests.
    Tiny,
}

impl Scale {
    /// The `REUSE_SCALE` environment knob (`full`/`small`/`tiny`, default
    /// `small`), read through [`crate::env_parse`]: a malformed value exits
    /// with status 2.
    pub fn from_env() -> Scale {
        crate::env_parse("REUSE_SCALE").unwrap_or_default()
    }
}

impl std::str::FromStr for Scale {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Scale, Self::Err> {
        match s.to_lowercase().as_str() {
            "full" => Ok(Scale::Full),
            "small" => Ok(Scale::Small),
            "tiny" => Ok(Scale::Tiny),
            _ => Err("expected full, small or tiny"),
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Scale::Full => "full",
            Scale::Small => "small",
            Scale::Tiny => "tiny",
        };
        f.write_str(s)
    }
}

/// One evaluation workload: network + reuse configuration + input stream.
#[derive(Debug)]
pub struct Workload {
    kind: WorkloadKind,
    scale: Scale,
    network: Network,
    reuse_config: ReuseConfig,
}

impl Workload {
    /// Builds a workload at the given scale.
    ///
    /// # Panics
    ///
    /// Panics if the fixed network geometry fails to build — impossible for
    /// the shipped configurations (covered by tests).
    pub fn build(kind: WorkloadKind, scale: Scale) -> Self {
        let (network, reuse_config) = match kind {
            WorkloadKind::Kaldi => (kaldi::network(scale), kaldi::reuse_config()),
            WorkloadKind::Eesen => (eesen::network(scale), eesen::reuse_config()),
            WorkloadKind::C3d => (c3d::network(scale), c3d::reuse_config()),
            WorkloadKind::AutoPilot => (autopilot::network(scale), autopilot::reuse_config()),
        };
        let network = network.expect("shipped workload geometries are valid");
        Workload {
            kind,
            scale,
            network,
            reuse_config,
        }
    }

    /// Which DNN this is.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// The scale it was built at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The paper's reuse configuration for this network.
    pub fn reuse_config(&self) -> &ReuseConfig {
        &self.reuse_config
    }

    /// Whether the workload processes sequences through recurrent layers.
    pub fn is_recurrent(&self) -> bool {
        self.network.is_recurrent()
    }

    /// Whether the accelerator manages activations through main memory with
    /// blocked staging (both CNNs; paper Section IV-C and Table III).
    pub fn activations_spill(&self) -> bool {
        matches!(self.kind, WorkloadKind::C3d | WorkloadKind::AutoPilot)
    }

    /// Executions per input sequence, used to amortize per-sequence weight
    /// loading in the simulator (an utterance of a few seconds or a video
    /// clip).
    pub fn executions_per_sequence(&self) -> u64 {
        match self.kind {
            WorkloadKind::Kaldi => 500, // ~5 s utterance at 10 ms frames
            WorkloadKind::Eesen => 500,
            WorkloadKind::C3d => 20,        // ~11 s clip in 16-frame windows
            WorkloadKind::AutoPilot => 900, // ~30 s of driving at 30 fps
        }
    }

    /// Generates `count` DNN input frames (feed-forward workloads) starting
    /// from a seeded stream.
    ///
    /// # Panics
    ///
    /// Panics for recurrent workloads — use
    /// [`Workload::generate_sequences`].
    pub fn generate_frames(&self, count: usize, seed: u64) -> Vec<Vec<f32>> {
        match self.kind {
            WorkloadKind::Kaldi => {
                let mut stream = audio::SpeechStream::new(kaldi::FEATURES, seed)
                    .relax(0.08)
                    .noise(0.008);
                let frames = stream.frames(count + kaldi::WINDOW - 1);
                audio::sliding_windows(&frames, kaldi::WINDOW)
            }
            WorkloadKind::AutoPilot => {
                let (h, w) = autopilot::frame_dims(self.scale);
                let mut stream = video::DashcamStream::new(h, w, seed);
                // Raw camera noise keeps CONV1's input similarity modest
                // (the paper measures 46% for it) while deeper layers,
                // which average over receptive fields, stay highly similar.
                stream.noise = 0.012;
                (0..count).map(|_| stream.next_frame()).collect()
            }
            WorkloadKind::C3d => {
                let side = c3d::side(self.scale);
                let depth = c3d::window_frames(self.scale);
                let mut clip = video::ActionClip::new(side, depth, seed);
                clip.noise = 0.010;
                (0..count).map(|_| clip.next_window()).collect()
            }
            WorkloadKind::Eesen => panic!("EESEN is recurrent: use generate_sequences"),
        }
    }

    /// Generates `n_seq` sequences of `len` frames each (recurrent
    /// workloads).
    ///
    /// # Panics
    ///
    /// Panics for feed-forward workloads — use
    /// [`Workload::generate_frames`].
    pub fn generate_sequences(&self, n_seq: usize, len: usize, seed: u64) -> Vec<Vec<Vec<f32>>> {
        match self.kind {
            WorkloadKind::Eesen => {
                let features = self.network.input_shape().volume();
                (0..n_seq)
                    .map(|i| {
                        // EESEN sees per-frame features without Kaldi's
                        // window overlap, so its effective similarity is
                        // lower (paper: 38-60% vs Kaldi's 56-75%); shorter
                        // phones and more innovation noise model that.
                        let mut stream =
                            audio::SpeechStream::new(features, seed.wrapping_add(i as u64))
                                .phone_len(2)
                                .relax(0.7)
                                .noise(0.15);
                        stream.frames(len)
                    })
                    .collect()
            }
            _ => panic!("{} is feed-forward: use generate_frames", self.kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_build_at_tiny_scale() {
        for kind in WorkloadKind::ALL {
            let w = Workload::build(kind, Scale::Tiny);
            assert_eq!(w.kind(), kind);
            assert_eq!(w.is_recurrent(), kind == WorkloadKind::Eesen);
        }
    }

    #[test]
    fn frame_generation_matches_input_shape() {
        for kind in [
            WorkloadKind::Kaldi,
            WorkloadKind::C3d,
            WorkloadKind::AutoPilot,
        ] {
            let w = Workload::build(kind, Scale::Tiny);
            let frames = w.generate_frames(3, 1);
            assert_eq!(frames.len(), 3);
            for f in &frames {
                assert_eq!(f.len(), w.network().input_shape().volume(), "{kind}");
            }
        }
    }

    #[test]
    fn sequence_generation_matches_input_shape() {
        let w = Workload::build(WorkloadKind::Eesen, Scale::Tiny);
        let seqs = w.generate_sequences(2, 5, 3);
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0].len(), 5);
        assert_eq!(seqs[0][0].len(), w.network().input_shape().volume());
    }

    #[test]
    #[should_panic(expected = "recurrent")]
    fn eesen_frames_panics() {
        Workload::build(WorkloadKind::Eesen, Scale::Tiny).generate_frames(1, 0);
    }

    #[test]
    fn kaldi_windows_overlap() {
        let w = Workload::build(WorkloadKind::Kaldi, Scale::Tiny);
        let frames = w.generate_frames(2, 5);
        // Consecutive windows share 8 of 9 frames: the tail of window t is
        // the head of window t+1.
        let f = kaldi::FEATURES;
        assert_eq!(&frames[0][f..], &frames[1][..8 * f]);
    }

    #[test]
    fn scale_from_env_defaults_to_small() {
        // Do not set the variable here (tests run in parallel); just check
        // the default path parses.
        assert_eq!(Scale::default(), Scale::Small);
    }

    #[test]
    fn spill_flags() {
        assert!(Workload::build(WorkloadKind::C3d, Scale::Tiny).activations_spill());
        assert!(Workload::build(WorkloadKind::AutoPilot, Scale::Tiny).activations_spill());
        assert!(!Workload::build(WorkloadKind::Kaldi, Scale::Tiny).activations_spill());
    }
}
