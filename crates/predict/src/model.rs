//! The deterministic in-tree prediction model and its byte-stable
//! artifact format.
//!
//! The model is a linear classifier over [`crate::features`] vectors with
//! a *softsign* link — `p(taken) = 0.5 + 0.5·z/(1+|z|)` where `z = w·x` —
//! chosen over the usual logistic sigmoid because it needs only `+ - * /`
//! and `abs`: every step of training and inference is exact IEEE-754
//! arithmetic with no libm transcendentals, so retraining on any host
//! reproduces the committed artifact byte-for-byte.
//!
//! Artifact layout (all little-endian):
//!
//! ```text
//! magic   4  b"MFPM"
//! version u32  MODEL_VERSION
//! featver u32  FEATURE_VERSION (layout of the expected input vectors)
//! nfeat   u32  weight count
//! weights nfeat × u64  f64::to_bits
//! check   u64  FNV-1a over everything above
//! ```

use std::sync::OnceLock;

use crate::features::{BranchFeatures, FEATURE_VERSION, NUM_FEATURES};
use trace_ir::{fnv64, BranchId};

/// Bumped on any change to the artifact layout or training procedure.
pub const MODEL_VERSION: u32 = 1;

/// Artifact magic bytes.
pub const MODEL_MAGIC: [u8; 4] = *b"MFPM";

/// Where the committed artifact lives in the source tree. Baked in at
/// compile time so tests and tools resolve it regardless of their
/// working directory.
pub const COMMITTED_MODEL_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/model/mfpredict-v1.model");

/// A trained linear model (weights only; the bias rides in the feature
/// vector's constant term).
#[derive(Clone, Debug, PartialEq)]
pub struct Model {
    pub weights: Vec<f64>,
}

/// Artifact decoding failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    Truncated,
    BadMagic,
    BadVersion(u32),
    BadFeatureVersion(u32),
    BadChecksum,
    Io(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Truncated => write!(f, "model artifact truncated"),
            ModelError::BadMagic => write!(f, "model artifact has wrong magic bytes"),
            ModelError::BadVersion(v) => write!(f, "unsupported model version {v}"),
            ModelError::BadFeatureVersion(v) => {
                write!(
                    f,
                    "model trained against feature layout v{v}, expected v{FEATURE_VERSION}"
                )
            }
            ModelError::BadChecksum => write!(f, "model artifact checksum mismatch"),
            ModelError::Io(e) => write!(f, "model artifact unreadable: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl Model {
    /// The all-zero model: scores everything 0, predicts not-taken.
    pub fn zero() -> Model {
        Model {
            weights: vec![0.0; NUM_FEATURES],
        }
    }

    /// The raw linear score `w·x`; positive means predicted taken.
    pub fn score(&self, x: &[f64]) -> f64 {
        self.weights.iter().zip(x).map(|(w, x)| w * x).sum()
    }

    /// Probability the branch is taken, through the softsign link.
    pub fn probability(&self, x: &[f64]) -> f64 {
        let z = self.score(x);
        0.5 + 0.5 * (z / (1.0 + z.abs()))
    }

    pub fn predict_taken(&self, x: &[f64]) -> bool {
        self.score(x) > 0.0
    }

    /// Per-site predictions as `(site, taken)` pairs in input order.
    pub fn predict_branches<'a>(
        &'a self,
        features: &'a [BranchFeatures],
    ) -> impl Iterator<Item = (BranchId, bool)> + 'a {
        features
            .iter()
            .map(|f| (f.id, self.predict_taken(&f.values)))
    }

    /// Serializes to the versioned byte-stable artifact format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.weights.len() * 8 + 8);
        out.extend_from_slice(&MODEL_MAGIC);
        out.extend_from_slice(&MODEL_VERSION.to_le_bytes());
        out.extend_from_slice(&FEATURE_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.weights.len() as u32).to_le_bytes());
        for w in &self.weights {
            out.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        let check = fnv64(&out);
        out.extend_from_slice(&check.to_le_bytes());
        out
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<Model, ModelError> {
        if bytes.len() < 24 {
            return Err(ModelError::Truncated);
        }
        if bytes[0..4] != MODEL_MAGIC {
            return Err(ModelError::BadMagic);
        }
        let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
        let version = u32_at(4);
        if version != MODEL_VERSION {
            return Err(ModelError::BadVersion(version));
        }
        let featver = u32_at(8);
        if featver != FEATURE_VERSION {
            return Err(ModelError::BadFeatureVersion(featver));
        }
        let nfeat = u32_at(12) as usize;
        let body = 16 + nfeat * 8;
        if bytes.len() != body + 8 {
            return Err(ModelError::Truncated);
        }
        let check = u64::from_le_bytes(bytes[body..body + 8].try_into().unwrap());
        if fnv64(&bytes[..body]) != check {
            return Err(ModelError::BadChecksum);
        }
        let weights = (0..nfeat)
            .map(|i| {
                let at = 16 + i * 8;
                f64::from_bits(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()))
            })
            .collect();
        Ok(Model { weights })
    }

    /// Loads the committed in-tree artifact. `Err` when the file is
    /// missing or malformed (callers that can proceed without a model
    /// fall back to [`Model::zero`]).
    pub fn load_committed() -> Result<Model, ModelError> {
        let bytes =
            std::fs::read(COMMITTED_MODEL_PATH).map_err(|e| ModelError::Io(e.to_string()))?;
        Model::from_bytes(&bytes)
    }

    /// The committed artifact, loaded once per process; the zero model
    /// when none is committed (predicts all-not-taken, never panics).
    pub fn committed() -> &'static Model {
        static CACHE: OnceLock<Model> = OnceLock::new();
        CACHE.get_or_init(|| Model::load_committed().unwrap_or_else(|_| Model::zero()))
    }
}

/// One training example: a feature vector, its observed majority
/// direction, and a weight (importance) term.
#[derive(Clone, Debug)]
pub struct Sample {
    pub features: [f64; NUM_FEATURES],
    pub taken: bool,
    pub weight: f64,
}

/// Training hyperparameters. The defaults are the ones the committed
/// artifact was produced with; they are part of the reproducibility
/// contract (CI retrains and byte-compares).
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    pub epochs: u32,
    pub learning_rate: f64,
    pub l2: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 600,
            learning_rate: 0.4,
            l2: 1e-4,
        }
    }
}

/// Full-batch gradient descent on weighted squared error through the
/// softsign link. Deterministic: fixed iteration count, samples visited
/// in input order, no randomness, no transcendentals.
pub fn train(samples: &[Sample], cfg: &TrainConfig) -> Model {
    let mut w = vec![0.0f64; NUM_FEATURES];
    if samples.is_empty() {
        return Model { weights: w };
    }
    let total_weight: f64 = samples.iter().map(|s| s.weight).sum();
    let norm = if total_weight > 0.0 {
        total_weight
    } else {
        1.0
    };
    let mut grad = vec![0.0f64; NUM_FEATURES];
    for _ in 0..cfg.epochs {
        for g in grad.iter_mut() {
            *g = 0.0;
        }
        for s in samples {
            let z: f64 = w.iter().zip(&s.features).map(|(w, x)| w * x).sum();
            let denom = 1.0 + z.abs();
            let p = 0.5 + 0.5 * (z / denom);
            let y = if s.taken { 1.0 } else { 0.0 };
            // d p / d z for the softsign link.
            let dp = 0.5 / (denom * denom);
            let err = (p - y) * dp * s.weight;
            for (g, x) in grad.iter_mut().zip(&s.features) {
                *g += err * x;
            }
        }
        for (wi, gi) in w.iter_mut().zip(&grad) {
            *wi -= cfg.learning_rate * (gi / norm + cfg.l2 * *wi);
        }
    }
    Model { weights: w }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_roundtrip_is_exact() {
        let m = Model {
            weights: (0..NUM_FEATURES)
                .map(|i| (i as f64) * 0.125 - 1.0)
                .collect(),
        };
        let bytes = m.to_bytes();
        let back = Model::from_bytes(&bytes).unwrap();
        assert_eq!(m, back);
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn artifact_rejects_corruption() {
        let m = Model::zero();
        let mut bytes = m.to_bytes();
        let last = bytes.len() - 9; // inside the weight payload
        bytes[last] ^= 0xff;
        assert_eq!(Model::from_bytes(&bytes), Err(ModelError::BadChecksum));
        assert_eq!(Model::from_bytes(&bytes[..10]), Err(ModelError::Truncated));
        let mut wrong = m.to_bytes();
        wrong[0] = b'X';
        assert_eq!(Model::from_bytes(&wrong), Err(ModelError::BadMagic));
    }

    #[test]
    fn training_is_deterministic_and_learns_a_separator() {
        let mut samples = Vec::new();
        for i in 0..32 {
            let mut x = [0.0; NUM_FEATURES];
            x[0] = 1.0;
            x[5] = f64::from(i % 2 == 0); // "loop back" branches are taken
            samples.push(Sample {
                features: x,
                taken: i % 2 == 0,
                weight: 1.0,
            });
        }
        let a = train(&samples, &TrainConfig::default());
        let b = train(&samples, &TrainConfig::default());
        assert_eq!(a.to_bytes(), b.to_bytes());
        let mut taken = [0.0; NUM_FEATURES];
        taken[0] = 1.0;
        taken[5] = 1.0;
        let mut not = [0.0; NUM_FEATURES];
        not[0] = 1.0;
        assert!(a.predict_taken(&taken));
        assert!(!a.predict_taken(&not));
    }

    #[test]
    fn committed_artifact_loads() {
        // The in-tree artifact must parse; `committed()` must never panic.
        let m = Model::committed();
        assert_eq!(m.weights.len(), NUM_FEATURES);
    }
}
