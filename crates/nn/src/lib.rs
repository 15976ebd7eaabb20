//! Neural building blocks for the `structmine` workspace.
//!
//! * [`graph`] — tape-based reverse-mode autograd over dense matrices, with
//!   finite-difference-verified gradients for every op.
//! * [`ops`] — each op's forward arithmetic, shared by the tape and the
//!   PLM's tape-free inference forward.
//! * [`params`] — parameter store with Adam, gradient clipping and seeded
//!   initialization.
//! * [`layers`] — linear / embedding / layer-norm modules over the tape.
//! * [`classifiers`] / [`attnpool`] — the neural text classifiers the
//!   tutorial's methods train on pseudo-labeled data (logistic regression,
//!   MLP, and the attention-pooling "HAN-lite" sequence classifier).
//! * [`selftrain`] — Meng et al.'s self-training target distribution and the
//!   generic bootstrapping loop shared by WeSTClass/LOTClass/WeSHClass.

pub mod attnpool;
pub mod classifiers;
pub mod graph;
pub mod layers;
pub mod ops;
pub mod params;
pub mod selftrain;

pub use attnpool::AttnPoolClassifier;
pub use classifiers::{MlpClassifier, TrainConfig};
pub use graph::{Graph, NodeId};
pub use params::{Adam, ParamStore};
