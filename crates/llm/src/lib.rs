//! # llm-sim — LLM inference substrate for the TAPAS reproduction
//!
//! TAPAS exploits the fact that an LLM inference server exposes several configuration knobs —
//! GPU frequency, batch size, tensor parallelism, model size and quantization — each trading
//! off performance against temperature, power and result quality (Table 1 of the paper), and
//! that inference has two phases (compute-bound *prefill* and memory-bound *decode*) with very
//! different thermal and power behaviour (Fig. 15).
//!
//! This crate provides:
//!
//! * [`model`] — the model catalog (Llama-2 7B/13B/70B), quantization formats and the quality
//!   model (smaller / more quantized models answer faster and cooler but less accurately).
//! * [`hardware`] — the GPU hardware description (A100/H100 compute, bandwidth, memory).
//! * [`config`] — the instance configuration space and reconfiguration costs.
//! * [`perf`] — an analytic roofline-style performance model for prefill and decode:
//!   time-to-first-token (TTFT), time-between-tokens (TBT), throughput and goodput under the
//!   paper's SLO (5× the unloaded latency).
//! * [`profile`] — per-configuration steady-state profiles (per-GPU power, server power,
//!   utilization, memory-boundedness for both phases) used by the datacenter model and by the
//!   TAPAS instance configurator, reproducing the orderings of Fig. 15.
//! * [`pareto`] — the temperature/power vs goodput Pareto frontier of Fig. 16.
//! * [`request`] — inference request descriptions and their length distribution.
//! * [`batch`] — the request fabric's aggregate batch scheduler: continuous batching on an
//!   integer-millisecond event clock with *incremental* KV-cache admission accounting
//!   (prompt pinned at admission, +1 token per sequence per decode iteration, eviction on
//!   completion).
//!
//! # Example
//!
//! ```
//! use llm_sim::config::InstanceConfig;
//! use llm_sim::hardware::GpuHardware;
//! use llm_sim::profile::ConfigProfile;
//!
//! let config = InstanceConfig::default_70b();
//! let profile = ConfigProfile::build(&config, &GpuHardware::a100());
//! assert!(profile.decode.server_power.value() > 0.0);
//! assert!(profile.quality > 0.9, "the 70B FP16 model is the quality reference");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod config;
pub mod hardware;
pub mod model;
pub mod pareto;
pub mod perf;
pub mod profile;
pub mod request;

pub use batch::{BatchCompletion, BatchScheduler};
pub use config::{InstanceConfig, TensorParallelism};
pub use hardware::GpuHardware;
pub use model::{ModelSize, Quantization};
pub use pareto::ParetoFrontier;
pub use perf::PerfModel;
pub use profile::{ConfigProfile, PhaseProfile};
pub use request::InferenceRequest;
