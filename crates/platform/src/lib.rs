//! Oparaca: the OaaS-based serverless platform (paper §III).
//!
//! This crate wires the paradigm core (`oprc-core`) to the substrates
//! (`oprc-cluster`, `oprc-faas`, `oprc-store`) in two execution planes:
//!
//! - [`embedded`] — a real, in-process platform: deploy YAML packages,
//!   create objects, register Rust closures as function implementations,
//!   and invoke methods/dataflows against real state (in-memory hot
//!   tier, write-behind buffer, persistent DB, and an S3-like object
//!   store with presigned URLs). This is what the examples and
//!   integration tests drive, mirroring the tutorial flow of §IV.
//! - [`sim`] — a deterministic discrete-event harness reproducing the
//!   paper's scalability evaluation (§V, Fig. 3): the same control-plane
//!   policies driving modelled VMs, FaaS engines, and a write-budgeted
//!   database.
//!
//! Supporting modules: [`registry`] (deployed packages),
//! [`deployer`] (template selection → class-runtime specs), [`router`]
//! (object → partition routing with data locality), [`monitoring`]
//! (metrics hub + requirement-driven controller).
//!
//! # Examples
//!
//! The tutorial flow (§IV) against the embedded platform:
//!
//! ```
//! use oprc_platform::embedded::EmbeddedPlatform;
//! use oprc_core::invocation::TaskResult;
//! use oprc_value::vjson;
//!
//! let mut platform = EmbeddedPlatform::new();
//! // §IV step 3-4: define a function and a class.
//! platform.register_function("img/counter", |task| {
//!     let n = task.state_in["count"].as_i64().unwrap_or(0) + 1;
//!     Ok(TaskResult::output(n).with_patch(vjson!({"count": n})))
//! });
//! platform.deploy_yaml("
//! classes:
//!   - name: Counter
//!     keySpecs: [count]
//!     functions:
//!       - name: incr
//!         image: img/counter
//! ")?;
//! // §IV step 5: create an object and invoke a method on it.
//! let id = platform.create_object("Counter", vjson!({"count": 0}))?;
//! platform.invoke(id, "incr", vec![])?;
//! let out = platform.invoke(id, "incr", vec![])?;
//! assert_eq!(out.output.as_i64(), Some(2));
//! # Ok::<(), oprc_platform::PlatformError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod lockorder;

pub mod admission;
pub mod deployer;
pub mod embedded;
pub mod gateway;
pub mod monitoring;
pub mod registry;
pub mod router;
pub mod sim;

pub use error::PlatformError;
