//! Shared nothing: this package exists to host the runnable example
//! binaries (`quickstart`, `image_pipeline`, `video_streaming`,
//! `template_selection`, `iot_fleet`, `portability`). Run one with e.g.
//! `cargo run -p oprc-examples --bin quickstart`.
