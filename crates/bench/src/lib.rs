//! The pmcast micro-benchmark package: its one criterion target,
//! `benches/micro.rs`, guards the hot paths
//! (`cargo bench -p pmcast-bench --bench micro`).  Figures are regenerated
//! by `pmcast-sim`'s `figures` binary and end-to-end numbers come from
//! `pmbench/` (see `BENCHMARK.json`); this library is intentionally empty.
