//! Every metric name the benchmark may print, with its unit. The same
//! names, in the same order, are declared in `../BENCHMARK.json`; the smoke
//! test holds the two lists against each other.

/// `(name, unit)` of the eight end-to-end metrics, reported by every
/// workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("cpu_us_per_event", "us"),
    ("peak_rss_mb", "MB"),
    ("frames_per_change", "frames"),
    ("join_p50_ticks", "ticks"),
    ("join_p90_ticks", "ticks"),
    ("ok_share", "share"),
];

/// `(name, unit)` of the per-layer metrics, reported with `--trace 1`.
///
/// Unit prices (`*_ns`) are replayed on every workload. Counters and shares
/// of a layer that is not on a workload's path read 0 there (`sim.par.*`
/// off `fleet_steady_par`, `net.*` counters off `live_day`, `sim.sim.*` and
/// `sim.queue.peak_len` on `live_day`).
pub const PER_LAYER: [(&str, &str); 79] = [
    // Set-up path -> setup_s.
    ("core.topology.layout_ns_per_node", "ns"),
    ("core.node.from_layout_ns", "ns"),
    ("sim.network.matrix_build_ns_per_node", "ns"),
    ("sim.scenario.build_ns_per_node", "ns"),
    ("sim.par.build_s", "s"),
    ("net.cluster.deploy_s", "s"),
    ("net.cluster.shutdown_s", "s"),
    // core.wire -> cpu_us_per_event.
    ("core.wire.encode_ns", "ns"),
    ("core.wire.decode_ns", "ns"),
    ("core.wire.frame_bytes", "bytes"),
    ("core.wire.encode_ns.token", "ns"),
    ("core.wire.encode_ns.hb_up", "ns"),
    ("core.wire.encode_ns.notify_parent", "ns"),
    ("core.wire.decode_ns.token", "ns"),
    ("core.wire.decode_ns.hb_up", "ns"),
    ("core.wire.decode_ns.notify_parent", "ns"),
    // core.protocol / core.mq -> cpu_us_per_event, frames_per_change.
    ("core.protocol.handle_ns.msg", "ns"),
    ("core.protocol.handle_ns.timer", "ns"),
    ("core.protocol.handle_ns.mh", "ns"),
    ("core.protocol.handle_ns.query", "ns"),
    ("core.protocol.outputs_per_input", "count"),
    ("core.mq.push_ns", "ns"),
    ("core.mq.aggregated_share", "share"),
    // core.obs / core.introspect -> join_p*_ticks provenance, tracing cost.
    ("core.obs.record_ns", "ns"),
    ("core.obs.join_samples", "count"),
    ("core.obs.first_seen_overflow", "count"),
    ("core.obs.repair_p50_ticks", "ticks"),
    ("core.obs.repair_p90_ticks", "ticks"),
    ("core.obs.query_p50_ticks", "ticks"),
    ("core.obs.join_p90_ticks.L0", "ticks"),
    ("core.obs.join_p90_ticks.L1", "ticks"),
    ("core.obs.join_p90_ticks.L2", "ticks"),
    ("core.introspect.digest_ns_per_node", "ns"),
    // sim.queue / sim.network -> events_per_s.
    ("sim.queue.push_ns", "ns"),
    ("sim.queue.pop_ns", "ns"),
    ("sim.queue.far_push_ns", "ns"),
    ("sim.queue.peak_len", "count"),
    ("sim.network.sample_ns", "ns"),
    ("sim.network.classify_ns", "ns"),
    // sim.sim -> events_per_s, peak_rss_mb.
    ("sim.sim.step_ns", "ns"),
    ("sim.sim.frames_per_event", "frames"),
    ("sim.sim.stale_timer_skip_share", "share"),
    ("sim.sim.lost_share", "share"),
    ("sim.sim.bytes_per_node", "bytes"),
    ("sim.sim.residual_share", "share"),
    // sim.par -> events_per_s on fleet_steady_par.
    ("sim.par.execute_s", "s"),
    ("sim.par.flush_s", "s"),
    ("sim.par.barrier_s", "s"),
    ("sim.par.drain_s", "s"),
    ("sim.par.barrier_share", "share"),
    ("sim.par.windows", "count"),
    ("sim.par.idle_skips", "count"),
    ("sim.par.frames_batched", "count"),
    ("sim.par.batches", "count"),
    ("sim.par.max_batch", "count"),
    ("sim.par.lookahead_min", "ticks"),
    ("sim.par.lookahead_max", "ticks"),
    ("sim.par.speedup_vs_seq", "ratio"),
    // net.* -> cpu_us_per_event, join_p*_ticks on live_day.
    ("net.transport.send_ns", "ns"),
    ("net.transport.frames_sent", "count"),
    ("net.transport.dropped_frames", "count"),
    ("net.transport.backpressure_dropped", "count"),
    ("net.reactor.cpu_util_share", "share"),
    ("net.reactor.frames_per_tick", "frames"),
    ("net.reactor.app_events_dropped", "count"),
    ("net.reactor.codec_rejected", "count"),
    ("net.cluster.snapshot_ms_p50", "ms"),
    ("net.cluster.snapshot_ms_p90", "ms"),
    ("net.cluster.settle_s", "s"),
    // Generator and run health.
    ("bench.driver_late_ms_p95", "ms"),
    ("bench.lap_spread_share", "share"),
    ("bench.clock_speed", "ratio"),
    ("bench.raw_events_per_s", "1/s"),
    ("bench.allocs_per_event", "count"),
    ("bench.alloc_bytes_per_event", "bytes"),
    ("bench.trace_overhead_share", "share"),
    ("bench.root_visible_share", "share"),
    ("bench.failed.ring_uncommitted_guids", "count"),
    ("bench.failed.queries_unanswered", "count"),
];
