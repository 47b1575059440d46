//! Names of everything the benchmark reports: workloads, end-to-end metrics
//! and per-layer metrics. `BENCHMARK.json` at the repository root lists the
//! same names (with bounds and directions); `tests/smoke.rs` keeps the two in
//! step.

/// The workloads, with why each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "bytes_backup",
        "raw bytes through FastCDC + convergent MLE, payload mode: the only workload where chunking, crypto and mle do most of the work",
    ),
    (
        "trace_backup",
        "FSL fingerprint series through trace MLE in metadata mode: server and store (Bloom, cache, index, containers, tap fold) do most of the work",
    ),
    (
        "defended_backup",
        "the trace_backup series and store under the MinHash+scramble defense: locality destroyed, so cache hits fall, stored bytes rise and leakage collapses",
    ),
    (
        "mixed_churn",
        "a writer uploading payload generations beside a reader doing restores and point reads on one engine lock: the only contended workload",
    ),
    (
        "attack_sweep",
        "every attack variant on a large FSL pair, served from a small prefix of it: core does the work, so attack changes are isolated from service changes",
    ),
];

/// `(name, unit)` of the end-to-end metrics, printed by `--trace 0`.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("backup_kchunk_s", "kchunk/s"),
    ("restore_kchunk_s", "kchunk/s"),
    ("get_chunk_p50_us", "us"),
    ("churn_s", "s"),
    ("reopen_s", "s"),
    ("attack_kchunk_s", "kchunk/s"),
    ("stream_attack_kchunk_s", "kchunk/s"),
    ("leak_rate", "ratio"),
    ("stored_per_logical", "ratio"),
    ("metadata_bytes_per_chunk", "B/chunk"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of the per-layer metrics, printed by `--trace 1`. A metric of
/// a layer the workload does not use reads 0.
pub const PER_LAYER: [(&str, &str); 72] = [
    ("datasets.generate_s", "s"),
    ("trace.write_kchunk_s", "kchunk/s"),
    ("trace.read_kchunk_s", "kchunk/s"),
    ("chunking.fastcdc_mib_s", "MiB/s"),
    ("chunking.chunks", "count"),
    ("chunking.mean_chunk_bytes", "B"),
    ("crypto.sha256_mib_s", "MiB/s"),
    ("crypto.aes_ctr_mib_s", "MiB/s"),
    ("crypto.hmac_kop_s", "kop/s"),
    ("mle.encode_mib_s", "MiB/s"),
    ("mle.encode_share", "ratio"),
    ("mle.decode_mib_s", "MiB/s"),
    ("mle.trace_enc_kchunk_s", "kchunk/s"),
    ("core.defense_encrypt_kchunk_s", "kchunk/s"),
    ("core.defense_blowup", "ratio"),
    ("core.count_s", "s"),
    ("core.crawl_s", "s"),
    ("core.basic_s", "s"),
    ("core.locality_s", "s"),
    ("core.advanced_s", "s"),
    ("core.kp_locality_s", "s"),
    ("core.kp_advanced_s", "s"),
    ("core.score_s", "s"),
    ("core.stream_commit_ms_p50", "ms"),
    ("core.stream_commit_ms_max", "ms"),
    ("core.stream_infer_s", "s"),
    ("core.stream_vs_batch", "ratio"),
    ("core.csr_merges", "count"),
    ("core.merged_entries", "count"),
    ("core.inferred_pairs_basic", "count"),
    ("core.inferred_pairs_locality", "count"),
    ("core.inferred_pairs_advanced", "count"),
    ("core.tap_attack_s", "s"),
    ("store.ingest_kchunk_s", "kchunk/s"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.loading_fraction", "ratio"),
    ("store.bloom_false_positives", "count"),
    ("store.containers_sealed", "count"),
    ("store.read_chunk_us", "us"),
    ("store.open_s", "s"),
    ("store.close_s", "s"),
    ("store.disk_bytes_per_unique_byte", "ratio"),
    ("store.persist_writes", "count"),
    ("store.gc_moved_chunks", "count"),
    ("store.gc_reclaimed_bytes", "count"),
    ("store.containers_dropped", "count"),
    ("store.containers_rewritten", "count"),
    ("server.bind_s", "s"),
    ("server.connect_us", "us"),
    ("server.shutdown_s", "s"),
    ("server.upload_s", "s"),
    ("server.commit_ms_p50", "ms"),
    ("server.commit_ms_max", "ms"),
    ("server.restore_s", "s"),
    ("server.wire_overhead_ratio", "ratio"),
    ("server.tap_fold_ms_p50", "ms"),
    ("server.tap_fold_ms_max", "ms"),
    ("server.proto_codec_kchunk_s", "kchunk/s"),
    ("server.frame_mib_s", "MiB/s"),
    ("server.get_chunk_p99_us", "us"),
    ("server.get_chunk_samples", "count"),
    ("server.read_contention_ratio", "ratio"),
    ("server.put_ack_unique", "count"),
    ("server.put_ack_duplicate", "count"),
    ("rounds.timed", "count"),
    ("rounds.median_s", "s"),
    ("rounds.logical_chunks", "count"),
    ("rounds.unique_chunks", "count"),
    ("trace.spans", "count"),
    ("trace.phase_coverage_min", "ratio"),
    ("box.slowdown", "ratio"),
    ("trace_overhead", "ratio"),
];

/// The end-to-end metrics that repeat bit-for-bit for a workload × seed.
/// Their bounds in `BENCHMARK.json` are above 0 only because the driver
/// compares medians over different seeds; `fdbench compare` matches seeds and
/// allows them no change at all.
pub const EXACT_END_TO_END: [&str; 3] = [
    "leak_rate",
    "stored_per_logical",
    "metadata_bytes_per_chunk",
];

/// Metrics that must repeat bit-for-bit for a workload × seed and are pinned
/// in `golden.json`.
pub const EXACT: [&str; 16] = [
    "leak_rate",
    "stored_per_logical",
    "metadata_bytes_per_chunk",
    "core.inferred_pairs_basic",
    "core.inferred_pairs_locality",
    "core.inferred_pairs_advanced",
    "core.csr_merges",
    "core.merged_entries",
    "store.gc_moved_chunks",
    "store.gc_reclaimed_bytes",
    "store.containers_dropped",
    "store.containers_rewritten",
    "server.put_ack_unique",
    "server.put_ack_duplicate",
    "rounds.logical_chunks",
    "rounds.unique_chunks",
];
