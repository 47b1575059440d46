//! `fault_overhead` — what exactly-once costs when the network misbehaves.
//!
//! Four [`ResilientClient`]s upload contiguous slices of a deterministic-
//! MLE cipher stream and commit under fixed commit ids — once directly
//! against a loopback server (the fault-free resilient baseline), once
//! through a [`FaultProxy`] injecting connection resets, torn frames and
//! delays from a seeded schedule — and the retry layer's counters are
//! printed as a `name value` table. The wall-clock rows are one `Instant`
//! pair each: indicative, not a benchmark (that is `fdbench`, `benchmark/`).
//!
//! After each run the exactly-once contract is audited over a clean
//! connection ([`exactly_once_held`]); a divergence exits non-zero.
//! `tests/chaos.rs` owns that property across pinned seeds; here it guards
//! the numbers — the overhead of a run that double-ingested or lost chunks
//! is not the overhead of the protocol.
//!
//! Flags: see [`USAGE`].

use std::sync::atomic::Ordering;
use std::time::Duration;

use freqdedup_bench::cli;
use freqdedup_bench::harness::{self, build_pair, store_config, timed};
use freqdedup_core::par::{par_map, shard_ranges};
use freqdedup_mle::trace_enc::DeterministicTraceEncryptor;
use freqdedup_server::client::{Client, ResilienceReport, ResilientClient, RetryOptions};
use freqdedup_server::fault::{FaultProxy, FaultSpec};
use freqdedup_server::server::{Server, ServerConfig};
use freqdedup_trace::{Backup, ChunkRecord};

const USAGE: &str = "usage: fault_overhead [--quick] [--chunks N]
  --quick     CI-sized run (~60k logical chunks)
  --chunks N  logical chunks uploaded (default 1,000,000)
Uploads a cipher stream with four resilient clients, fault-free and then
through a seeded fault proxy (resets, torn frames, delays), and prints
retry overhead, reconnect latency and the work RESUME saved. Exits
non-zero if either run breaks exactly-once: a committed stream restoring
differently from what its client sent, or a retried batch double-ingesting.";

const CLIENTS: usize = 4;

/// Generous so the seeded schedule exercises retries without ever
/// exhausting a client: the table prices succeeding under faults.
const RETRY: RetryOptions = RetryOptions {
    max_attempts: 20,
    base_backoff: Duration::from_millis(5),
    max_backoff: Duration::from_millis(100),
    op_timeout: Duration::from_secs(30),
    batch: 512,
};

/// The exactly-once contract over one fleet run, from what a clean audit
/// connection reads back: no retried batch double-ingested
/// (`logical_chunks` bounded by the chunks sent), and every client that
/// reported success — `committed[i]` is its acked chunk count and its
/// part's restored stream, `None` for a client that gave up — was acked
/// for, and restores to, exactly the part it sent.
fn exactly_once_held(
    parts: &[Backup],
    logical_chunks: u64,
    committed: &[Option<(u64, Vec<ChunkRecord>)>],
) -> bool {
    let sent: usize = parts.iter().map(Backup::len).sum();
    logical_chunks <= sent as u64
        && parts.iter().zip(committed).all(|(part, c)| {
            c.as_ref().is_none_or(|(acked, restored)| {
                *acked == part.len() as u64 && *restored == part.chunks
            })
        })
}

/// One upload-fleet run.
struct Run {
    wall_ms: f64,
    /// What each client's retry layer did.
    reports: Vec<ResilienceReport>,
    failed_clients: usize,
    intact: bool,
    /// `[resets, torn frames, delays, frames relayed]` of the proxy
    /// (zero without one).
    injected: [u64; 4],
}

/// Uploads `parts` (one resilient client each) against a fresh loopback
/// server — through a fault proxy when `spec` is given — then audits the
/// result over a clean direct connection.
fn run_fleet(parts: &[Backup], unique: usize, spec: Option<FaultSpec>) -> Run {
    let server = Server::bind(ServerConfig {
        workers: CLIENTS,
        engine: store_config(unique),
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let server_addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let proxy = spec.map(|s| FaultProxy::start(server_addr, s).expect("start fault proxy"));
    let upload_addr = proxy.as_ref().map_or(server_addr, FaultProxy::local_addr);

    // One shard per client: `par_map` runs the four uploads concurrently.
    let numbered: Vec<(usize, &Backup)> = parts.iter().enumerate().collect();
    let (wall_ms, results) = timed(|| {
        par_map(CLIENTS, &numbered, |&(i, part)| {
            let name = format!("fault-overhead-{i}");
            let mut client = ResilientClient::new(upload_addr.to_string(), name, RETRY);
            let out = client.upload_commit(part, 0x2000 + i as u64);
            (out, client.report().clone())
        })
    });
    let injected = proxy.map_or([0; 4], |p| {
        let c = p.counts();
        let counts =
            [&c.resets, &c.partials, &c.delays, &c.frames].map(|n| n.load(Ordering::SeqCst));
        p.stop();
        counts
    });

    let mut checker = Client::connect(server_addr, "fault-overhead-check").expect("connect");
    let logical_chunks = checker.stats().expect("stats").logical_chunks;
    let committed: Vec<_> = parts
        .iter()
        .zip(&results)
        .map(|(part, (out, _))| {
            out.as_ref().ok().map(|&acked| {
                let restored = checker
                    .restore(&part.label)
                    .expect("restore committed part");
                (acked, restored.backup.chunks)
            })
        })
        .collect();
    checker.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    Run {
        wall_ms,
        failed_clients: committed.iter().filter(|c| c.is_none()).count(),
        intact: exactly_once_held(parts, logical_chunks, &committed),
        reports: results.into_iter().map(|(_, report)| report).collect(),
        injected,
    }
}

fn main() {
    let chunks = cli::parse_chunks(std::env::args().skip(1), USAGE);
    eprintln!("fault_overhead: generating and encrypting ~{chunks} chunks...");
    let (_, target) = build_pair(chunks);
    let cipher = DeterministicTraceEncryptor::new(harness::MLE_SECRET)
        .encrypt_backup(&target)
        .backup;
    let unique = cipher.unique_count();
    let parts: Vec<Backup> = shard_ranges(cipher.chunks.len(), CLIENTS)
        .into_iter()
        .enumerate()
        .map(|(i, r)| Backup::from_chunks(format!("fault-part-{i}"), cipher.chunks[r].to_vec()))
        .collect();

    eprintln!("fault_overhead: fault-free resilient baseline ({CLIENTS} clients)...");
    let clean = run_fleet(&parts, unique, None);
    assert_eq!(
        clean.failed_clients, 0,
        "fault-free resilient baseline must commit every client"
    );
    eprintln!("fault_overhead: seeded fault schedule through the proxy...");
    // The cut rate scales inversely with the upload length, aiming for a
    // couple of connection cuts per client at any size: a fixed per-frame
    // rate would leave quick runs fault-free and exhaust every full-size
    // client's retry budget (~500 frames per upload).
    let batches_per_client = cipher.chunks.len().div_ceil(CLIENTS * RETRY.batch).max(1);
    let cut_per_mille = ((1500 / batches_per_client) as u16).clamp(1, 25);
    let spec = FaultSpec::quiet(0x00FA_0175)
        .resets(cut_per_mille)
        .partials(cut_per_mille)
        .delays(30, 2);
    let faulted = run_fleet(&parts, unique, Some(spec));

    let sum = |f: fn(&ResilienceReport) -> u64| faulted.reports.iter().map(f).sum::<u64>();
    let reconnects: Vec<u64> = faulted
        .reports
        .iter()
        .flat_map(|r| r.connect_micros.iter().copied())
        .collect();
    let [resets, torn, delays, frames] = faulted.injected;
    println!(
        "clean_ms            {:.1}\n\
         faulted_ms          {:.1}\n\
         overhead            {:.2}\n\
         retries             {}\n\
         connects            {}\n\
         batches_skipped     {}\n\
         backoff_ms          {:.1}\n\
         reconnect_mean_us   {:.0}\n\
         reconnect_max_us    {}\n\
         injected_resets     {resets}\n\
         injected_torn       {torn}\n\
         injected_delays     {delays}\n\
         proxied_frames      {frames}\n\
         failed_clients      {}",
        clean.wall_ms,
        faulted.wall_ms,
        faulted.wall_ms / clean.wall_ms.max(1e-9),
        sum(|r| r.retries),
        sum(|r| r.connects),
        sum(|r| r.batches_skipped),
        sum(|r| r.backoff_micros) as f64 / 1e3,
        reconnects.iter().sum::<u64>() as f64 / reconnects.len().max(1) as f64,
        reconnects.iter().max().unwrap_or(&0),
        faulted.failed_clients,
    );

    if !(clean.intact && faulted.intact) {
        eprintln!("fault_overhead: FAIL — exactly-once contract diverged under the fault schedule");
        std::process::exit(1);
    }
    eprintln!("fault_overhead: exactly-once held on both runs");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_trips_on_double_ingest_short_ack_and_altered_stream() {
        let parts: Vec<Backup> = (0..2u64)
            .map(|p| {
                let chunks = (0..4).map(|i| ChunkRecord::new(p * 10 + i, 8)).collect();
                Backup::from_chunks(format!("part-{p}"), chunks)
            })
            .collect();
        let faithful: Vec<_> = parts
            .iter()
            .map(|p| Some((p.len() as u64, p.chunks.clone())))
            .collect();
        assert!(exactly_once_held(&parts, 8, &faithful));
        // A client that gave up is a typed failure, not a divergence.
        let mut one_failed = faithful.clone();
        one_failed[1] = None;
        assert!(exactly_once_held(&parts, 6, &one_failed));

        assert!(!exactly_once_held(&parts, 9, &faithful), "double ingest");
        let mut short = faithful.clone();
        short[0].as_mut().unwrap().0 -= 1;
        assert!(!exactly_once_held(&parts, 8, &short), "short ack");
        let mut altered = faithful;
        altered[1].as_mut().unwrap().1.swap(0, 1);
        assert!(!exactly_once_held(&parts, 8, &altered), "altered stream");
    }
}
