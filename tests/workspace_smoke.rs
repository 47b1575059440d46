//! Workspace smoke test: every crate re-exported by the `freqdedup`
//! umbrella must resolve and expose its headline type or function.
//!
//! One compile-time use per re-export keeps the umbrella honest: if a
//! crate is dropped from the root manifest or a re-export is renamed,
//! this test stops compiling.

use freqdedup::chunking::cdc::CdcParams;
use freqdedup::core::DenseStats;
use freqdedup::crypto::sha256;
use freqdedup::datasets::fsl::FslConfig;
use freqdedup::mle::convergent::Convergent;
use freqdedup::server::proto::{Message, WIRE_VERSION};
use freqdedup::store::engine::{DedupConfig, DedupEngine};
use freqdedup::trace::{Backup, ChunkRecord};

#[test]
fn umbrella_reexports_resolve() {
    // trace
    let backup = Backup::from_chunks("smoke", vec![ChunkRecord::new(1, 8); 4]);
    assert_eq!(backup.len(), 4);

    // crypto
    assert_eq!(sha256::digest(b"abc").len(), 32);

    // chunking
    assert!(CdcParams::with_avg_size(1024)
        .expect("valid")
        .validate()
        .is_ok());

    // core
    let stats = DenseStats::frequencies_only(&backup);
    assert_eq!(stats.freq.len(), 1);

    // mle
    let (_, ciphertext) = freqdedup::mle::Mle::encrypt(&Convergent::new(), b"chunk").unwrap();
    assert!(!ciphertext.is_empty());

    // datasets
    assert!(FslConfig::scaled(100).validate().is_ok());

    // store
    let engine = DedupEngine::new(DedupConfig::paper(4 * 1024 * 1024, 1_000)).unwrap();
    assert_eq!(engine.stats().logical_chunks, 0);

    // server
    let hello = Message::Hello {
        version: WIRE_VERSION,
        client: "smoke".into(),
    };
    assert_eq!(Message::decode(&hello.encode()).unwrap(), hello);
}
