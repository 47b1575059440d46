//! The [`DefenseScheme`] trait contract, checked over every shipped
//! implementation:
//!
//! * every scheme restores byte-identically through the client key store
//!   over a live loopback server in payload mode;
//! * every scheme is deterministic under a fixed [`KeyContext`];
//! * [`NoDefense`] is bit-identical to the pre-trait undefended pipeline
//!   on server stats, the tap series, and both-policy inference;
//! * tunable schemes honor their storage-blowup budgets, and their
//!   constructors reject bad parameters with typed [`DefenseError`]s.

use freqdedup::chunking::fastcdc::FastCdc;
use freqdedup::chunking::segment::SegmentParams;
use freqdedup::core::attacks::locality::LocalityParams;
use freqdedup::core::attacks::AttackKind;
use freqdedup::core::defense::prelude::*;
use freqdedup::core::metrics::Inference;
use freqdedup::core::par::ParConfig;
use freqdedup::datasets::fsl::{generate, FslConfig};
use freqdedup::mle::convergent::Convergent;
use freqdedup::mle::trace_enc::{DeterministicTraceEncryptor, EncryptedBackup};
use freqdedup::server::client::{Client, EncodedStream};
use freqdedup::server::server::{Server, ServerConfig, TapView};
use freqdedup::trace::{Backup, Fingerprint};

const SECRET: &[u8] = b"contract-secret";
const SEED: u64 = 41;

fn ctx() -> KeyContext {
    KeyContext::new(SECRET, SEED)
}

/// Every shipped scheme, labelled. Tunables use mid-range parameters.
fn roster() -> Vec<Box<dyn DefenseScheme>> {
    let seg = SegmentParams::paper_default(1024);
    vec![
        Box::new(NoDefense),
        Box::new(MinHashEncryption::new(seg.clone())),
        Box::new(ScrambleScheme::new(seg.clone())),
        Box::new(MinHashScrambleScheme::combined(seg, 3)),
        Box::new(TedScheme::new(1.5).unwrap()),
        Box::new(PartitionSmoothing::new(8, 1.5).unwrap()),
    ]
}

fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect()
}

fn fsl_pair() -> (Backup, Backup) {
    let series = generate(&FslConfig::scaled(4_000));
    let aux = series.get(0).unwrap().clone();
    let target = series.latest().unwrap().clone();
    (aux, target)
}

fn truth_pairs(enc: &EncryptedBackup) -> Vec<(Fingerprint, Fingerprint)> {
    let mut v: Vec<_> = enc.truth.iter().collect();
    v.sort_unstable();
    v
}

fn sorted_pairs(inf: &Inference) -> Vec<(Fingerprint, Fingerprint)> {
    let mut v: Vec<_> = inf.iter().collect();
    v.sort_unstable();
    v
}

#[test]
fn every_scheme_restores_byte_identically_over_the_wire() {
    let data = pseudo_random(300_000, 23);
    let chunker = FastCdc::with_avg_size(1024).unwrap();
    let mle = Convergent::new();
    let stream =
        EncodedStream::encode("contract", &data, &chunker, &mle, ParConfig::sequential()).unwrap();

    for scheme in &roster() {
        let defended = stream.defend(scheme.as_ref(), &ctx());
        if let Some(budget) = scheme.blowup_budget() {
            assert!(
                defended.blowup() <= budget + 1e-9,
                "{}: wire blowup {} over budget {budget}",
                scheme.name(),
                defended.blowup()
            );
        }

        // One payload-mode server per scheme: upload the defended stream,
        // commit, restore it over the wire, and decode through the
        // client-side key store back to the original bytes.
        let server = Server::bind(ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        let mut client = Client::connect(addr, scheme.name()).unwrap();
        client.upload_defended(&defended).unwrap();
        client.commit("contract").unwrap();
        let restored = client.restore("contract").unwrap();
        assert_eq!(
            restored.backup.chunks,
            defended.backup.chunks,
            "{}: wire restore reordered the defended stream",
            scheme.name()
        );
        let decoded = defended.decode(&restored, &mle).unwrap();
        assert_eq!(
            decoded,
            data,
            "{}: restore through the key store diverged from the original",
            scheme.name()
        );
        client.shutdown().unwrap();
        handle.join().unwrap();
    }
}

#[test]
fn every_scheme_deterministic_under_fixed_seed() {
    let (_aux, target) = fsl_pair();
    for scheme in &roster() {
        let first = scheme.encrypt_backup(&target, &ctx());
        let again = scheme.encrypt_backup(&target, &ctx());
        assert_eq!(
            first.backup.chunks,
            again.backup.chunks,
            "{}: two sequential runs under one context diverged",
            scheme.name()
        );
        assert_eq!(
            truth_pairs(&first),
            truth_pairs(&again),
            "{}",
            scheme.name()
        );
    }
}

/// Uploads `cipher` to a fresh loopback server in four commits and
/// returns the tap plus the reported `(logical, unique)` totals.
fn serve(cipher: &Backup) -> (TapView, (u64, u64)) {
    let server = Server::bind(ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let tap = server.tap_handle();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let mut client = Client::connect(addr, "pin").unwrap();
    for (i, range) in freqdedup::core::par::shard_ranges(cipher.chunks.len(), 4)
        .into_iter()
        .enumerate()
    {
        let epoch = Backup::from_chunks(format!("epoch-{i}"), cipher.chunks[range].to_vec());
        client.upload_backup(&epoch).unwrap();
        client.commit(&epoch.label).unwrap();
    }
    let stats = client.stats().unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
    (tap, (stats.logical_chunks, stats.unique_chunks))
}

#[test]
fn no_defense_pins_the_undefended_pipeline_through_the_tap() {
    let (aux, target) = fsl_pair();

    // Stream-level pin: the trait baseline emits the exact chunks the
    // pre-trait deterministic-MLE pipeline emits.
    let defended = NoDefense.encrypt_backup(&target, &ctx());
    let direct = DeterministicTraceEncryptor::new(SECRET).encrypt_backup(&target);
    assert_eq!(defended.backup.chunks, direct.backup.chunks);
    assert_eq!(truth_pairs(&defended), truth_pairs(&direct));

    // Route both through the real server and compare the provider view:
    // engine stats, the label-sorted tap series, the running streaming
    // state, and both-policy inference for every attack kind.
    let (tap_defended, stats_defended) = serve(&defended.backup);
    let (tap_direct, stats_direct) = serve(&direct.backup);
    assert_eq!(stats_defended, stats_direct, "server stats diverged");

    let series_defended = tap_defended.with_tap(|t| t.series("pin"));
    let series_direct = tap_direct.with_tap(|t| t.series("pin"));
    assert_eq!(series_defended.len(), series_direct.len());
    for (a, b) in series_defended.iter().zip(series_direct.iter()) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.chunks, b.chunks, "tap series diverged at {}", a.label);
    }
    let streaming_defended = tap_defended.with_tap(|t| t.streaming().clone());
    let streaming_direct = tap_direct.with_tap(|t| t.streaming().clone());
    assert_eq!(
        streaming_defended, streaming_direct,
        "running attack state diverged"
    );

    let params = LocalityParams::default();
    for kind in [
        AttackKind::Basic,
        AttackKind::Locality,
        AttackKind::Advanced,
    ] {
        let inf_defended =
            tap_defended.with_tap(|t| t.streaming_inference_both_policies(kind, &aux, &params));
        let inf_direct =
            tap_direct.with_tap(|t| t.streaming_inference_both_policies(kind, &aux, &params));
        for ((pa, a), (pb, b)) in inf_defended.iter().zip(inf_direct.iter()) {
            assert_eq!(pa, pb);
            assert_eq!(
                sorted_pairs(a),
                sorted_pairs(b),
                "{kind} inference diverged under {pa:?}"
            );
        }
    }
}

#[test]
fn tunable_schemes_honor_their_budgets() {
    let (_aux, target) = fsl_pair();
    let unique = target.unique_count() as f64;
    for budget in [1.0, 1.2, 1.5, 2.0, 4.0] {
        for scheme in [
            Box::new(TedScheme::new(budget).unwrap()) as Box<dyn DefenseScheme>,
            Box::new(PartitionSmoothing::new(8, budget).unwrap()),
        ] {
            let enc = scheme.encrypt_backup(&target, &ctx());
            let blowup = enc.backup.unique_count() as f64 / unique;
            assert!(
                blowup <= budget + 1e-9,
                "{} at budget {budget}: blowup {blowup}",
                scheme.name()
            );
            assert_eq!(enc.backup.len(), target.len());
        }
    }
}

#[test]
fn constructors_reject_bad_parameters_with_typed_errors() {
    assert!(matches!(
        TedScheme::new(0.5),
        Err(DefenseError::BudgetBelowOne { .. })
    ));
    assert!(matches!(
        TedScheme::new(f64::NAN),
        Err(DefenseError::BudgetBelowOne { .. })
    ));
    assert!(matches!(
        PartitionSmoothing::new(0, 1.5),
        Err(DefenseError::ZeroPartitions)
    ));
    assert!(matches!(
        PartitionSmoothing::new(33, 1.5),
        Err(DefenseError::TooManyPartitions { .. })
    ));
    assert!(matches!(
        PartitionSmoothing::new(8, 0.99),
        Err(DefenseError::BudgetBelowOne { .. })
    ));
    // The errors carry their parameters into the message.
    let err = TedScheme::new(0.5).unwrap_err();
    assert!(err.to_string().contains("0.5"), "{err}");
}
