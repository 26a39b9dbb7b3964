//! Snapshot persistence suite: save→restore→continue fidelity across every
//! erase scheme, shadow-oracle agreement after restore, a torn-write
//! injection corpus, power-loss crash recovery, and the golden-fixture
//! format-compatibility pin.
//!
//! The golden fixtures under `tests/fixtures/` are regenerated with:
//!
//! ```text
//! AERO_BLESS_FIXTURES=1 cargo test -q --test persist
//! ```
//!
//! Re-bless only on a deliberate format change, together with a
//! `FORMAT_VERSION` bump.

use std::collections::HashSet;

use aero_core::fingerprint::fnv1a_64;
use aero_core::SchemeKind;
use aero_nand::FaultConfig;
use aero_ssd::{
    apply_torn_write, Auditor, PersistError, Ssd, SsdConfig, TornWrite, CHECKSUM_BYTES,
    FORMAT_VERSION, HEADER_BYTES, MAGIC,
};
use aero_workloads::{IoRequest, SyntheticWorkload, Trace, TraceSource};

/// A deterministic drive with wear, data, and a burst of traffic behind it.
fn exercised_drive(config: &SsdConfig) -> Ssd {
    let mut ssd = Ssd::new(config.clone());
    ssd.precondition_wear(800);
    ssd.fill_fraction(0.55);
    let trace = SyntheticWorkload::default_test().generate(600, 29);
    ssd.run_trace(&trace);
    ssd
}

fn split_trace(trace: &Trace, head_len: usize) -> (Trace, Trace) {
    let (head, tail): (&[IoRequest], &[IoRequest]) = trace.requests().split_at(head_len);
    (Trace::new(head.to_vec()), Trace::new(tail.to_vec()))
}

/// The acceptance bar: save→restore→continue is byte-identical to an
/// uninterrupted run, for all five erase schemes.
#[test]
fn save_restore_continue_is_byte_identical_for_every_scheme() {
    for scheme in SchemeKind::all() {
        let config = SsdConfig::small_test(scheme).with_seed(17);
        let trace = SyntheticWorkload::default_test().generate(320, 23);
        let (head, tail) = split_trace(&trace, 192);

        let mut control = Ssd::new(config.clone());
        control.fill_fraction(0.4);
        let mut subject = Ssd::new(config.clone());
        subject.fill_fraction(0.4);

        let head_control = control.run_trace(&head);
        let head_subject = subject.run_trace(&head);
        assert_eq!(head_control, head_subject, "{scheme}: head runs diverge");

        let bytes = subject.snapshot_bytes();
        let mut restored = Ssd::restore_snapshot_bytes(&bytes, &config)
            .unwrap_or_else(|e| panic!("{scheme}: restore failed: {e}"));
        assert_eq!(
            restored.snapshot_bytes(),
            bytes,
            "{scheme}: restore must re-serialize identically"
        );

        let tail_control = control.run_trace(&tail);
        let tail_restored = restored.run_trace(&tail);
        assert_eq!(
            tail_control, tail_restored,
            "{scheme}: continuation after restore diverges from the uninterrupted run"
        );
        assert_eq!(
            control.snapshot_bytes(),
            restored.snapshot_bytes(),
            "{scheme}: final drive states diverge"
        );
        let report = restored.audit();
        assert!(report.is_clean(), "{scheme}: {report}");
    }
}

/// A restored drive agrees with the `ShadowFtl` oracle captured before the
/// save: every logical page reads back the content the oracle last wrote.
#[test]
fn restored_drive_agrees_with_the_shadow_oracle() {
    let config = SsdConfig::small_test(SchemeKind::Aero).with_seed(3);
    let mut ssd = Ssd::new(config.clone());
    ssd.fill_fraction(0.5);
    let trace = SyntheticWorkload::default_test().generate(400, 7);

    let mut auditor = Auditor::new().check_every(64).with_oracle(&ssd);
    let mut sim = ssd.session(TraceSource::new(&trace));
    sim.attach_auditor(&mut auditor);
    sim.run_to_end();
    assert!(auditor.is_clean(), "live run: {}", auditor.report());

    let bytes = ssd.snapshot_bytes();
    let restored =
        Ssd::restore_snapshot_bytes(&bytes, &config).expect("snapshot of a clean drive restores");
    auditor.checkpoint(&restored);
    assert!(
        auditor.is_clean(),
        "restored drive diverges from the shadow FTL: {}",
        auditor.report()
    );
}

/// The torn-write corpus: truncation at every 64-byte boundary and
/// single-bit flips across header, body, and checksum must all surface as a
/// typed `PersistError` — never a panic, never a silently accepted drive.
#[test]
fn torn_write_corpus_is_rejected_with_typed_errors() {
    let config = SsdConfig::small_test(SchemeKind::IIspe).with_seed(41);
    let ssd = exercised_drive(&config);
    let bytes = ssd.snapshot_bytes();
    assert!(
        Ssd::restore_snapshot_bytes(&bytes, &config).is_ok(),
        "the pristine snapshot must restore"
    );

    // Truncation at every 64-byte boundary, plus the empty file.
    let mut truncations = 0usize;
    for cut in (0..bytes.len()).step_by(64) {
        let mut torn = bytes.clone();
        apply_torn_write(&mut torn, TornWrite::Truncate(cut));
        match Ssd::restore_snapshot_bytes(&torn, &config) {
            Err(_) => truncations += 1,
            Ok(_) => panic!("truncation to {cut} bytes restored without error"),
        }
    }
    assert!(
        truncations >= 2,
        "corpus too small: {truncations} truncations"
    );

    // Every bit of the header and trailing checksum, and a prime-strided
    // sample of body bits. A flip anywhere must be caught — the whole-file
    // checksum guarantees it even where the field itself would parse.
    let total_bits = bytes.len() * 8;
    let header_bits = 0..HEADER_BYTES * 8;
    let checksum_bits = (bytes.len() - CHECKSUM_BYTES) * 8..total_bits;
    let body_bits = (HEADER_BYTES * 8..(bytes.len() - CHECKSUM_BYTES) * 8).step_by(4099);
    let mut flips = 0usize;
    for bit in header_bits.chain(checksum_bits).chain(body_bits) {
        let mut torn = bytes.clone();
        apply_torn_write(&mut torn, TornWrite::FlipBit(bit));
        match Ssd::restore_snapshot_bytes(&torn, &config) {
            Err(
                PersistError::BadMagic
                | PersistError::UnsupportedVersion { .. }
                | PersistError::ConfigMismatch { .. }
                | PersistError::ChecksumMismatch
                | PersistError::Truncated
                | PersistError::Corrupt(_)
                | PersistError::AuditFailed(_),
            ) => flips += 1,
            Err(other) => panic!("bit {bit}: unexpected error class {other:?}"),
            Ok(_) => panic!("bit flip at {bit} restored without error"),
        }
    }
    assert!(flips > 200, "corpus too small: {flips} bit flips");
}

/// Power loss mid-run: `crash_at` leaves a consistent drive whose snapshot
/// restores into a drive that finishes the rest of the workload cleanly.
#[test]
fn crash_snapshot_restore_finishes_the_workload() {
    let config = SsdConfig::small_test(SchemeKind::Dpes).with_seed(11);
    let mut ssd = Ssd::new(config.clone());
    ssd.fill_fraction(0.5);
    let trace = SyntheticWorkload::default_test().generate(500, 13);
    let (head, tail) = split_trace(&trace, 250);

    let processed = ssd.session(TraceSource::new(&head)).crash_at(700);
    assert!(processed <= 700);
    let report = ssd.audit();
    assert!(report.is_clean(), "post-crash drive: {report}");

    let bytes = ssd.snapshot_bytes();
    let mut restored =
        Ssd::restore_snapshot_bytes(&bytes, &config).expect("post-crash snapshot restores");
    let resumed = restored.run_trace(&tail);
    assert_eq!(
        resumed.reads_completed + resumed.writes_completed,
        tail.len() as u64,
        "the resumed session must complete every remaining request"
    );
    let report = restored.audit();
    assert!(report.is_clean(), "post-resume drive: {report}");
}

/// The deterministic drive behind the committed golden fixture.
fn golden_bytes() -> (SsdConfig, Vec<u8>) {
    let config = SsdConfig::small_test(SchemeKind::Aero).with_seed(7);
    let mut ssd = Ssd::new(config.clone());
    ssd.precondition_wear(300);
    ssd.fill_fraction(0.35);
    let trace = SyntheticWorkload::default_test().generate(200, 7);
    ssd.run_trace(&trace);
    (config, ssd.snapshot_bytes())
}

/// The deterministic drive behind the faulted golden fixture: a worn AERO
/// drive under every fault class, with GC running, that retires its spares
/// and goes read-only. Its lifetime counters are all non-zero and pairwise
/// different, and so are its erase statistics, so a codec that swaps two
/// of them cannot reproduce the committed bytes.
fn faulted_golden_bytes() -> (SsdConfig, Vec<u8>) {
    let config = SsdConfig::small_test(SchemeKind::Aero)
        .with_seed(1)
        .with_spare_blocks(3)
        .with_faults(FaultConfig {
            program_fail_per_million: 20_000,
            erase_fail_per_million: 10_000,
            grown_bad_per_million: 5_000,
            read_fault_per_million: 60_000,
        });
    let mut ssd = Ssd::new(config.clone());
    ssd.precondition_wear(4_000);
    ssd.fill_fraction(0.6);
    let trace = SyntheticWorkload {
        read_ratio: 0.5,
        mean_request_bytes: 16.0 * 1024.0,
        mean_inter_arrival_ns: 100_000.0,
        footprint_bytes: 4 << 20,
        hot_access_fraction: 0.9,
        hot_region_fraction: 0.3,
    }
    .generate(6_000, 1);
    // The drive was fresh before the fill, so the run-local report holds
    // its lifetime counters.
    let report = ssd.run_trace(&trace);
    let health = report.health;
    let mut counters = vec![
        report.gc_invocations,
        report.gc_page_moves,
        report.erase_suspensions,
        ssd.user_pages_written(),
        health.program_failures,
        health.erase_failures,
        health.media_errors,
        health.writes_rejected_read_only,
    ];
    counters.extend(health.read_retry_histogram);
    let stats = ssd.erase_stats();
    let mut erase = vec![
        stats.operations,
        stats.loops,
        stats.total_latency.as_nanos(),
        stats.total_stress.to_bits(),
        stats.partial_erases,
        stats.complete_erases,
        stats.max_latency.as_nanos(),
    ];
    for values in [&mut counters, &mut erase] {
        let count = values.len();
        values.sort_unstable();
        values.dedup();
        assert!(
            values.len() == count && values[0] != 0,
            "the faulted fixture drive needs non-zero, pairwise different values: {values:?}"
        );
    }
    assert!(
        ssd.read_only(),
        "the faulted fixture drive must go read-only"
    );
    (config, ssd.snapshot_bytes())
}

/// The committed fixtures pin format v2: each must keep restoring
/// byte-for-byte, and a version-bumped copy must be refused with the typed
/// error. The plain fixture pins the mapping, FTL and chip sections; the
/// faulted one also pins the counter, health and erase-statistics
/// sections with values no two of which are equal.
#[test]
fn golden_snapshot_fixture_pins_the_format() {
    for (name, (config, generated)) in [
        ("snapshot_v2.bin", golden_bytes()),
        ("snapshot_v2_faulted.bin", faulted_golden_bytes()),
    ] {
        check_golden_fixture(name, &config, &generated);
    }
}

fn check_golden_fixture(name: &str, config: &SsdConfig, generated: &[u8]) {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("AERO_BLESS_FIXTURES").is_ok() {
        std::fs::write(&path, generated).expect("bless the fixture");
    }
    let bytes = std::fs::read(&path).unwrap_or_else(|_| {
        panic!(
            "missing tests/fixtures/{name} — regenerate with \
             AERO_BLESS_FIXTURES=1 cargo test -q --test persist"
        )
    });
    assert_eq!(bytes[..8], MAGIC, "{name}: fixture magic");
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        FORMAT_VERSION,
        "{name}: the fixture pins the current format version"
    );
    assert_eq!(
        bytes, generated,
        "{name}: snapshot bytes drifted from the committed v2 fixture — if the \
         format change is deliberate, bump FORMAT_VERSION and re-bless"
    );

    let restored = Ssd::restore_snapshot_bytes(&bytes, config)
        .unwrap_or_else(|e| panic!("{name}: the fixture must restore: {e}"));
    let report = restored.audit();
    assert!(
        report.is_clean(),
        "{name}: restored fixture drive: {report}"
    );
    assert_eq!(
        restored.snapshot_bytes(),
        bytes,
        "{name}: stable re-serialization"
    );

    // The bump-version path: a future format is refused with the pair of
    // versions, before any body parsing. The checksum is recomputed so the
    // version field is the first thing that fails.
    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    let body_end = future.len() - CHECKSUM_BYTES;
    let sum = fnv1a_64(&future[..body_end]);
    future[body_end..].copy_from_slice(&sum.to_le_bytes());
    match Ssd::restore_snapshot_bytes(&future, config) {
        Err(PersistError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        Err(other) => panic!("{name}: expected UnsupportedVersion, got {other:?}"),
        Ok(_) => panic!("{name}: expected UnsupportedVersion, got a restored drive"),
    }
}

/// The retained v1 fixture pins the *rejection* of the previous format:
/// v1 snapshots carry no drive-health section, no per-die fault RNG, and
/// no erase-job failure flag, so restoring one as v2 would fabricate
/// health state. The decoder must refuse it with the version pair, before
/// any body parsing.
#[test]
fn committed_v1_fixture_is_refused_with_a_version_error() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/snapshot_v1.bin"
    );
    let bytes = std::fs::read(path)
        .expect("missing tests/fixtures/snapshot_v1.bin — the committed v1 rejection pin");
    assert_eq!(bytes[..8], MAGIC, "v1 fixture magic");
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        1,
        "the retained fixture must stay at format version 1"
    );
    let config = SsdConfig::small_test(SchemeKind::Aero).with_seed(7);
    match Ssd::restore_snapshot_bytes(&bytes, &config) {
        Err(PersistError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        Err(other) => panic!("expected UnsupportedVersion, got {other:?}"),
        Ok(_) => panic!("a v1 snapshot must not restore as v2"),
    }
}

/// `save_snapshot`/`restore_snapshot` are the streaming (io::Write/Read)
/// faces of the byte API and agree with it through a real file.
#[test]
fn snapshot_survives_a_round_trip_through_a_file() {
    let config = SsdConfig::small_test(SchemeKind::AeroCons).with_seed(5);
    let ssd = exercised_drive(&config);
    let dir = std::env::temp_dir();
    let path = dir.join("aero_persist_roundtrip.bin");
    {
        let mut file = std::fs::File::create(&path).expect("create temp snapshot");
        ssd.save_snapshot(&mut file).expect("save");
    }
    let mut file = std::fs::File::open(&path).expect("open temp snapshot");
    let restored = Ssd::restore_snapshot(&mut file, &config).expect("restore");
    assert_eq!(restored.snapshot_bytes(), ssd.snapshot_bytes());
    let _ = std::fs::remove_file(&path);
}

/// The corpus covers distinct error classes, not one blanket failure: the
/// header bits alone must surface magic, version, and fingerprint errors.
#[test]
fn header_flips_produce_distinct_error_classes() {
    let config = SsdConfig::small_test(SchemeKind::Baseline).with_seed(19);
    let ssd = exercised_drive(&config);
    let bytes = ssd.snapshot_bytes();
    let mut classes: HashSet<&'static str> = HashSet::new();
    for bit in 0..HEADER_BYTES * 8 {
        let mut torn = bytes.clone();
        apply_torn_write(&mut torn, TornWrite::FlipBit(bit));
        // Recompute the checksum so the header field itself is what fails.
        let body_end = torn.len() - CHECKSUM_BYTES;
        let sum = fnv1a_64(&torn[..body_end]);
        torn[body_end..].copy_from_slice(&sum.to_le_bytes());
        let class = match Ssd::restore_snapshot_bytes(&torn, &config) {
            Err(PersistError::BadMagic) => "magic",
            Err(PersistError::UnsupportedVersion { .. }) => "version",
            Err(PersistError::ConfigMismatch { .. }) => "fingerprint",
            Err(other) => panic!("header bit {bit}: unexpected {other:?}"),
            Ok(_) => panic!("header bit {bit} restored with a fixed checksum"),
        };
        classes.insert(class);
    }
    assert_eq!(
        classes,
        HashSet::from(["magic", "version", "fingerprint"]),
        "every header field must have its own typed rejection"
    );
}
