//! Injected persist-layer faults (cargo feature `fault-inject`): an I/O
//! error on the journal append must reject the submission — never ack a
//! job that was not made durable — and a short write must leave a torn
//! record that the next startup skips without panicking.

#![cfg(feature = "fault-inject")]

mod common;

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use columba_service::{
    arm_persist_fault, FsyncPolicy, JobState, PersistConfig, PersistFault, Service, ServiceConfig,
    SubmitError,
};

const TINY: &str = "chip t\nmixer m1\nport a\nport b\n\
                    connect a -> m1.left\nconnect m1.right -> b\n";

fn fresh_state_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "columba-persist-fault-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open(state_dir: &Path) -> Service {
    let mut options = common::deterministic_options();
    options.layout.time_limit = Duration::from_secs(60);
    Service::open(ServiceConfig {
        workers: 1,
        options,
        persist: Some(PersistConfig {
            state_dir: state_dir.to_path_buf(),
            fsync_policy: FsyncPolicy::Never,
        }),
        ..ServiceConfig::default()
    })
    .expect("state dir opens")
}

#[test]
fn journal_io_error_rejects_the_submission() {
    let dir = fresh_state_dir("io-error");
    let service = open(&dir);
    {
        let _fault = arm_persist_fault(PersistFault::IoError, 0);
        match service.submit_text(TINY) {
            Err(SubmitError::Persist { detail }) => {
                assert!(!detail.is_empty(), "rejection names the cause");
            }
            other => panic!("unjournaled submission must be rejected, got {other:?}"),
        }
        assert!(service.metrics().persist_errors >= 1);
    }
    // disarmed, the same submission goes through and completes; the guard
    // trips no write but keeps a concurrent test's fault out of this one
    let _quiet = arm_persist_fault(PersistFault::IoError, usize::MAX);
    let id = service.submit_text(TINY).expect("admitted after disarm");
    let status = service
        .wait(id, Duration::from_secs(120))
        .expect("job known");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    service.shutdown();
}

#[test]
fn short_write_tears_the_record_and_recovery_skips_it() {
    let dir = fresh_state_dir("short-write");
    {
        let service = open(&dir);
        {
            let _fault = arm_persist_fault(PersistFault::ShortWrite, 0);
            assert!(
                matches!(service.submit_text(TINY), Err(SubmitError::Persist { .. })),
                "a torn journal append must reject the submission"
            );
        }
        service.shutdown();
    }
    // the torn frame is on disk; reopening skips it, counts it, and the
    // service still works (under a guard that trips no write, as above)
    let _quiet = arm_persist_fault(PersistFault::IoError, usize::MAX);
    let service = open(&dir);
    let m = service.metrics();
    assert!(
        m.journal_corrupt_skipped >= 1,
        "the torn record is skipped, not replayed: {m:?}"
    );
    let id = service.submit_text(TINY).expect("admitted");
    let status = service
        .wait(id, Duration::from_secs(120))
        .expect("job known");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    service.shutdown();
}
