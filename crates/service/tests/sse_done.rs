//! Regression test: a job's SSE stream ends as soon as the job is `Done`.
//!
//! A finished job traces its last event (`solved`) *before* its state
//! flips to `Done`. A stream that reads the job in that window sees it
//! still running and blocks until the event counter moves. The flip itself
//! must move it; otherwise the stream sleeps until its next heartbeat.
//!
//! The window is forced deterministically: a trace sink arms a gate when
//! the worker records `solved`, the clock parks that worker at its next
//! clock read (after the event's wake-up, before the flip), and the gate
//! opens only once the stream has read the running job and blocked for
//! its 60 s heartbeat. Time is virtual ([`SimClock`]), but a `SimClock`
//! wait re-polls every half millisecond of real time, which would hide a
//! missing wake-up; the gated clock lets the heartbeat wait block for
//! [`STALL`] of real time instead, as a real condvar wait would. With the
//! wake-up the stream ends at once; without it, it ends only after `STALL`.

mod common;

use std::fmt;
use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

use columba_service::{
    Clock, ClockParty, HttpConfig, HttpServer, Service, ServiceConfig, SimClock, SimNet,
    TraceEvent, TraceKind, TraceSink,
};

const TINY: &str = "chip t\nmixer m1\nport a\nport b\n\
                    connect a -> m1.left\nconnect m1.right -> b\n";
const HEARTBEAT: Duration = Duration::from_secs(60);
/// Real time a heartbeat wait blocks unless notified.
const STALL: Duration = Duration::from_secs(20);

#[derive(Debug, Default)]
struct GateState {
    /// The worker to park at its next wake-up.
    armed: Option<ThreadId>,
    parked: bool,
    released: bool,
}

/// Parks one armed thread inside [`Clock::now`] until released.
#[derive(Debug, Default)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl Gate {
    fn arm_current_thread(&self) {
        let mut st = self.state.lock().unwrap();
        if !st.released {
            st.armed = Some(thread::current().id());
        }
    }

    fn park_if_armed(&self) {
        let mut st = self.state.lock().unwrap();
        if st.armed != Some(thread::current().id()) {
            return;
        }
        st.armed = None;
        st.parked = true;
        self.cv.notify_all();
        while !st.released {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn release_if_parked(&self) {
        let mut st = self.state.lock().unwrap();
        if st.parked && !st.released {
            st.released = true;
            self.cv.notify_all();
        }
    }

    fn wait_parked(&self) {
        let st = self.state.lock().unwrap();
        let (st, _) = self
            .cv
            .wait_timeout_while(st, Duration::from_secs(120), |s| !s.parked)
            .unwrap();
        assert!(st.parked, "the worker never traced `solved`");
    }
}

/// A [`SimClock`] whose `now` parks the gate's armed thread, and whose
/// heartbeat-length wait (the blocked SSE stream) opens the gate and
/// blocks until notified or [`STALL`] passes.
struct GatedClock {
    sim: Arc<SimClock>,
    gate: Arc<Gate>,
}

impl fmt::Debug for GatedClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("GatedClock")
    }
}

impl Clock for GatedClock {
    fn now(&self) -> Duration {
        self.gate.park_if_armed();
        self.sim.now()
    }
    fn sleep(&self, d: Duration) {
        self.sim.sleep(d);
    }
    fn wait_begin(&self, timeout: Duration) -> (Duration, u64) {
        let (slice, token) = self.sim.wait_begin(timeout);
        if timeout > HEARTBEAT - Duration::from_secs(1) && timeout <= HEARTBEAT {
            self.gate.release_if_parked();
            return (STALL, token);
        }
        (slice, token)
    }
    fn wait_end(&self, token: u64) {
        self.sim.wait_end(token);
    }
    fn party_begin(&self) {
        self.sim.party_begin();
    }
    fn party_end(&self) {
        self.sim.party_end();
    }
    fn party_reserve(&self) {
        self.sim.party_reserve();
    }
    fn party_adopt(&self) {
        self.sim.party_adopt();
    }
    fn party_unreserve(&self) {
        self.sim.party_unreserve();
    }
    fn mark_wake(&self) {
        self.sim.mark_wake();
    }
}

/// Arms the gate on the worker that traces `solved`. The event's own clock
/// read (its timestamp) comes before the sink, so the next read on that
/// thread is the worker's elapsed-time reading just before the flip.
struct ArmOnSolved(Arc<Gate>);

impl TraceSink for ArmOnSolved {
    fn record(&self, event: &TraceEvent) {
        if event.kind == TraceKind::Solved {
            self.0.arm_current_thread();
        }
    }
}

#[test]
fn event_stream_ends_as_soon_as_the_job_is_done() {
    let gate = Arc::new(Gate::default());
    let clock: Arc<dyn Clock> = Arc::new(GatedClock {
        sim: SimClock::new(),
        gate: Arc::clone(&gate),
    });
    let _party = ClockParty::enter(&clock);
    let net = SimNet::new(Arc::clone(&clock));
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        options: common::deterministic_options(),
        clock: Some(Arc::clone(&clock)),
        trace: Arc::new(ArmOnSolved(Arc::clone(&gate))),
        ..ServiceConfig::default()
    }));
    let mut server = HttpServer::serve_on(
        Arc::clone(&service),
        Arc::new(net.clone()),
        HttpConfig {
            sse_heartbeat: HEARTBEAT,
            sse_deadline: Duration::from_secs(600),
            ..HttpConfig::default()
        },
    )
    .expect("serve_on the sim network");

    let id = service.submit_text(TINY).expect("admitted");
    // the worker is now parked between its `solved` event and the flip
    gate.wait_parked();
    assert!(
        !service.status(id).expect("known job").state.is_terminal(),
        "the gate must hold the job short of its terminal state"
    );

    let start = clock.now();
    let real_start = std::time::Instant::now();
    let mut sock = net.connect();
    sock.set_read_timeout(Some(Duration::from_secs(300)));
    sock.set_write_timeout(Some(Duration::from_secs(30)));
    let request = format!("GET /jobs/{}/events HTTP/1.1\r\n\r\n", id.0);
    sock.write_all(request.as_bytes()).expect("request written");
    sock.shutdown_write();
    let mut raw = Vec::new();
    sock.read_to_end(&mut raw).expect("stream read to its end");
    sock.close();
    let took = clock.now() - start;
    let real = real_start.elapsed();
    let text = String::from_utf8_lossy(&raw);

    assert!(text.contains("event: solved"), "{text}");
    assert!(text.contains("event: end"), "{text}");
    assert!(text.contains("state done"), "{text}");
    assert!(
        !text.contains(": hb"),
        "the stream waited for a heartbeat: {text}"
    );
    assert!(
        took < Duration::from_secs(5) && real < STALL / 2,
        "the stream ended {took:?} ({real:?} of real time) after the request, \
         not when the job finished"
    );
    server.shutdown();
    service.shutdown();
}
