//! The `service` workload: one client in a closed loop talking real TCP
//! to an in-process `HttpServer` in front of `Service::open`.
//!
//! The run is a series of rounds. Each round opens the service on a
//! fresh state directory (one worker, persisted state, every job
//! synthesized with `node_limit = 0` at one solver thread), sends the
//! round's requests one at a time and closes the service. A request is
//! `POST /synthesize` (or `/synthesize-assay`), then a blocking
//! `Service::wait` until the job is terminal, then `GET /jobs/<id>/svg`;
//! its latency runs from submit to the last SVG byte.
//!
//! A round's designs are the fixed reference set and one design the seed
//! draws from each stratum of the spec space: ChIP netlists of 16 to 128
//! lanes with one or two MUX, and the two parametric assay families, each
//! family cut into runs of [`STRATUM`] neighbouring sizes. They go out in
//! seed order, each first request followed by [`HITS_PER_COLD`] repeats of
//! designs the round has already sent, which the design cache serves. The
//! mix is synthetic (see [`HITS_PER_COLD`]). Every round thus does about
//! the same work: its figures differ from another round's by what the
//! machine did, not by what the seed drew, and the median over the rounds
//! passes over a minority of disturbed rounds. The output check
//! synthesizes the reference set again directly.
//!
//! A request is `cold` when it is its round's first request of its
//! design and the design cache did not serve it, and `hit` when the cache
//! served it. Each round starts with an empty cache that is sized to hold
//! every design of the round, so a cold request is always a first-time
//! design and the cache evicts nothing. A repeat the cache did not serve
//! is counted apart as re-solved and is in neither class; with one client
//! there should be none.
//!
//! One client and one worker keep one request in flight, so a request's
//! latency is the service's own path and not the time it waited for the
//! CPU behind another request. `run.py` also pins the process to one
//! core: on a shared virtual machine every hand-off between the client,
//! HTTP and worker threads that crosses to the other core waits for that
//! core to be scheduled, and with two clients and two workers on two
//! cores the cache-hit latency and the request rate of three runs spread
//! by 28% to 67% (quartile distance over median), moving with the host's
//! CPU steal.
//!
//! The wait is in-process because neither HTTP way to wait measures the
//! service alone. The SSE route `GET /jobs/<id>/events` stalls for its
//! 5 s heartbeat in about one request of two hundred: a job's last trace
//! event can land before its terminal state, and the state change does
//! not wake the stream. Polling `GET /jobs/<id>` adds the poll interval
//! to every latency and the polls' own load to the core.
//!
//! The persist layer runs with `FsyncPolicy::Never`: every journal
//! append, design file write and rename happens, but not the fsync
//! calls. On a shared virtual disk their latency varies from run to run
//! by more than the whole cache-hit latency; with them, the cache-hit p50
//! and p90 of runs on five seeds spread by 64% and 85%, without them by
//! 4% and 5%.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use columba_prng::Rng;
use columba_s::netlist::{generators, MuxCount};
use columba_schedule::generators as assays;
use columba_service::{
    metric_value, CacheConfig, CompletedDesign, FsyncPolicy, HttpConfig, HttpServer, JobId,
    JobState, PersistConfig, Service, ServiceConfig,
};

use crate::designs::{shuffle, synthesis_options, Pool, Workload};
use crate::flow::Input;
use crate::report::{geomean, median, peak_heap_mb, peak_rss_mb, percentile, ratio, Metrics};
use crate::{Args, RunResult};

const WORKERS: usize = 1;

/// Repeats sent after each design's first request in a round. The mix is
/// a synthetic assumption: no record of real traffic exists to draw it
/// from. At ten, about a fifth of a round's time goes to cache hits, and
/// a 30 s run gathers several hundred cold and several thousand hit
/// samples.
const HITS_PER_COLD: usize = 10;
/// Neighbouring sizes of one family in a stratum. A round draws one
/// design per stratum, and designs eight sizes apart cost about the same.
const STRATUM: usize = 8;
/// Cold and cache-hit samples each run needs, so that p90 has at least
/// ten samples beyond it.
const MIN_SAMPLES: usize = 100;
/// Cold results beyond the reference set that the output check
/// synthesizes again directly: the first ones of the run.
const ORACLE_SAMPLE: usize = 4;
/// Terminal job records the service keeps. Each record holds its
/// design, so the default of 4096 would let the heap grow with every
/// request a round completes.
const MAX_RECORDS: usize = 512;
/// Design-cache limits far above the bytes and entries of every design a
/// round sends, so that no entry is evicted.
const CACHE: CacheConfig = CacheConfig {
    capacity_bytes: 1 << 30,
    max_entries: 4096,
};
/// How long the set-up repeats before each round; the round runs on the
/// service of the last repeat. Spread over the run like this, the median
/// repeat passes over a slow spell of the disk that would shift a single
/// block.
const SETUP_BLOCK: Duration = Duration::from_millis(50);
/// A solve time limit far above any job's expected time.
const TIME_LIMIT: Duration = Duration::from_secs(60);
const BUNDLED_ASSAYS: [&str; 2] = ["library_prep", "pooled_capture"];
/// Fewest ChIP lanes drawn. Below 16 lanes the chip does not merge into
/// one parallel group and its single root LP takes 0.15 to 5.4 s, which
/// the `polish` workload already measures; here it would let the number
/// of such draws set the service's figures.
const MIN_LANES: usize = 16;

/// One drawn request; [`Spec::input`] renders its text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Spec {
    Chip { lanes: usize, two_mux: bool },
    Bundled(usize),
    PooledCapture(usize),
    SerialDilution(usize),
}

/// The designs every round sends, and the output check synthesizes
/// again directly.
const REFERENCE: [Spec; 5] = [
    Spec::Chip {
        lanes: 16,
        two_mux: false,
    },
    Spec::Chip {
        lanes: 32,
        two_mux: true,
    },
    Spec::Chip {
        lanes: 128,
        two_mux: false,
    },
    Spec::Bundled(0),
    Spec::Bundled(1),
];

impl Spec {
    fn name(self) -> String {
        match self {
            Spec::Chip { lanes, two_mux } => {
                format!("chip{lanes}ip_mux{}", 1 + usize::from(two_mux))
            }
            Spec::Bundled(i) => BUNDLED_ASSAYS[i].to_string(),
            Spec::PooledCapture(k) => format!("pooled_capture{k}"),
            Spec::SerialDilution(k) => format!("serial_dilution{k}"),
        }
    }

    fn input(self, bundled: &[String]) -> Input {
        match self {
            Spec::Chip { lanes, two_mux } => {
                let mux = if two_mux {
                    MuxCount::Two
                } else {
                    MuxCount::One
                };
                Input::Netlist(generators::chip_ip(lanes, mux).to_text())
            }
            Spec::Bundled(i) => Input::Assay(bundled[i].clone()),
            Spec::PooledCapture(k) => Input::Assay(assays::pooled_capture(k).to_text()),
            Spec::SerialDilution(k) => Input::Assay(assays::serial_dilution(k).to_text()),
        }
    }
}

/// The strata a round draws one design from each: every family of the
/// spec space (the ChIPs of [`MIN_LANES`] to 128 lanes with one MUX, with
/// two, and the parametric assays over the ranges within which they make
/// distinct assays), without the reference set, in runs of [`STRATUM`]
/// neighbouring sizes.
fn strata() -> Vec<Vec<Spec>> {
    let chips = |two_mux| -> Vec<Spec> {
        (MIN_LANES..=128)
            .map(|lanes| Spec::Chip { lanes, two_mux })
            .collect()
    };
    let families = [
        chips(false),
        chips(true),
        (1..=9).map(Spec::PooledCapture).collect(),
        (2..=64).map(Spec::SerialDilution).collect(),
    ];
    let mut strata = Vec::new();
    for family in families {
        let rest: Vec<Spec> = family
            .into_iter()
            .filter(|s| !REFERENCE.contains(s))
            .collect();
        strata.extend(rest.chunks(STRATUM).map(<[Spec]>::to_vec));
    }
    strata
}

/// One round's requests in order: the reference set and one design per
/// stratum in seed order, each first request followed by
/// [`HITS_PER_COLD`] repeats of designs the round has already sent.
fn draw_round(rng: &mut Rng, strata: &[Vec<Spec>]) -> Vec<Spec> {
    let mut designs = REFERENCE.to_vec();
    designs.extend(strata.iter().map(|s| s[rng.gen_range(0..s.len())]));
    shuffle(rng, &mut designs);
    let mut round = Vec::with_capacity(designs.len() * (1 + HITS_PER_COLD));
    for (i, &spec) in designs.iter().enumerate() {
        round.push(spec);
        round.extend((0..HITS_PER_COLD).map(|_| designs[rng.gen_range(0..=i)]));
    }
    round
}

struct Running {
    service: Arc<Service>,
    server: HttpServer,
    state_dir: PathBuf,
}

impl Running {
    fn open(state_dir: PathBuf) -> Result<Running, String> {
        let _ = std::fs::remove_dir_all(&state_dir);
        let service = Service::open(ServiceConfig {
            workers: WORKERS,
            queue_capacity: 64,
            options: synthesis_options(0, TIME_LIMIT),
            job_deadline: None,
            max_records: MAX_RECORDS,
            cache: CACHE,
            // Every journal and cache write still happens; only the
            // fsync calls are skipped (see the module docs).
            persist: Some(PersistConfig {
                fsync_policy: FsyncPolicy::Never,
                ..PersistConfig::at(&state_dir)
            }),
            ..ServiceConfig::default()
        })
        .map_err(|e| format!("service open: {e}"))?;
        let service = Arc::new(service);
        let server = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", HttpConfig::default())
            .map_err(|e| format!("http bind: {e}"))?;
        Ok(Running {
            service,
            server,
            state_dir,
        })
    }

    fn close(mut self) {
        self.server.shutdown();
        self.service.shutdown();
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes every
/// connection after its response). Returns the status and the body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("timeout: {e}"))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response without a head")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response without a status")?;
    Ok((status, body.to_string()))
}

/// One completed client request.
struct Sample {
    spec: Spec,
    round: usize,
    /// Submit sent, job id received, job terminal, last SVG byte received.
    at: [Instant; 4],
    from_cache: bool,
    /// The round's first request of its spec.
    first: bool,
}

impl Sample {
    fn phase_s(&self, i: usize) -> f64 {
        (self.at[i + 1] - self.at[i]).as_secs_f64()
    }

    fn latency_s(&self) -> f64 {
        (self.at[3] - self.at[0]).as_secs_f64()
    }

    fn class(&self) -> &'static str {
        match (self.from_cache, self.first) {
            (true, _) => "hit",
            (false, true) => "cold",
            (false, false) => "resolved",
        }
    }
}

/// Sends one request and checks what came back.
fn request(
    running: &Running,
    spec: Spec,
    round: usize,
    first: bool,
    input: &Input,
) -> Result<(Sample, Arc<CompletedDesign>), String> {
    let (service, addr) = (&running.service, running.server.addr());
    let route = match input {
        Input::Netlist(_) => "/synthesize",
        Input::Assay(_) => "/synthesize-assay",
    };
    let t0 = Instant::now();
    let (status, body) = http(addr, "POST", route, input.text())?;
    if status != 202 {
        return Err(format!("submit refused with {status}: {}", body.trim()));
    }
    let id = body
        .trim()
        .strip_prefix("id ")
        .and_then(|v| v.parse().ok())
        .map(JobId)
        .ok_or_else(|| format!("submit answered {body:?}"))?;
    let t1 = Instant::now();
    let job = service
        .wait(id, TIME_LIMIT * 2)
        .ok_or_else(|| format!("job {id} unknown"))?;
    let t2 = Instant::now();
    let (status, svg) = http(addr, "GET", &format!("/jobs/{id}/svg"), "")?;
    let t3 = Instant::now();
    if status != 200 || !svg.contains("<svg") {
        return Err(format!("job {id} svg export answered {status}"));
    }

    // The output checks read the service in-process, after the latency.
    let design = job
        .design
        .as_ref()
        .ok_or_else(|| format!("job {id} has no design"))?;
    if job.state != JobState::Done || !design.summary.drc_clean {
        return Err(format!(
            "job {id}: state {} drc_clean {}",
            job.state, design.summary.drc_clean
        ));
    }
    if job.rung.as_deref() != Some("full MILP") || design.solved_in >= TIME_LIMIT {
        return Err(format!(
            "budget guard: job {id} ran at rung {:?} in {:?}",
            job.rung, design.solved_in
        ));
    }
    if design.scr.is_empty() || design.svg != svg {
        return Err(format!(
            "job {id}: SCR empty or served SVG differs from the stored one"
        ));
    }
    let sample = Sample {
        spec,
        round,
        at: [t0, t1, t2, t3],
        from_cache: job.from_cache,
        first,
    };
    Ok((sample, Arc::clone(design)))
}

/// What the closed loop produced.
#[derive(Default)]
struct Loop {
    samples: Vec<Sample>,
    failures: Vec<String>,
    /// The served designs the output check compares.
    served: Vec<(Spec, Arc<CompletedDesign>)>,
    /// Each round's completed requests per second, and the median and
    /// p90 of its cache-hit latencies.
    rates: Vec<f64>,
    hit_p50: Vec<f64>,
    hit_p90: Vec<f64>,
    /// Design-cache evictions over all rounds.
    evictions: f64,
    /// The last round's `/metrics`, scraped when its requests are done.
    scraped: String,
    /// The time of every set-up repeat.
    setups: Vec<f64>,
}

/// The set-up the run repeats: cut the spec space into strata, load the
/// bundled assays, open the service on a fresh state directory and bind
/// its HTTP front end. Returns its time and the open service.
fn set_up(dir: &Path) -> Result<(f64, Running), String> {
    let t = Instant::now();
    std::hint::black_box(strata());
    std::hint::black_box(load_bundled()?);
    let running = Running::open(dir.to_path_buf())?;
    Ok((t.elapsed().as_secs_f64(), running))
}

/// Runs rounds until `window` has passed; the round under way when it
/// passes runs to its end. Each round follows [`SETUP_BLOCK`] of set-up
/// repeats and is timed from its first request to its last. Keeps the
/// served designs the output check compares: the first cold result of
/// each reference spec and the first [`ORACLE_SAMPLE`] cold results of
/// other specs.
fn closed_loop(
    dir: &Path,
    rng: &mut Rng,
    strata: &[Vec<Spec>],
    bundled: &[String],
    window: Duration,
) -> Result<Loop, String> {
    let mut out = Loop::default();
    let start = Instant::now();
    for round in 0.. {
        if start.elapsed() >= window {
            break;
        }
        let block = Instant::now();
        let running = loop {
            let (t, running) = set_up(dir)?;
            out.setups.push(t);
            if block.elapsed() >= SETUP_BLOCK {
                break running;
            }
            running.close();
        };
        let specs = draw_round(rng, strata);
        let mut sent = HashSet::new();
        let mut hits = Vec::new();
        let mut completed = 0;
        let begin = Instant::now();
        for &spec in &specs {
            let input = spec.input(bundled);
            let first = sent.insert(spec);
            match request(&running, spec, round, first, &input) {
                Ok((sample, design)) => {
                    completed += 1;
                    if sample.from_cache {
                        hits.push(sample.latency_s());
                    } else {
                        let others = out
                            .served
                            .iter()
                            .filter(|(s, _)| !REFERENCE.contains(s))
                            .count();
                        let wanted = REFERENCE.contains(&spec) || others < ORACLE_SAMPLE;
                        if wanted && !out.served.iter().any(|(s, _)| *s == spec) {
                            out.served.push((spec, design));
                        }
                    }
                    out.samples.push(sample);
                }
                Err(e) => out.failures.push(format!("{}: {e}", spec.name())),
            }
        }
        out.rates
            .push(completed as f64 / begin.elapsed().as_secs_f64());
        out.hit_p50.push(median(&hits));
        out.hit_p90.push(percentile(&hits, 0.9));
        let (status, scraped) = http(running.server.addr(), "GET", "/metrics", "")?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        out.evictions += metric_value(&scraped, "cache_evictions").unwrap_or(0.0);
        out.scraped = scraped;
        running.close();
    }
    Ok(out)
}

/// Checks that the service produced the same design as a direct call on
/// the same text and options: the same headline numbers and
/// byte-identical SVG and SCR. Returns the direct call's objective and
/// area in mm².
fn compare(served: &CompletedDesign, w: &Workload, i: usize) -> Result<(f64, f64), String> {
    let direct = w.plain(i)?;
    let (sum, stats) = (&served.summary, direct.stats);
    let same = (sum.width_mm - stats.width.to_mm()).abs() < 1e-9
        && (sum.height_mm - stats.height.to_mm()).abs() < 1e-9
        && sum.control_inlets == stats.control_inlets;
    if !same {
        return Err(format!(
            "service design {:.3}x{:.3} mm, {} control inlets; direct {stats}",
            sum.width_mm, sum.height_mm, sum.control_inlets
        ));
    }
    if direct.svg != served.svg.as_bytes() || direct.scr != served.scr.as_bytes() {
        return Err("service SVG or SCR differs from the direct render".into());
    }
    Ok((direct.objective, direct.stats.area_mm2()))
}

fn state_dir(out_dir: &Path, seed: u64) -> PathBuf {
    out_dir.join(format!("service-state-{}-{seed}", std::process::id()))
}

fn load_bundled() -> Result<Vec<String>, String> {
    BUNDLED_ASSAYS
        .iter()
        .map(|name| {
            let path = format!("cases/{name}.assay");
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            columba_schedule::Assay::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            Ok(text)
        })
        .collect()
}

/// Runs the `service` workload.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let dir = state_dir(&args.out_dir, args.seed);
    let strata = strata();
    let bundled = load_bundled()?;
    let mut rng = Rng::seed_from_u64(args.seed);

    let window = Duration::from_secs_f64(args.seconds);
    let epoch = Instant::now();
    let Loop {
        samples,
        failures,
        served,
        rates,
        hit_p50,
        hit_p90,
        evictions,
        scraped,
        setups,
    } = closed_loop(&dir, &mut rng, &strata, &bundled, window)?;
    let mut result = RunResult {
        attempted: samples.len() + failures.len(),
        failures,
        ..RunResult::default()
    };
    let class = |c: &str| -> Vec<&Sample> { samples.iter().filter(|s| s.class() == c).collect() };
    let (cold, hit) = (class("cold"), class("hit"));
    let scrape = |name: &str| metric_value(&scraped, name).unwrap_or(0.0);
    println!(
        "{} requests in {} rounds ({:.3}s); round rates 1/s quartiles {:.2} {:.2} {:.2}; \
         samples: cold {} hit {}; re-solved repeats {}; measured hit share {:.3}; \
         cache evictions {evictions}; last round's cache {} entries, {:.1} MB; \
         {} took over 1 s, the slowest {:.3} s",
        samples.len(),
        rates.len(),
        epoch.elapsed().as_secs_f64(),
        percentile(&rates, 0.25),
        median(&rates),
        percentile(&rates, 0.75),
        cold.len(),
        hit.len(),
        class("resolved").len(),
        ratio(hit.len() as f64, samples.len() as f64),
        scrape("cache_entries"),
        scrape("cache_bytes") / (1024.0 * 1024.0),
        samples.iter().filter(|s| s.latency_s() > 1.0).count(),
        samples.iter().map(Sample::latency_s).fold(0.0, f64::max)
    );
    if cold.len() < MIN_SAMPLES || hit.len() < MIN_SAMPLES {
        result.fail(format!(
            "too few samples for p90: cold {} hit {}, {MIN_SAMPLES} each needed",
            cold.len(),
            hit.len()
        ));
    }

    // Output check: the reference set and a sample of cold results must
    // match a direct call on the same text and options. The reference
    // set goes first, in its own order.
    let mut oracle: Vec<Spec> = REFERENCE.to_vec();
    oracle.extend(
        served
            .iter()
            .map(|(s, _)| *s)
            .filter(|s| !REFERENCE.contains(s)),
    );
    let pool = Pool {
        names: oracle.iter().map(|s| s.name()).collect(),
        inputs: oracle.iter().map(|s| s.input(&bundled)).collect(),
        pinned: vec![None; oracle.len()],
    };
    let w = Workload::new(pool, 0, TIME_LIMIT);
    let mut objectives = Vec::new();
    let mut areas = Vec::new();
    for (i, spec) in oracle.iter().enumerate() {
        result.attempted += 1;
        let checked = match served.iter().find(|(s, _)| s == spec) {
            Some((_, design)) => compare(design, &w, i),
            None => Err("no cold result in the run".into()),
        };
        match checked {
            Ok((objective, area)) if REFERENCE.contains(spec) => {
                objectives.push(objective);
                areas.push(area);
            }
            Ok(_) => {}
            Err(e) => result.fail(format!("oracle {}: {e}", w.pool.names[i])),
        }
    }

    let latencies = |v: &[&Sample]| v.iter().map(|s| s.latency_s()).collect::<Vec<f64>>();
    let m = &mut result.metrics;
    if !args.trace {
        // Per-round figures, median over the rounds.
        m.add("designs_per_s", median(&rates), "1/s");
        // a cache hit lays nothing out
        m.add("layout_s_geomean", geomean(&latencies(&cold)), "s");
        m.add("objective_geomean", geomean(&objectives), "mm");
        m.add("area_mm2_geomean", geomean(&areas), "mm2");
        m.add("cold_s_p50", median(&latencies(&cold)), "s");
        m.add("cold_s_p90", percentile(&latencies(&cold), 0.9), "s");
        m.add("hit_s_p50", median(&hit_p50), "s");
        m.add("hit_s_p90", median(&hit_p90), "s");
        m.add("peak_heap_mb", peak_heap_mb(), "MB");
        println!("peak_rss_mb {:.3} (VmHWM, not a metric)", peak_rss_mb());
        println!(
            "set-up repeats {}: quartiles {:.6} {:.6} {:.6} s",
            setups.len(),
            percentile(&setups, 0.25),
            median(&setups),
            percentile(&setups, 0.75)
        );
        m.add("setup_s", median(&setups), "s");
        return Ok(result);
    }

    // The traced run: the library layers on the output check's designs,
    // the service layer from the closed loop and the last round's
    // `/metrics` (the allocator counts are the whole process's).
    w.trace_layers(args, &mut result)?;
    let m = &mut result.metrics;
    let phase = |i: usize| median(&samples.iter().map(|s| s.phase_s(i)).collect::<Vec<_>>());
    m.add("service.submit_s_p50", phase(0), "s");
    m.add("service.wait_s_p50", phase(1), "s");
    m.add("service.export_s_p50", phase(2), "s");
    m.add(
        "service.cache_hit_frac",
        ratio(hit.len() as f64, samples.len() as f64),
        "ratio",
    );
    let busy: f64 = (0..WORKERS)
        .map(|i| scrape(&format!("worker_busy_fraction_{i}")))
        .sum();
    m.add("service.worker_busy_frac", busy / WORKERS as f64, "ratio");
    for sub in ["milp", "layout", "schedule", "service"] {
        m.add(
            format!("service.alloc_bytes.{sub}"),
            scrape(&format!("alloc_subsystem_bytes_{sub}")),
            "bytes",
        );
    }
    // The request spans, one line per request: the request runs from
    // `submit_us` to `svg_us`, and its three phases (submit, wait,
    // export) split it at `id_us` and `terminal_us`.
    let mut trace = String::new();
    for (i, s) in samples.iter().enumerate() {
        let us = |t: Instant| t.saturating_duration_since(epoch).as_micros();
        let _ = writeln!(
            trace,
            "{{\"request\":{i},\"round\":{},\"spec\":\"{}\",\"class\":\"{}\",\
             \"submit_us\":{},\"id_us\":{},\"terminal_us\":{},\"svg_us\":{}}}",
            s.round,
            s.spec.name(),
            s.class(),
            us(s.at[0]),
            us(s.at[1]),
            us(s.at[2]),
            us(s.at[3])
        );
    }
    args.write_trace("requests.jsonl", &trace)?;
    Ok(result)
}

/// The service-layer metrics, as zeros, for the workloads that do not
/// run the service.
pub fn add_absent_service_metrics(m: &mut Metrics) {
    for (name, unit) in [
        ("service.submit_s_p50", "s"),
        ("service.wait_s_p50", "s"),
        ("service.export_s_p50", "s"),
        ("service.cache_hit_frac", "ratio"),
        ("service.worker_busy_frac", "ratio"),
        ("service.alloc_bytes.milp", "bytes"),
        ("service.alloc_bytes.layout", "bytes"),
        ("service.alloc_bytes.schedule", "bytes"),
        ("service.alloc_bytes.service", "bytes"),
    ] {
        m.add(name, 0.0, unit);
    }
}
