//! Measurement helpers: order statistics, per-slice throughput and CPU
//! cost, process CPU time, peak memory, CPU pinning, and the span
//! recorder behind `--trace 1`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Nearest-rank `p`-quantile (0 < p ≤ 1) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `n=<count>, <k> beyond p<q>`: a sample set's size and how many of
/// its samples lie past its nearest-rank `p`-quantile.
pub fn tally(samples: &[f64], p: f64) -> String {
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    format!(
        "n={n}, {} beyond p{}",
        n.saturating_sub(rank),
        (p * 100.0).round()
    )
}

/// Median as Python's `statistics.median` computes it (mean of the two
/// middle values for an even count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the spread rule of the comparison uses this.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ld = sorted.len() as i64;
    if ld < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (sorted[j as usize - 1] * (4.0 - delta) + sorted[j as usize] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 when the median is).
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The share of a run that interference from elsewhere on the machine
/// may spoil without moving a time metric. Other tenants slow this
/// machine in bursts of one to three seconds, and a run's median moves
/// with the share of it a burst covers; the boundary of its quietest
/// tenth moves far less.
pub const QUIET: f64 = 0.1;

/// The quiet end of costs, lower being better: the `QUIET` percentile,
/// which one sample in ten beats.
pub fn quiet_cost(samples: &[f64]) -> f64 {
    percentile(samples, QUIET)
}

/// The quiet end of rates, higher being better.
pub fn quiet_rate(samples: &[f64]) -> f64 {
    percentile(samples, 1.0 - QUIET)
}

/// Throughput, latency and CPU cost over slices of a fixed amount of
/// work. The caller closes a slice after each fixed batch of operations,
/// and each metric is the quiet end of its per-slice values.
pub struct Slices {
    start: Instant,
    cpu_s: f64,
    /// Per slice: operations per second of wall time.
    rates: Vec<f64>,
    /// Per slice: the median latency of its operations.
    median_us: Vec<f64>,
    /// Per slice: process CPU microseconds per operation.
    cpu_us_per_op: Vec<f64>,
}

impl Slices {
    /// Starts the first slice now.
    pub fn start() -> Slices {
        Slices {
            start: Instant::now(),
            cpu_s: process_cpu_s(),
            rates: Vec::new(),
            median_us: Vec::new(),
            cpu_us_per_op: Vec::new(),
        }
    }

    /// Closes the current slice, whose operations took `op_us` each,
    /// and starts the next.
    pub fn close(&mut self, op_us: &[f64]) {
        let (now, cpu_s) = (Instant::now(), process_cpu_s());
        let ops = op_us.len().max(1) as f64;
        self.rates
            .push(ops / (now - self.start).as_secs_f64().max(1e-9));
        self.median_us.push(median(op_us));
        self.cpu_us_per_op.push((cpu_s - self.cpu_s) * 1e6 / ops);
        (self.start, self.cpu_s) = (now, cpu_s);
    }

    /// Starts the next slice now, leaving out the work done since the
    /// last one closed.
    pub fn skip(&mut self) {
        (self.start, self.cpu_s) = (Instant::now(), process_cpu_s());
    }

    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Operations per second, at the quiet end of the slices.
    pub fn throughput(&self) -> f64 {
        quiet_rate(&self.rates)
    }

    /// A slice's median operation latency, at the quiet end of the
    /// slices.
    pub fn latency_us(&self) -> f64 {
        quiet_cost(&self.median_us)
    }

    /// Process CPU microseconds per operation, at the quiet end of the
    /// slices.
    pub fn cpu_us_per_op(&self) -> f64 {
        quiet_cost(&self.cpu_us_per_op)
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to one CPU: the highest-numbered CPU it may run on. Returns that CPU,
/// or `None` if the affinity could not be read or set.
///
/// With every thread of the measured process on one CPU, a request's
/// hand-offs between client, server and builder threads are same-CPU
/// context switches. Across CPUs each hand-off wakes an idle virtual
/// CPU, and how long that takes depends on the host's load, not on this
/// program. Code that sizes itself by `available_parallelism` sees one
/// CPU.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable `cpu_set_t`-sized buffer whose
    // size is passed alongside it; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..16 * 64)
        .rev()
        .find(|&c| (allowed[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the mask names a CPU the thread may already use.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (rc == 0).then_some(cpu)
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system, all threads) this process has used.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call, and the
    // clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Identifies a recorded span; children name it as their parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// No parent: a root span.
pub const ROOT: Option<SpanId> = None;

#[derive(Debug, Clone)]
struct Span {
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans recorded around the benchmark's calls into each layer, kept in
/// memory and written as JSONL when the run ends. Every closed span also
/// adds its duration to a per-name sample list, which the per-layer
/// metrics are medians of; only the first `max_spans` spans are kept as
/// spans, so a long replay bounds the file without losing samples.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    max_spans: usize,
    durations_ns: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(max_spans: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            max_spans,
            durations_ns: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that will get children; close it with [`close`].
    ///
    /// [`close`]: Tracer::close
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, start: Instant) -> SpanId {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        let (name, dur) = (span.name, (end_ns - span.start_ns) as f64);
        self.durations_ns.entry(name).or_default().push(dur);
        if self.spans.len() > self.max_spans {
            // Past the cap only the open span stack matters; drop the
            // closed leaf so memory stays bounded.
            if id.0 == self.spans.len() - 1 {
                self.spans.pop();
            }
        }
    }

    /// Records a finished leaf span.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) {
        let id = self.open(name, parent, start);
        self.close(id, end);
    }

    /// Adds a duration sample without a span, for a phase the layer
    /// timed itself (the shard pipeline's `RebuildReport` phases).
    pub fn sample(&mut self, name: &'static str, ns: f64) {
        self.durations_ns.entry(name).or_default().push(ns);
    }

    /// Median duration of spans named `name`, in microseconds (0 if none).
    pub fn median_us(&self, name: &str) -> f64 {
        self.durations_ns.get(name).map_or(0.0, |v| median(v) / 1e3)
    }

    /// Number of spans closed under `name`.
    pub fn count(&self, name: &str) -> usize {
        self.durations_ns.get(name).map_or(0, Vec::len)
    }

    /// Median self time per span name in microseconds: each span's
    /// duration minus the part of it its kept child spans cover.
    pub fn self_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p.0] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            by_name.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        by_name.into_iter().map(|(k, v)| (k, median(&v))).collect()
    }

    /// Writes the kept spans as JSONL:
    /// `{id, parent, name, workload, start_ns, end_ns}`, one per line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{workload}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
        assert_eq!(tally(&v, 0.99), "n=100, 1 beyond p99");
        assert_eq!(tally(&v[..40], 0.75), "n=40, 10 beyond p75");
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(100);
        let t0 = t.epoch;
        let root = t.open("request", ROOT, t0);
        t.span("decode", Some(root), t0, t0 + Duration::from_micros(2));
        t.span(
            "handle",
            Some(root),
            t0 + Duration::from_micros(2),
            t0 + Duration::from_micros(7),
        );
        t.close(root, t0 + Duration::from_micros(10));
        let own = t.self_us();
        assert_eq!(own["request"], 3.0);
        assert_eq!(own["handle"], 5.0);
        assert_eq!(t.median_us("request"), 10.0);
        assert_eq!(t.count("decode"), 1);
    }

    #[test]
    fn slices_report_the_quiet_end_per_operation() {
        let mut slices = Slices::start();
        for ms in [20, 20, 20, 40, 60] {
            std::thread::sleep(Duration::from_millis(ms));
            slices.close(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, ms as f64]);
        }
        std::thread::sleep(Duration::from_millis(50));
        slices.skip();
        std::thread::sleep(Duration::from_millis(20));
        slices.close(&[1.0]);
        assert_eq!(slices.len(), 6);
        // 10 operations in a little over 20 ms: the slow slices and the
        // skipped sleep do not count.
        let rate = slices.throughput();
        assert!(rate > 300.0 && rate <= 500.0, "{rate}");
        assert_eq!(slices.latency_us(), 1.0);
        assert_eq!(quiet_cost(&[5.0, 1.0, 3.0]), 1.0);
        assert_eq!(quiet_rate(&[5.0, 1.0, 3.0]), 5.0);
        // Process CPU: other test threads may add to it.
        let cpu = slices.cpu_us_per_op();
        assert!(cpu.is_finite() && cpu >= 0.0, "{cpu}");
    }

    #[test]
    fn process_probes_read_sane_values() {
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
