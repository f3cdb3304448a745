//! The HTTP side of the benchmark: `/score` request pools with their
//! in-process expected scores, a minimal keep-alive client, the closed load
//! loop, and the `/metrics` scrape.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ml::Dataset;
use redsus_serve::{ScoreMode, ScoreOutput, ServedModel};

use crate::bdcgen::Rng;
use crate::trace::{Tracer, ROOT};

/// Latency limit behind the goodput: a request verified within it counts.
pub const LIMIT_S: f64 = 0.1;

/// One prepared `POST /score` request and the scores it must come back with.
pub struct Request {
    pub http: Vec<u8>,
    /// The CSV body alone (for timing the frame parse in-process).
    pub body_range: std::ops::Range<usize>,
    pub rows: usize,
    /// Row-major feature values, in the model's schema order.
    pub data: Vec<f32>,
    /// `ServedModel::score_block` on `data`.
    pub expected: Vec<f64>,
}

impl Request {
    pub fn body(&self) -> &str {
        std::str::from_utf8(&self.http[self.body_range.clone()]).expect("bodies are ASCII")
    }
}

/// How a pool of requests is drawn from a dataset.
#[derive(Clone, Copy)]
pub struct PoolSpec {
    pub requests: usize,
    pub min_rows: usize,
    pub max_rows: usize,
}

/// Draw a seeded pool of requests from `dataset`'s rows (with replacement)
/// and score each in-process on `served`. Request sizes are spread evenly
/// over `min_rows..=max_rows`, the same for every seed, so the work per
/// request does not move with the seed; the seed draws the rows.
pub fn build_pool(
    dataset: &Dataset,
    served: &ServedModel,
    spec: PoolSpec,
    seed: u64,
) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let header = dataset.feature_names().join(",");
    (0..spec.requests)
        .map(|i| {
            let rows =
                spec.min_rows + i * (spec.max_rows - spec.min_rows) / (spec.requests - 1).max(1);
            let mut csv = String::with_capacity(header.len() + rows * 400);
            csv.push_str(&header);
            csv.push('\n');
            let mut data = Vec::with_capacity(rows * dataset.n_features());
            for _ in 0..rows {
                let row = dataset.row(rng.below(dataset.n_rows()));
                for (j, v) in row.iter().enumerate() {
                    if j > 0 {
                        csv.push(',');
                    }
                    if v.is_nan() {
                        csv.push_str("nan");
                    } else {
                        let _ = write!(csv, "{v}");
                    }
                }
                csv.push('\n');
                data.extend_from_slice(row);
            }
            let mut http = format!(
                "POST /score HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
                csv.len(),
            )
            .into_bytes();
            let start = http.len();
            http.extend_from_slice(csv.as_bytes());
            let expected =
                served.score_block(&data, ScoreOutput::Probability, ScoreMode::Sequential);
            Request {
                body_range: start..http.len(),
                http,
                rows,
                data,
                expected,
            }
        })
        .collect()
}

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub close: bool,
}

/// One client connection with its read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(64 << 10),
        })
    }

    /// Write one request and read its whole response.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Response> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 << 10];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed mid-head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let status: u16 = head
            .get(9..12)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = 0usize;
        let mut close = false;
        for line in head.lines().skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(Response {
            status,
            body: self.buf[head_end..head_end + length].to_vec(),
            close,
        })
    }
}

/// Whether a `/score` response carries exactly the expected scores, bit for
/// bit, from the expected model.
pub fn verify(response: &Response, request: &Request, fingerprint_hex: &str) -> bool {
    if response.status != 200 {
        return false;
    }
    let Ok(body) = std::str::from_utf8(&response.body) else {
        return false;
    };
    let fp_ok = body
        .split_once("\"fingerprint\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .is_some_and(|(fp, _)| fp == fingerprint_hex);
    let Some(scores) = body
        .split_once("\"scores\":[")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(scores, _)| scores)
    else {
        return false;
    };
    let mut n = 0;
    for (cell, want) in scores.split(',').zip(&request.expected) {
        let ok = match cell {
            "null" => !want.is_finite(),
            _ => cell
                .parse::<f64>()
                .is_ok_and(|got| got.to_bits() == want.to_bits()),
        };
        if !ok {
            return false;
        }
        n += 1;
    }
    fp_ok && n == request.expected.len() && scores.split(',').count() == n
}

/// What a load loop saw.
#[derive(Default)]
pub struct LoopResult {
    /// Per attempted request, failures included: its latency.
    pub latencies_s: Vec<f64>,
    /// Per request: whether it succeeded and was verified.
    pub ok: Vec<bool>,
    /// Per request: rows it scored (0 unless it succeeded).
    pub rows: Vec<usize>,
    pub non2xx: usize,
    pub socket_errors: usize,
    pub mismatches: usize,
    pub elapsed_s: f64,
}

impl LoopResult {
    pub fn attempted(&self) -> usize {
        self.ok.len()
    }

    pub fn failed(&self) -> usize {
        self.ok.iter().filter(|ok| !**ok).count()
    }

    /// Rows scored per second of the loop.
    pub fn rows_per_s(&self) -> f64 {
        self.rows.iter().sum::<usize>() as f64 / self.elapsed_s
    }

    /// Requests per second that succeeded within `LIMIT_S`.
    pub fn goodput_rps(&self) -> f64 {
        let good = self
            .ok
            .iter()
            .zip(&self.latencies_s)
            .filter(|(ok, latency)| **ok && **latency <= LIMIT_S)
            .count();
        good as f64 / self.elapsed_s
    }

    /// Multiply every time (latencies and the elapsed time) by `factor`.
    pub fn scale(&mut self, factor: f64) {
        self.latencies_s.iter_mut().for_each(|l| *l *= factor);
        self.elapsed_s *= factor;
    }

    /// Append another loop's requests; elapsed times add up.
    pub fn merge(&mut self, other: LoopResult) {
        self.latencies_s.extend(other.latencies_s);
        self.ok.extend(other.ok);
        self.rows.extend(other.rows);
        self.non2xx += other.non2xx;
        self.socket_errors += other.socket_errors;
        self.mismatches += other.mismatches;
        self.elapsed_s += other.elapsed_s;
    }
}

static REQUEST_IDS: AtomicU64 = AtomicU64::new(1);

/// A client that keeps one connection open, reopening it after the server
/// closes it or after a socket error.
struct Client<'a> {
    addr: SocketAddr,
    conn: Option<Conn>,
    fingerprint: &'a str,
    tracer: &'a Tracer,
    result: LoopResult,
    /// Per pool index: a response body already verified for it. The server
    /// formats scores deterministically, so a byte-equal body is verified
    /// too; any other body is verified in full.
    verified: HashMap<usize, Vec<u8>>,
}

impl<'a> Client<'a> {
    fn new(addr: SocketAddr, fingerprint: &'a str, tracer: &'a Tracer) -> Self {
        Self {
            addr,
            conn: None,
            fingerprint,
            tracer,
            result: LoopResult::default(),
            verified: HashMap::new(),
        }
    }

    /// Send pool entry `index` and check the reply.
    fn send(&mut self, index: usize, request: &Request) {
        let since = Instant::now();
        let id = REQUEST_IDS.fetch_add(1, Ordering::Relaxed);
        let addr = self.addr;
        let conn = &mut self.conn;
        let (outcome, _) = self.tracer.span("serve.request", ROOT, Some(id), |_| {
            if conn.is_none() {
                *conn = Some(Conn::open(addr)?);
            }
            conn.as_mut()
                .expect("opened above")
                .roundtrip(&request.http)
        });
        let latency = since.elapsed().as_secs_f64();
        let ok = match outcome {
            Ok(response) => {
                if response.close {
                    self.conn = None;
                }
                if response.status / 100 != 2 {
                    self.result.non2xx += 1;
                }
                let ok = self
                    .verified
                    .get(&index)
                    .is_some_and(|body| *body == response.body)
                    || verify(&response, request, self.fingerprint);
                if ok && !self.verified.contains_key(&index) {
                    self.verified.insert(index, response.body);
                }
                if !ok && response.status / 100 == 2 {
                    self.result.mismatches += 1;
                }
                ok
            }
            Err(_) => {
                self.result.socket_errors += 1;
                self.conn = None;
                false
            }
        };
        self.result.latencies_s.push(latency);
        self.result.ok.push(ok);
        self.result.rows.push(if ok { request.rows } else { 0 });
    }
}

/// Where a load loop sends, what it sends and what it expects back.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    pub addr: SocketAddr,
    pub pool: &'a [Request],
    pub fingerprint: &'a str,
}

/// Closed loop: `clients` connections, each sending its next request only
/// after the previous reply, for `duration`.
pub fn closed_loop(
    target: Target<'_>,
    clients: usize,
    duration: Duration,
    seed: u64,
    tracer: &Tracer,
) -> LoopResult {
    let start = Instant::now();
    let deadline = start + duration;
    let mut total = LoopResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ (0x5eed_0000 + c as u64));
                    let mut client = Client::new(target.addr, target.fingerprint, tracer);
                    while Instant::now() < deadline {
                        let index = rng.below(target.pool.len());
                        client.send(index, &target.pool[index]);
                    }
                    client.result
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("closed-loop client panicked"));
        }
    });
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}

/// `GET /metrics` over a throwaway connection.
pub fn scrape(addr: SocketAddr) -> io::Result<String> {
    let response = Conn::open(addr)?
        .roundtrip(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
    if response.status != 200 {
        return Err(io::Error::other(format!(
            "/metrics answered {}",
            response.status
        )));
    }
    String::from_utf8(response.body).map_err(|_| io::Error::other("/metrics is not UTF-8"))
}

/// The numbers read off one `/metrics` scrape.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// Cumulative `/score` latency buckets: `(upper bound s, count)`.
    pub score_buckets: Vec<(f64, f64)>,
    /// Total server-side `/score` time (s) and request count.
    pub score_sum_s: f64,
    pub score_count: f64,
    pub publishes: f64,
    pub non2xx: f64,
}

fn label<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("{key}=\""))? + key.len() + 2;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

fn value(line: &str) -> f64 {
    line.rsplit(' ')
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

pub fn parse_scrape(text: &str) -> Scrape {
    let mut s = Scrape::default();
    for line in text.lines() {
        if line.starts_with("http_request_duration_seconds_bucket{")
            && label(line, "route") == Some("/score")
        {
            let le = match label(line, "le") {
                Some("+Inf") => f64::INFINITY,
                Some(v) => v.parse().unwrap_or(f64::INFINITY),
                None => continue,
            };
            s.score_buckets.push((le, value(line)));
        } else if line.starts_with("http_request_duration_seconds_sum{")
            && label(line, "route") == Some("/score")
        {
            s.score_sum_s = value(line);
        } else if line.starts_with("http_request_duration_seconds_count{")
            && label(line, "route") == Some("/score")
        {
            s.score_count = value(line);
        } else if line.starts_with("model_registry_publishes_total") {
            s.publishes = value(line);
        } else if line.starts_with("http_responses_total{")
            && label(line, "status").is_some_and(|st| !st.starts_with('2'))
        {
            s.non2xx += value(line);
        }
    }
    s.score_buckets
        .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("bucket bounds are not NaN"));
    s
}

impl Scrape {
    /// The counts recorded since `earlier`.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        let score_buckets = self
            .score_buckets
            .iter()
            .map(|&(le, n)| {
                let before = earlier
                    .score_buckets
                    .iter()
                    .find(|(l, _)| *l == le)
                    .map_or(0.0, |b| b.1);
                (le, n - before)
            })
            .collect();
        Scrape {
            score_buckets,
            score_sum_s: self.score_sum_s - earlier.score_sum_s,
            score_count: self.score_count - earlier.score_count,
            publishes: self.publishes - earlier.publishes,
            non2xx: self.non2xx - earlier.non2xx,
        }
    }

    /// Mean server-side `/score` time in seconds; 0 for no requests.
    pub fn score_mean_s(&self) -> f64 {
        if self.score_count > 0.0 {
            self.score_sum_s / self.score_count
        } else {
            0.0
        }
    }

    /// Quantile `q` of the `/score` latency histogram in seconds, linearly
    /// interpolated inside its bucket (Prometheus' `histogram_quantile`).
    pub fn score_quantile(&self, q: f64) -> f64 {
        let Some(&(_, total)) = self.score_buckets.last() else {
            return 0.0;
        };
        if total <= 0.0 {
            return 0.0;
        }
        let rank = q * total;
        let mut prev = (0.0, 0.0);
        for &(le, count) in &self.score_buckets {
            if count >= rank {
                if le.is_infinite() {
                    return prev.0;
                }
                let width = count - prev.1;
                let frac = if width > 0.0 {
                    (rank - prev.1) / width
                } else {
                    1.0
                };
                return prev.0 + (le - prev.0) * frac;
            }
            prev = (le, count);
        }
        prev.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::{GbdtModel, GbdtParams};

    #[test]
    fn pools_repeat_per_seed_and_change_with_it() {
        let mut data = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..64 {
            let x = i as f32 / 8.0;
            data.push_row(
                &[x, if i % 5 == 0 { f32::NAN } else { -x }],
                (i % 3 == 0) as u8 as f32,
            );
        }
        let params = GbdtParams {
            n_estimators: 4,
            max_depth: 2,
            ..GbdtParams::default()
        };
        let served = ServedModel::from_model(GbdtModel::fit(&data, params));
        let spec = PoolSpec {
            requests: 8,
            min_rows: 1,
            max_rows: 4,
        };
        let bytes = |seed| -> Vec<Vec<u8>> {
            build_pool(&data, &served, spec, seed)
                .into_iter()
                .map(|r| r.http)
                .collect()
        };
        assert_eq!(bytes(1), bytes(1));
        assert_ne!(bytes(1), bytes(2));
        // Every pooled body parses back to its rows, NaN cells included.
        for request in build_pool(&data, &served, spec, 3) {
            let frame = redsus_serve::FeatureFrame::parse_csv(request.body()).expect("parses");
            let aligned = frame.align(served.forest());
            assert!(aligned
                .data
                .iter()
                .zip(&request.data)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(request.expected.len(), request.rows);
        }
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        let text = "http_request_duration_seconds_bucket{route=\"/score\",le=\"0.001\"} 0\n\
                    http_request_duration_seconds_bucket{route=\"/score\",le=\"0.002\"} 10\n\
                    http_request_duration_seconds_bucket{route=\"/score\",le=\"+Inf\"} 10\n\
                    http_request_duration_seconds_bucket{route=\"/models\",le=\"0.001\"} 99\n\
                    http_request_duration_seconds_sum{route=\"/score\"} 0.015\n\
                    http_request_duration_seconds_count{route=\"/score\"} 10\n\
                    model_registry_publishes_total 4\n\
                    http_responses_total{route=\"/score\",status=\"200\"} 10\n\
                    http_responses_total{route=\"other\",status=\"404\"} 2\n";
        let s = parse_scrape(text);
        assert_eq!(s.score_buckets.len(), 3);
        assert!((s.score_quantile(0.5) - 0.0015).abs() < 1e-12);
        assert!((s.score_mean_s() - 0.0015).abs() < 1e-12);
        assert_eq!(s.publishes, 4.0);
        assert_eq!(s.non2xx, 2.0);
        let none = s.since(&s);
        assert_eq!(none.score_quantile(0.5), 0.0);
        assert_eq!(none.score_mean_s(), 0.0);
    }
}
