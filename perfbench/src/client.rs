//! The benchmark's HTTP client and `/metrics` reader.
//!
//! One request per connection, as the daemon answers with
//! `Connection: close`. Each exchange is timed in three marks from the
//! moment the client starts it: TCP connect done, first response byte,
//! last response byte.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Time marks of one exchange, seconds after it started.
#[derive(Clone, Copy, Debug, Default)]
pub struct Marks {
    pub connect: f64,
    pub first_byte: f64,
    pub total: f64,
}

pub struct Response {
    pub status: u16,
    pub body: String,
    pub marks: Marks,
}

pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Response> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connect = t0.elapsed().as_secs_f64();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = vec![0u8; 512];
    let n = stream.read(&mut raw)?;
    if n == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let first_byte = t0.elapsed().as_secs_f64();
    raw.truncate(n);
    stream.read_to_end(&mut raw)?;
    let total = t0.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::other("unparseable status line"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Response {
        status,
        body,
        marks: Marks {
            connect,
            first_byte,
            total,
        },
    })
}

/// The `{"id", "cost"}` body of an accepted provision.
pub fn provisioned(body: &str) -> Option<(u64, f64)> {
    #[derive(serde::Deserialize)]
    struct Provisioned {
        id: u64,
        cost: f64,
    }
    serde_json::from_str::<Provisioned>(body.trim())
        .ok()
        .map(|p| (p.id, p.cost))
}

/// One scrape of the daemon's Prometheus exposition: counters (`_total`
/// stripped) and gauges by name, and histograms as cumulative
/// `(upper bound, count)` rows.
#[derive(Clone, Default)]
pub struct Scrape {
    pub values: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, Vec<(f64, u64)>>,
}

impl Scrape {
    pub fn fetch(addr: SocketAddr) -> std::io::Result<Self> {
        let r = exchange(addr, "GET", "/metrics", "")?;
        if r.status != 200 {
            return Err(std::io::Error::other(format!(
                "/metrics answered {}",
                r.status
            )));
        }
        Ok(Self::parse(&r.body))
    }

    fn parse(text: &str) -> Self {
        let mut s = Scrape::default();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((metric, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Some(metric) = metric.strip_prefix("wdm_") else {
                continue;
            };
            if let Some((name, le)) = metric.split_once("_bucket{le=\"") {
                let le = le.trim_end_matches("\"}");
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap_or(f64::INFINITY)
                };
                if let Ok(n) = value.parse() {
                    s.hists.entry(name.to_string()).or_default().push((le, n));
                }
            } else if let Ok(n) = value.parse::<u64>() {
                let name = metric.strip_suffix("_total").unwrap_or(metric);
                s.values.insert(name.to_string(), n);
            }
        }
        s
    }

    pub fn value(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Counter increase since `before`.
    pub fn delta(&self, before: &Scrape, name: &str) -> u64 {
        self.value(name).saturating_sub(before.value(name))
    }

    /// Quantile `q`, in ms, of the histogram `name` (a `*_ns` series)
    /// over the observations made since `before`: the upper bound of the
    /// bucket holding rank ⌈q·n⌉, so within the histogram's bucket width
    /// (≤ 12.5 %).
    pub fn quantile_ms(&self, before: &Scrape, name: &str, q: f64) -> f64 {
        let empty = Vec::new();
        let rows = self.hists.get(name).unwrap_or(&empty);
        let old = before.hists.get(name).unwrap_or(&empty);
        let at = |le: f64| {
            old.iter()
                .filter(|(b, _)| *b <= le)
                .map(|(_, n)| *n)
                .max()
                .unwrap_or(0)
        };
        let rows: Vec<(f64, u64)> = rows
            .iter()
            .filter(|(le, _)| le.is_finite())
            .map(|&(le, n)| (le, n.saturating_sub(at(le))))
            .collect();
        let count = rows.last().map_or(0, |r| r.1);
        if count == 0 {
            return 0.0;
        }
        let rank = ((q * count as f64).ceil() as u64).max(1);
        rows.iter()
            .find(|(_, n)| *n >= rank)
            .map_or(0.0, |(le, _)| le / 1e6)
    }
}
