//! The load generator's side of the line protocol, and the same
//! operations called in-process.
//!
//! The benchmark keeps its own client instead of
//! `lpath_server::Client` because it must time three things apart —
//! building the request line, the socket round trip, and decoding the
//! response — and `Client::call` fuses them. The steps are the same:
//! format, `write_all`, `read_line`, `lpath_obs::json::parse`, check
//! the echoed id and the `ok` flag.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use lpath_obs::json::{self, Value};
use lpath_service::Service;

/// Rows per page, in every workload: one screen of a results browser.
pub const PAGE_LIMIT: usize = 25;

/// `(tree id, node index)` matches in document order.
pub type Rows = Vec<(u32, u32)>;

/// One request, borrowing its strings from whoever generated it.
#[derive(Clone, Copy, Debug)]
pub enum Op<'a> {
    Page {
        query: &'a str,
        token: Option<&'a str>,
    },
    Eval(&'a str),
    Count(&'a str),
    Exists(&'a str),
    Hist(&'a str),
    Check(&'a str),
    Multi(&'a [String]),
    Append(&'a str),
}

/// The part of a response the benchmark checks.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    Page { rows: Rows, token: Option<String> },
    Rows(Rows),
    Count(u64),
    Exists(bool),
    HistTotal(u64),
    Checked,
    Multi(Vec<Rows>),
    Added(u64),
}

impl Op<'_> {
    fn method(&self) -> &'static str {
        match self {
            Op::Page { .. } => "eval_page",
            Op::Eval(_) => "eval",
            Op::Count(_) => "count",
            Op::Exists(_) => "exists",
            Op::Hist(_) => "hist",
            Op::Check(_) => "check",
            Op::Multi(_) => "eval_multi",
            Op::Append(_) => "append_ptb",
        }
    }

    /// Append this request's protocol line (newline included) to `out`.
    pub fn encode(&self, id: u64, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"id\": {id}, \"method\": \"{}\", \"params\": {{",
            self.method()
        );
        match self {
            Op::Page { query, token } => {
                let _ = write!(
                    out,
                    "\"query\": \"{}\", \"limit\": {PAGE_LIMIT}",
                    json::escape(query)
                );
                if let Some(t) = token {
                    let _ = write!(out, ", \"token\": \"{}\"", json::escape(t));
                }
            }
            Op::Eval(q) | Op::Count(q) | Op::Exists(q) | Op::Hist(q) | Op::Check(q) => {
                let _ = write!(out, "\"query\": \"{}\"", json::escape(q));
            }
            Op::Multi(queries) => {
                out.push_str("\"queries\": [");
                for (i, q) in queries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\"", json::escape(q));
                }
                out.push(']');
            }
            Op::Append(src) => {
                let _ = write!(out, "\"src\": \"{}\"", json::escape(src));
            }
        }
        out.push_str("}}\n");
    }

    /// Decode a response line into the answer this kind of request
    /// expects, rejecting a wrong id, a typed error or a missing field.
    pub fn decode(&self, id: u64, line: &str) -> Result<Answer, String> {
        let response = json::parse(line.trim_end()).map_err(|e| e.to_string())?;
        if response.get("id").and_then(Value::as_u64) != Some(id) {
            return Err(format!("response does not echo request id {id}"));
        }
        if response.get("ok").and_then(Value::as_bool) != Some(true) {
            let code = response
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .unwrap_or("no error code");
            return Err(format!("server refused {}: {code}", self.method()));
        }
        let result = response.get("result").ok_or("ok response without result")?;
        let number = |key: &str| {
            result
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{} response without '{key}'", self.method()))
        };
        Ok(match self {
            Op::Page { .. } => Answer::Page {
                rows: rows_of(result.get("rows"))?,
                token: match result.get("token") {
                    Some(Value::Str(t)) => Some(t.clone()),
                    Some(Value::Null) => None,
                    _ => return Err("page token is neither string nor null".into()),
                },
            },
            Op::Eval(_) => Answer::Rows(rows_of(result.get("rows"))?),
            Op::Count(_) => Answer::Count(number("count")?),
            Op::Exists(_) => Answer::Exists(
                result
                    .get("exists")
                    .and_then(Value::as_bool)
                    .ok_or("exists response without 'exists'")?,
            ),
            Op::Hist(_) => Answer::HistTotal(number("total")?),
            Op::Check(_) => {
                result
                    .get("report")
                    .ok_or("check response without report")?;
                Answer::Checked
            }
            Op::Multi(_) => Answer::Multi(
                result
                    .get("results")
                    .and_then(Value::as_arr)
                    .ok_or("eval_multi response without results")?
                    .iter()
                    .map(|member| match member.get("ok").and_then(Value::as_bool) {
                        Some(true) => rows_of(member.get("rows")),
                        _ => Err("eval_multi member failed".to_string()),
                    })
                    .collect::<Result<_, _>>()?,
            ),
            Op::Append(_) => Answer::Added(number("added")?),
        })
    }

    /// The same operation as a direct `Service` call: what the server
    /// does between parsing the request and rendering the response.
    pub fn call_in_process(&self, svc: &Service) -> Result<Answer, String> {
        let plain = |rows: &[(u32, lpath_model::NodeId)]| -> Rows {
            rows.iter().map(|&(tid, node)| (tid, node.0)).collect()
        };
        let fail = |e: lpath_service::ServiceError| e.to_string();
        Ok(match self {
            Op::Page { query, token } => {
                let page = svc
                    .eval_page_token(query, *token, PAGE_LIMIT)
                    .map_err(fail)?;
                Answer::Page {
                    rows: plain(&page.rows),
                    token: page.token,
                }
            }
            Op::Eval(q) => Answer::Rows(plain(&svc.eval(q).map_err(fail)?)),
            Op::Count(q) => Answer::Count(svc.count(q).map_err(fail)? as u64),
            Op::Exists(q) => Answer::Exists(svc.exists(q).map_err(fail)?),
            Op::Hist(q) => Answer::HistTotal(svc.hist(q).map_err(fail)?.total),
            Op::Check(q) => {
                svc.check(q).map_err(fail)?;
                Answer::Checked
            }
            Op::Multi(queries) => {
                let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
                Answer::Multi(
                    svc.eval_multi(&texts)
                        .into_iter()
                        .map(|r| r.map(|rows| plain(&rows)).map_err(fail))
                        .collect::<Result<_, _>>()?,
                )
            }
            Op::Append(src) => Answer::Added(svc.append_ptb(src).map_err(fail)? as u64),
        })
    }
}

fn rows_of(v: Option<&Value>) -> Result<Rows, String> {
    v.and_then(Value::as_arr)
        .ok_or("response without rows")?
        .iter()
        .map(|pair| {
            let cell = |i: usize| {
                pair.as_arr()
                    .and_then(|p| p.get(i))
                    .and_then(Value::as_u64)
                    .and_then(|n| u32::try_from(n).ok())
            };
            cell(0)
                .zip(cell(1))
                .ok_or_else(|| "malformed row".to_string())
        })
        .collect()
}

/// Where one call's wall time went, plus its size on the wire. Taken
/// on every call (four clock reads); tracing only decides whether the
/// numbers are kept as spans.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub start: Instant,
    pub encode_ns: u64,
    pub rtt_ns: u64,
    pub decode_ns: u64,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

impl Timing {
    pub fn total_ns(&self) -> u64 {
        self.encode_ns + self.rtt_ns + self.decode_ns
    }
}

/// A blocking, one-request-at-a-time connection.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    request: String,
    response: String,
}

impl LineClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(LineClient {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            next_id: 1,
            request: String::new(),
            response: String::new(),
        })
    }

    /// Issue one request and wait for its answer (closed loop).
    pub fn call(&mut self, op: &Op<'_>) -> (Result<Answer, String>, Timing) {
        let id = self.next_id;
        self.next_id += 1;
        let start = Instant::now();
        self.request.clear();
        op.encode(id, &mut self.request);
        let encoded = Instant::now();
        self.response.clear();
        let io = self
            .writer
            .write_all(self.request.as_bytes())
            .and_then(|()| self.reader.read_line(&mut self.response));
        let answered = Instant::now();
        let answer = match io {
            Ok(0) => Err("connection closed before a response arrived".to_string()),
            Ok(_) => op.decode(id, &self.response),
            Err(e) => Err(e.to_string()),
        };
        let decoded = Instant::now();
        let ns = |a: Instant, b: Instant| u64::try_from((b - a).as_nanos()).unwrap_or(u64::MAX);
        let timing = Timing {
            start,
            encode_ns: ns(start, encoded),
            rtt_ns: ns(encoded, answered),
            decode_ns: ns(answered, decoded),
            request_bytes: self.request.len(),
            response_bytes: self.response.len(),
        };
        (answer, timing)
    }

    /// The last request and response lines, for the parse probes.
    pub fn last_lines(&self) -> (&str, &str) {
        (&self.request, &self.response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_renders_one_protocol_line_per_kind() {
        let mut s = String::new();
        Op::Page {
            query: "//NP",
            token: None,
        }
        .encode(3, &mut s);
        assert_eq!(
            s,
            "{\"id\": 3, \"method\": \"eval_page\", \"params\": {\"query\": \"//NP\", \"limit\": 25}}\n"
        );
        s.clear();
        Op::Page {
            query: "//NP",
            token: Some("AQ"),
        }
        .encode(4, &mut s);
        assert!(s.contains("\"token\": \"AQ\""));
        s.clear();
        Op::Multi(&["//A".to_string(), "//B".to_string()]).encode(5, &mut s);
        assert!(s.contains("\"queries\": [\"//A\", \"//B\"]"));
        s.clear();
        Op::Append("( (S (NP \"x\")) )\n").encode(6, &mut s);
        assert!(s.contains("\\\"x\\\"") && s.contains("\\n") && s.ends_with("}}\n"));
        assert!(json::parse(s.trim_end()).is_ok());
    }

    #[test]
    fn decode_accepts_good_answers_and_rejects_bad_ones() {
        let page = Op::Page {
            query: "//NP",
            token: None,
        };
        let ok = r#"{"id": 1, "ok": true, "result": {"rows": [[0, 3], [1, 7]], "token": "T"}}"#;
        assert_eq!(
            page.decode(1, ok),
            Ok(Answer::Page {
                rows: vec![(0, 3), (1, 7)],
                token: Some("T".into())
            })
        );
        assert!(page.decode(2, ok).is_err(), "wrong id");
        let refused = r#"{"id": 1, "ok": false, "error": {"code": "syntax", "message": "x"}}"#;
        assert!(page.decode(1, refused).unwrap_err().contains("syntax"));
        let count = r#"{"id": 1, "ok": true, "result": {"count": 12}}"#;
        assert_eq!(Op::Count("//NP").decode(1, count), Ok(Answer::Count(12)));
        assert!(Op::Exists("//NP").decode(1, count).is_err(), "wrong shape");
        let multi = r#"{"id": 1, "ok": true, "result": {"results": [{"ok": true, "rows": [[0, 1]], "n": 1}, {"ok": false, "error": {"code": "syntax", "message": "x"}}]}}"#;
        assert!(Op::Multi(&[]).decode(1, multi).is_err(), "failed member");
    }
}
