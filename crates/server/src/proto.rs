//! Request dispatch and response rendering: one untrusted JSON line
//! in, one JSON line out. All rendering is hand-built on
//! [`lpath_obs::json::escape`]; all parsing goes through the bounded
//! [`lpath_obs::json::parse`].

use std::fmt::Write as _;

use lpath_model::NodeId;
use lpath_obs::json::{self, Value};
use lpath_service::{Service, ServiceError};

use crate::ServerConfig;

/// Error codes the protocol can answer with. Stable strings: clients
/// branch on them (`bad_token` → drop the token and restart the
/// sweep; `overloaded` → back off and retry).
const CODE_BAD_REQUEST: &str = "bad_request";

/// Handle one request line, returning the response line (no trailing
/// newline). Never panics: every malformed input maps to a typed
/// error response.
pub(crate) fn handle(svc: &Service, line: &[u8], cfg: &ServerConfig) -> String {
    let Ok(text) = std::str::from_utf8(line) else {
        return error_line(None, CODE_BAD_REQUEST, "request is not UTF-8");
    };
    let req = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return error_line(None, CODE_BAD_REQUEST, &e.to_string()),
    };
    let id = req.get("id").and_then(Value::as_u64);
    let Some(method) = req.get("method").and_then(Value::as_str) else {
        return error_line(id, CODE_BAD_REQUEST, "missing string field 'method'");
    };
    let params = req.get("params");
    // The result renders straight into the response line.
    let mut out = String::from("{\"id\": ");
    push_number(&mut out, id);
    out.push_str(", \"ok\": true, \"result\": ");
    match dispatch(svc, method, params, cfg, &mut out) {
        Ok(()) => {
            out.push('}');
            out
        }
        Err((code, message)) => error_line(id, code, &message),
    }
}

/// Render an error response line (no trailing newline).
pub(crate) fn error_line(id: Option<u64>, code: &str, message: &str) -> String {
    let mut out = String::from("{\"id\": ");
    push_number(&mut out, id);
    out.push_str(", \"ok\": false, \"error\": ");
    push_error(&mut out, code, message);
    out.push('}');
    out
}

/// `{"code": …, "message": …}`.
fn push_error(out: &mut String, code: &str, message: &str) {
    let (code, message) = (json::escape(code), json::escape(message));
    let _ = write!(out, "{{\"code\": \"{code}\", \"message\": \"{message}\"}}");
}

/// A number, or `null`.
fn push_number(out: &mut String, n: Option<u64>) {
    match n {
        Some(n) => {
            let _ = write!(out, "{n}");
        }
        None => out.push_str("null"),
    }
}

/// A token field's value: the quoted token, or `null` once the sweep
/// is complete.
fn push_token(out: &mut String, token: Option<&str>) {
    match token {
        Some(t) => {
            let _ = write!(out, "\"{}\"", json::escape(t));
        }
        None => out.push_str("null"),
    }
}

type MethodError = (&'static str, String);

/// Run `method` and render its result into `out`. (Writing into a
/// `String` cannot fail, so the `fmt::Result`s are dropped.)
fn dispatch(
    svc: &Service,
    method: &str,
    params: Option<&Value>,
    cfg: &ServerConfig,
    out: &mut String,
) -> Result<(), MethodError> {
    match method {
        "eval" => {
            let rows = svc.eval(query_param(params)?).map_err(service_error)?;
            out.push_str("{\"rows\": ");
            push_rows(out, &rows);
            let _ = write!(out, ", \"n\": {}}}", rows.len());
        }
        "eval_page" => {
            let query = query_param(params)?;
            let token = token_param(params)?;
            let limit = match params.and_then(|p| p.get("limit")) {
                None => cfg.default_page_limit,
                Some(v) => usize_value("limit", v)?,
            };
            let page = svc
                .eval_page_token(query, token, limit)
                .map_err(service_error)?;
            out.push_str("{\"rows\": ");
            push_rows(out, &page.rows);
            out.push_str(", \"token\": ");
            push_token(out, page.token.as_deref());
            out.push('}');
        }
        "eval_multi" => {
            let queries = params
                .and_then(|p| p.get("queries"))
                .and_then(Value::as_arr)
                .ok_or_else(|| bad_request("missing array field 'queries'"))?;
            let texts: Vec<&str> = queries
                .iter()
                .map(|q| {
                    q.as_str()
                        .ok_or_else(|| bad_request("field 'queries' must be an array of strings"))
                })
                .collect::<Result<_, _>>()?;
            let results = svc.eval_multi(&texts);
            // Member failures are in-band: one bad query must not
            // discard its siblings' answers.
            out.push_str("{\"results\": [");
            for (i, r) in results.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                match r {
                    Ok(rows) => {
                        out.push_str("{\"ok\": true, \"rows\": ");
                        push_rows(out, rows);
                        let _ = write!(out, ", \"n\": {}}}", rows.len());
                    }
                    Err(e) => {
                        out.push_str("{\"ok\": false, \"error\": ");
                        push_error(out, error_code(e), &e.to_string());
                        out.push('}');
                    }
                }
            }
            out.push_str("]}");
        }
        "count" => {
            let query = query_param(params)?;
            let token = token_param(params)?;
            let budget = match params.and_then(|p| p.get("budget")) {
                None | Some(Value::Null) => None,
                Some(v) => Some(usize_value("budget", v)?),
            };
            // One-shot form (no token, no budget) keeps the original
            // `{"count": n}` shape; the budgeted form drives the
            // stateless count-token sweep.
            if token.is_none() && budget.is_none() {
                let n = svc.count(query).map_err(service_error)?;
                let _ = write!(out, "{{\"count\": {n}}}");
                return Ok(());
            }
            let page = svc
                .count_token(query, token, budget.unwrap_or(usize::MAX))
                .map_err(service_error)?;
            let _ = write!(out, "{{\"count\": {}, \"total\": ", page.so_far);
            push_number(out, page.total);
            out.push_str(", \"token\": ");
            push_token(out, page.token.as_deref());
            out.push('}');
        }
        "hist" => {
            let h = svc.hist(query_param(params)?).map_err(service_error)?;
            let _ = write!(out, "{{\"total\": {}, \"per_tree\": [", h.total);
            for (i, (tid, n)) in h.per_tree.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{tid}, {n}]");
            }
            out.push_str("], \"per_label\": [");
            for (i, (label, n)) in h.per_label.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[\"{}\", {n}]", json::escape(label));
            }
            out.push_str("]}");
        }
        "exists" => {
            let found = svc.exists(query_param(params)?).map_err(service_error)?;
            let _ = write!(out, "{{\"exists\": {found}}}");
        }
        "check" => {
            let report = svc.check(query_param(params)?).map_err(service_error)?;
            let _ = write!(out, "{{\"report\": {}}}", one_line(&report.to_json()));
        }
        "metrics" => {
            let metrics = one_line(&svc.metrics().to_json());
            let _ = write!(out, "{{\"metrics\": {metrics}}}");
        }
        "append_ptb" => {
            let src = params
                .and_then(|p| p.get("src"))
                .and_then(Value::as_str)
                .ok_or_else(|| bad_request("missing string field 'src'"))?;
            let added = svc.append_ptb(src).map_err(service_error)?;
            let generation = svc.generation();
            let _ = write!(out, "{{\"added\": {added}, \"generation\": {generation}}}");
        }
        other => return Err(bad_request(&format!("unknown method '{other}'"))),
    }
    Ok(())
}

fn query_param(params: Option<&Value>) -> Result<&str, MethodError> {
    params
        .and_then(|p| p.get("query"))
        .and_then(Value::as_str)
        .ok_or_else(|| bad_request("missing string field 'query'"))
}

/// The optional echoed `token` (absent or `null`: start a sweep).
fn token_param(params: Option<&Value>) -> Result<Option<&str>, MethodError> {
    match params.and_then(|p| p.get("token")) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(t)) => Ok(Some(t.as_str())),
        Some(_) => Err(bad_request("field 'token' must be a string")),
    }
}

/// A present `limit` / `budget` value as a `usize`.
fn usize_value(field: &str, v: &Value) -> Result<usize, MethodError> {
    let n = v
        .as_u64()
        .ok_or_else(|| bad_request(&format!("field '{field}' must be a non-negative integer")))?;
    usize::try_from(n).map_err(|_| bad_request(&format!("field '{field}' out of range")))
}

fn bad_request(message: &str) -> MethodError {
    (CODE_BAD_REQUEST, message.to_string())
}

/// Map service failures onto stable protocol codes.
fn service_error(e: ServiceError) -> MethodError {
    (error_code(&e), e.to_string())
}

fn error_code(e: &ServiceError) -> &'static str {
    match e {
        ServiceError::Syntax(_) => "syntax",
        ServiceError::Corpus(_) => "corpus",
        ServiceError::BadToken(_) => "bad_token",
        ServiceError::Aborted => "aborted",
    }
}

/// `[[tid, node], …]` — the match list in document order.
fn push_rows(out: &mut String, rows: &[(u32, NodeId)]) {
    out.reserve(rows.len() * 8 + 2);
    out.push('[');
    for (i, (tid, node)) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{tid}, {}]", node.index());
    }
    out.push(']');
}

/// Collapse a multi-line JSON rendering (the house `to_json` style is
/// indented) onto one protocol line. Safe because [`json::escape`]
/// never leaves a raw newline inside a string literal — every `\n` in
/// the rendering is structural whitespace.
fn one_line(s: &str) -> String {
    s.replace('\n', " ")
}
