//! A minimal blocking client for the line-delimited protocol — used
//! by the benchmark harness's load generator, the socket tests, and
//! as a reference implementation of the client side of the token
//! contract (echo the token verbatim; treat it as opaque).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use lpath_obs::json::{self, Value};

/// A blocking connection to an `lpath-server`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

/// Why a call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke.
    Io(io::Error),
    /// The server's bytes violated the protocol (not JSON, missing
    /// fields, wrong id) — or the connection closed mid-call, which
    /// is how an `overloaded` refusal ends.
    Protocol(String),
    /// The server answered with a typed error.
    Remote {
        /// Stable error code (`syntax`, `bad_token`, `overloaded`, …).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Remote { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One page of a remote token sweep: rows as `(tree, node)` pairs
/// plus the opaque continuation token.
#[derive(Clone, Debug)]
pub struct RemotePage {
    /// The page's matches, in document order.
    pub rows: Vec<(u32, u32)>,
    /// Echo to the next [`Client::eval_page`] call; `None` = done.
    pub token: Option<String>,
}

/// One step of a remote budgeted count sweep.
#[derive(Clone, Debug)]
pub struct RemoteCountPage {
    /// Matches counted so far across the sweep.
    pub so_far: u64,
    /// The complete count, once the sweep finished.
    pub total: Option<u64>,
    /// Echo to the next [`Client::count_page`] call; `None` = done.
    pub token: Option<String>,
}

/// A remote query histogram: the match set aggregated per tree and
/// per label; both breakdowns sum to `total`.
#[derive(Clone, Debug)]
pub struct RemoteHistogram {
    /// Total matches (equals the server's `count`).
    pub total: u64,
    /// `(global tree id, count)`, tid-ascending, non-zero only.
    pub per_tree: Vec<(u32, u64)>,
    /// `(label, count)`, label-ascending, non-zero only.
    pub per_label: Vec<(String, u64)>,
}

impl Client {
    /// Connect to a server.
    ///
    /// # Errors
    ///
    /// The connect error, verbatim.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            next_id: 1,
        })
    }

    /// Issue one raw call: `params` must render a JSON object (e.g.
    /// `{"query": "//NP"}`). Returns the `result` value of an `ok`
    /// response.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] for typed server errors,
    /// [`ClientError::Protocol`] / [`ClientError::Io`] for transport
    /// failures.
    pub fn call(&mut self, method: &str, params: &str) -> Result<Value, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = format!(
            "{{\"id\": {id}, \"method\": \"{}\", \"params\": {params}}}\n",
            json::escape(method)
        );
        self.writer.write_all(request.as_bytes())?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol(
                "connection closed before a response arrived".into(),
            ));
        }
        let response = json::parse(line.trim_end())
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
        if response.get("id").and_then(Value::as_u64) != Some(id) {
            return Err(ClientError::Protocol(format!(
                "response id does not echo request id {id}"
            )));
        }
        match response.get("ok").and_then(Value::as_bool) {
            Some(true) => response
                .get("result")
                .cloned()
                .ok_or_else(|| ClientError::Protocol("ok response without result".into())),
            Some(false) => {
                let err = response.get("error");
                let field = |k: &str| {
                    err.and_then(|e| e.get(k))
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                Err(ClientError::Remote {
                    code: field("code"),
                    message: field("message"),
                })
            }
            None => Err(ClientError::Protocol("response without 'ok' field".into())),
        }
    }

    /// The query's full match list, as `(tree, node)` pairs.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn eval(&mut self, query: &str) -> Result<Vec<(u32, u32)>, ClientError> {
        let result = self.call("eval", &query_params(query))?;
        rows_of(result.get("rows"))
    }

    /// Evaluate a batch of queries in one round trip (the server
    /// evaluates repeated members once). Results come back
    /// in request order; a failing member is an in-band
    /// [`ClientError::Remote`] that does not disturb its siblings.
    ///
    /// # Errors
    ///
    /// The outer `Result` is transport/protocol failure — see
    /// [`Client::call`].
    #[allow(clippy::type_complexity)]
    pub fn eval_multi(
        &mut self,
        queries: &[&str],
    ) -> Result<Vec<Result<Vec<(u32, u32)>, ClientError>>, ClientError> {
        let mut params = String::from("{\"queries\": [");
        for (i, q) in queries.iter().enumerate() {
            if i > 0 {
                params.push_str(", ");
            }
            params.push_str(&format!("\"{}\"", json::escape(q)));
        }
        params.push_str("]}");
        let result = self.call("eval_multi", &params)?;
        let items = result
            .get("results")
            .and_then(Value::as_arr)
            .ok_or_else(|| ClientError::Protocol("eval_multi response without results".into()))?;
        items
            .iter()
            .map(|item| match item.get("ok").and_then(Value::as_bool) {
                Some(true) => Ok(Ok(rows_of(item.get("rows"))?)),
                Some(false) => {
                    let err = item.get("error");
                    let field = |k: &str| {
                        err.and_then(|e| e.get(k))
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    Ok(Err(ClientError::Remote {
                        code: field("code"),
                        message: field("message"),
                    }))
                }
                None => Err(ClientError::Protocol(
                    "batch member without 'ok' field".into(),
                )),
            })
            .collect()
    }

    /// One page of the query's match list. Pass `token: None` for the
    /// first page, then echo [`RemotePage::token`].
    ///
    /// # Errors
    ///
    /// See [`Client::call`]; a corrupt echoed token is
    /// [`ClientError::Remote`] with code `bad_token`.
    pub fn eval_page(
        &mut self,
        query: &str,
        token: Option<&str>,
        limit: usize,
    ) -> Result<RemotePage, ClientError> {
        let mut params = format!(
            "{{\"query\": \"{}\", \"limit\": {limit}",
            json::escape(query)
        );
        if let Some(t) = token {
            params.push_str(&format!(", \"token\": \"{}\"", json::escape(t)));
        }
        params.push('}');
        let result = self.call("eval_page", &params)?;
        let rows = rows_of(result.get("rows"))?;
        let token = match result.get("token") {
            Some(Value::Str(t)) => Some(t.clone()),
            Some(Value::Null) | None => None,
            Some(_) => {
                return Err(ClientError::Protocol(
                    "token field is neither string nor null".into(),
                ))
            }
        };
        Ok(RemotePage { rows, token })
    }

    /// Run a whole token sweep: page until the server stops minting
    /// tokens, concatenating the pages. `page` is clamped to at least
    /// 1: a zero-limit page keeps the sweep's place without advancing
    /// it, so a sweep of them would never end.
    ///
    /// # Errors
    ///
    /// See [`Client::eval_page`].
    pub fn eval_sweep(&mut self, query: &str, page: usize) -> Result<Vec<(u32, u32)>, ClientError> {
        let page = page.max(1);
        let mut all = Vec::new();
        let mut token: Option<String> = None;
        loop {
            let p = self.eval_page(query, token.as_deref(), page)?;
            all.extend(p.rows);
            match p.token {
                Some(t) => token = Some(t),
                None => return Ok(all),
            }
        }
    }

    /// The query's match count.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn count(&mut self, query: &str) -> Result<u64, ClientError> {
        let result = self.call("count", &query_params(query))?;
        result
            .get("count")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("count response without count".into()))
    }

    /// One budgeted step of a remote count sweep. Pass `token: None`
    /// to start, then echo [`RemoteCountPage::token`] until
    /// [`RemoteCountPage::total`] arrives.
    ///
    /// # Errors
    ///
    /// See [`Client::call`]; a corrupt echoed token is
    /// [`ClientError::Remote`] with code `bad_token`.
    pub fn count_page(
        &mut self,
        query: &str,
        token: Option<&str>,
        budget: usize,
    ) -> Result<RemoteCountPage, ClientError> {
        let mut params = format!(
            "{{\"query\": \"{}\", \"budget\": {budget}",
            json::escape(query)
        );
        if let Some(t) = token {
            params.push_str(&format!(", \"token\": \"{}\"", json::escape(t)));
        }
        params.push('}');
        let result = self.call("count", &params)?;
        let so_far = result
            .get("count")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("count response without count".into()))?;
        let total = match result.get("total") {
            Some(Value::Null) | None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| ClientError::Protocol("total is not an integer".into()))?,
            ),
        };
        let token = match result.get("token") {
            Some(Value::Str(t)) => Some(t.clone()),
            Some(Value::Null) | None => None,
            Some(_) => {
                return Err(ClientError::Protocol(
                    "token field is neither string nor null".into(),
                ))
            }
        };
        Ok(RemoteCountPage {
            so_far,
            total,
            token,
        })
    }

    /// The query's match histogram (total, per-tree, per-label).
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn hist(&mut self, query: &str) -> Result<RemoteHistogram, ClientError> {
        let result = self.call("hist", &query_params(query))?;
        let total = result
            .get("total")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("hist response without total".into()))?;
        let bad = || ClientError::Protocol("hist breakdown is not [[key, n], …]".into());
        let pairs = |field: &str| -> Result<Vec<(Value, u64)>, ClientError> {
            let items = result.get(field).and_then(Value::as_arr).ok_or_else(bad)?;
            items
                .iter()
                .map(|pair| match pair.as_arr().ok_or_else(bad)? {
                    [k, n] => Ok((k.clone(), n.as_u64().ok_or_else(bad)?)),
                    _ => Err(bad()),
                })
                .collect()
        };
        let per_tree = pairs("per_tree")?
            .into_iter()
            .map(|(k, n)| {
                let tid = k.as_u64().and_then(|v| u32::try_from(v).ok());
                tid.map(|t| (t, n)).ok_or_else(bad)
            })
            .collect::<Result<_, _>>()?;
        let per_label = pairs("per_label")?
            .into_iter()
            .map(|(k, n)| match k {
                Value::Str(s) => Ok((s, n)),
                _ => Err(bad()),
            })
            .collect::<Result<_, _>>()?;
        Ok(RemoteHistogram {
            total,
            per_tree,
            per_label,
        })
    }

    /// Does the query match anywhere?
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn exists(&mut self, query: &str) -> Result<bool, ClientError> {
        let result = self.call("exists", &query_params(query))?;
        result
            .get("exists")
            .and_then(Value::as_bool)
            .ok_or_else(|| ClientError::Protocol("exists response without exists".into()))
    }

    /// Static analysis of the query (diagnostics, emptiness) as the
    /// parsed report object.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn check(&mut self, query: &str) -> Result<Value, ClientError> {
        let result = self.call("check", &query_params(query))?;
        result
            .get("report")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("check response without report".into()))
    }

    /// The server's metrics snapshot as the parsed JSON object.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn metrics(&mut self) -> Result<Value, ClientError> {
        let result = self.call("metrics", "{}")?;
        result
            .get("metrics")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("metrics response without metrics".into()))
    }

    /// Append Penn-Treebank text to the served corpus; returns the
    /// number of trees added.
    ///
    /// # Errors
    ///
    /// See [`Client::call`]; unparseable text is code `corpus`.
    pub fn append_ptb(&mut self, src: &str) -> Result<u64, ClientError> {
        let result = self.call(
            "append_ptb",
            &format!("{{\"src\": \"{}\"}}", json::escape(src)),
        )?;
        result
            .get("added")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("append response without added".into()))
    }
}

fn query_params(query: &str) -> String {
    format!("{{\"query\": \"{}\"}}", json::escape(query))
}

fn rows_of(rows: Option<&Value>) -> Result<Vec<(u32, u32)>, ClientError> {
    let bad = || ClientError::Protocol("rows are not [[tid, node], …]".into());
    let items = rows.and_then(Value::as_arr).ok_or_else(bad)?;
    items
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().ok_or_else(bad)?;
            match pair {
                [t, n] => {
                    let t = t.as_u64().and_then(|v| u32::try_from(v).ok());
                    let n = n.as_u64().and_then(|v| u32::try_from(v).ok());
                    t.zip(n).ok_or_else(bad)
                }
                _ => Err(bad()),
            }
        })
        .collect()
}
