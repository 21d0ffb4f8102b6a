//! The length-prefixed TCP protocol.
//!
//! # Wire protocol
//!
//! Every frame, in both directions, is
//!
//! ```text
//! [u32 big-endian payload length][u8 tag][payload bytes]
//! ```
//!
//! Clients send `Q` (query) frames whose payload is one ASCII command:
//!
//! ```text
//! RANGE <table> <update> <start> <end> <format>   rows start..end
//! ROW   <table> <update> <row> <format>           one row, unframed
//! CURSOR <token>                                  resume a clamped range
//! INFO  [model]                                   schema summary (JSON)
//! STATS [model]                                   service counters (JSON)
//! PING                                            liveness check
//! ```
//!
//! `<table>` is either a bare table name (model slot 0) or
//! `model/table` against a multi-model registry.
//!
//! The server answers with zero or more `D` (data) or `J` (JSON) frames
//! followed by a terminal `Z` (end, empty payload) — or an `E` (error,
//! message payload) instead of the `Z`, which ends the request but not the
//! connection. A range whose rendering fails partway ends with `E` after
//! the data frames already sent, so a failed response never looks
//! complete. Each `D` frame carries one work package's formatted
//! bytes; concatenating a request's `D` payloads in arrival order
//! yields the response body. When a `RANGE` was clamped to the
//! service's `max_request_rows` cap, a `C` (cursor) frame precedes the
//! `Z`: its payload is the opaque token a follow-up `CURSOR` command
//! resumes from, and the chained bodies concatenate byte-equal to the
//! unclamped range. A connection handles any number of requests in
//! sequence; framing the stream per package is what lets the server
//! apply reader-driven backpressure (the `RowService` window) to slow
//! clients without buffering whole tables.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use pdgf_output::StreamSink;
use pdgf_runtime::{RowRequest, RowService, SubmitError};

use super::cursor::Cursor;
use super::{info_json, stats_json, ServerShared};
use crate::project::OutputFormat;

/// Frame tag: client request (ASCII command payload).
pub const TAG_QUERY: u8 = b'Q';
/// Frame tag: response data (formatted rows).
pub const TAG_DATA: u8 = b'D';
/// Frame tag: response metadata (JSON payload).
pub const TAG_JSON: u8 = b'J';
/// Frame tag: resumable cursor token for the clamped remainder of a
/// range; arrives between the data frames and the terminal `Z`.
pub const TAG_CURSOR: u8 = b'C';
/// Frame tag: request failed (message payload); terminal for the request.
pub const TAG_ERROR: u8 = b'E';
/// Frame tag: end of a successful response (empty payload).
pub const TAG_END: u8 = b'Z';

/// Largest accepted request frame. Commands are one short line; anything
/// bigger is a confused or hostile client.
pub const MAX_REQUEST_FRAME: u32 = 64 * 1024;

/// Write one `[len][tag][payload]` frame through a counting
/// [`StreamSink`] (the sink-to-socket adapter — response bytes flow
/// through the same [`Sink`](pdgf_output::Sink) abstraction batch runs
/// write files through).
pub(crate) fn write_frame<W: Write + Send>(
    sink: &mut StreamSink<W>,
    tag: u8,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[4] = tag;
    use pdgf_output::Sink as _;
    sink.write_chunk(&header)?;
    if !payload.is_empty() {
        sink.write_chunk(payload)?;
    }
    Ok(())
}

/// Read one frame; `max_len` bounds the payload length.
pub(crate) fn read_frame<R: Read>(reader: &mut R, max_len: u32) -> std::io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; 5];
    reader.read_exact(&mut header)?;
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
    if len > max_len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_len}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok((header[4], payload))
}

/// Over-capacity refusal: best-effort `E` frame, then close.
pub(crate) fn refuse(stream: TcpStream) {
    let message = b"server at connection capacity, retry later";
    let mut bytes = Vec::with_capacity(5 + message.len());
    bytes.extend_from_slice(&(message.len() as u32).to_be_bytes());
    bytes.push(TAG_ERROR);
    bytes.extend_from_slice(message);
    super::write_refusal(stream, &bytes);
}

/// One connection: read `Q` frames, answer each, until EOF or error.
/// A socket-timeout expiry (idle keep-alive client) closes quietly.
/// The stream arrives set up by the accept loop (nodelay, timeouts).
pub(crate) fn handle_connection(shared: &ServerShared, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut sink = StreamSink::new(BufWriter::with_capacity(1 << 16, stream));
    loop {
        let (tag, payload) = match read_frame(&mut reader, MAX_REQUEST_FRAME) {
            Ok(frame) => frame,
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Read timeout: an idle connection, not a protocol error.
                return Ok(());
            }
            Err(e) => {
                let _ = write_frame(&mut sink, TAG_ERROR, e.to_string().as_bytes());
                let _ = flush(&mut sink);
                return Err(e);
            }
        };
        if tag != TAG_QUERY {
            write_frame(
                &mut sink,
                TAG_ERROR,
                format!("unexpected frame tag {:?}", tag as char).as_bytes(),
            )?;
            flush(&mut sink)?;
            continue;
        }
        let command = String::from_utf8_lossy(&payload).into_owned();
        match answer(shared, command.trim(), &mut sink) {
            Ok(()) => {}
            Err(AnswerError::Request(message)) => {
                write_frame(&mut sink, TAG_ERROR, message.as_bytes())?;
            }
            Err(AnswerError::Io(e)) => return Err(e),
        }
        flush(&mut sink)?;
    }
}

fn flush<W: Write + Send>(sink: &mut StreamSink<W>) -> std::io::Result<()> {
    use pdgf_output::Sink as _;
    sink.finish().map(|_| ())
}

/// A request either fails cleanly (`E` frame, connection survives) or
/// the socket itself is gone.
pub(crate) enum AnswerError {
    Request(String),
    Io(std::io::Error),
}

impl From<std::io::Error> for AnswerError {
    fn from(e: std::io::Error) -> Self {
        AnswerError::Io(e)
    }
}

/// Parse and answer one command, writing the full response (data frames
/// plus terminal `Z`) to `sink`.
fn answer<W: Write + Send>(
    shared: &ServerShared,
    command: &str,
    sink: &mut StreamSink<W>,
) -> Result<(), AnswerError> {
    let words: Vec<&str> = command.split_whitespace().collect();
    let service = &shared.service;
    match words.first().copied() {
        Some("RANGE") if words.len() == 6 => {
            let (model, table) = lookup(service, words[1])?;
            let update = int32(words[2], "update")?;
            let start = int(words[3], "start")?;
            let end = int(words[4], "end")?;
            let format = format_of(words[5])?;
            stream_range(service, sink, model, table, update, start, end, format)
        }
        Some("CURSOR") if words.len() == 2 => {
            let c = Cursor::decode(words[1]).map_err(|e| AnswerError::Request(e.to_string()))?;
            if service.runtime_of(c.model).is_none() {
                return Err(AnswerError::Request(format!(
                    "cursor names unknown model slot {}",
                    c.model
                )));
            }
            stream_range(
                service, sink, c.model, c.table, c.update, c.start, c.end, c.format,
            )
        }
        Some("ROW") if words.len() == 5 => {
            let (model, table) = lookup(service, words[1])?;
            let update = int32(words[2], "update")?;
            let row = int(words[3], "row")?;
            let format = format_of(words[4])?;
            let bytes = service
                .row_bytes_in(model, table, update, row, Arc::from(format.formatter()))
                .map_err(|e| AnswerError::Request(e.to_string()))?;
            write_frame(sink, TAG_DATA, &bytes)?;
            write_frame(sink, TAG_END, b"")?;
            Ok(())
        }
        Some("INFO") if words.len() <= 2 => {
            let rt = match words.get(1) {
                Some(name) => {
                    let model = service
                        .model_index(name)
                        .ok_or_else(|| AnswerError::Request(format!("unknown model {name:?}")))?;
                    // The slot just resolved; runtime_of cannot miss.
                    service.runtime_of(model).map(Arc::clone)
                }
                None => service.runtime_of(0).map(Arc::clone),
            };
            let rt = rt.ok_or_else(|| AnswerError::Request("no models registered".into()))?;
            write_frame(sink, TAG_JSON, info_json(&rt).as_bytes())?;
            write_frame(sink, TAG_END, b"")?;
            Ok(())
        }
        Some("STATS") if words.len() <= 2 => {
            let stats = match words.get(1) {
                Some(name) => {
                    let model = service
                        .model_index(name)
                        .ok_or_else(|| AnswerError::Request(format!("unknown model {name:?}")))?;
                    service
                        .stats_of(model)
                        .ok_or_else(|| AnswerError::Request(format!("unknown model {name:?}")))?
                }
                None => service.stats(),
            };
            write_frame(sink, TAG_JSON, stats_json(&stats).as_bytes())?;
            write_frame(sink, TAG_END, b"")?;
            Ok(())
        }
        Some("PING") if words.len() == 1 => {
            write_frame(sink, TAG_JSON, b"{\"ok\":true}")?;
            write_frame(sink, TAG_END, b"")?;
            Ok(())
        }
        _ => Err(AnswerError::Request(format!(
            "unknown command {command:?} (expected RANGE/ROW/CURSOR/INFO/STATS/PING)"
        ))),
    }
}

/// Serve `start..end` with clamped admission: data frames, then — when
/// the range exceeded the per-request cap — a `C` frame carrying the
/// remainder's token, then `Z`. A stream that ends early ends with `E`.
#[allow(clippy::too_many_arguments)]
fn stream_range<W: Write + Send>(
    service: &RowService,
    sink: &mut StreamSink<W>,
    model: u32,
    table: u32,
    update: u32,
    start: u64,
    end: u64,
    format: OutputFormat,
) -> Result<(), AnswerError> {
    let admitted = service
        .submit_clamped(
            RowRequest::range(table, update, start..end).on_model(model),
            Arc::from(format.formatter()),
        )
        .map_err(|e| AnswerError::Request(e.to_string()))?;
    let mut stream = admitted.stream;
    while let Some(package) = stream.next_package() {
        write_frame(sink, TAG_DATA, &package)?;
        // Flush per package so slow readers exert backpressure on
        // their own request window, not on a server-side buffer.
        flush(sink)?;
        stream.recycle(package);
    }
    if !stream.is_complete() {
        return Err(AnswerError::Request(SubmitError::Incomplete.to_string()));
    }
    if let Some(resume_at) = admitted.resume_at {
        let token = Cursor {
            model,
            table,
            update,
            start: resume_at,
            end,
            format,
        }
        .encode();
        write_frame(sink, TAG_CURSOR, token.as_bytes())?;
    }
    write_frame(sink, TAG_END, b"")?;
    Ok(())
}

/// Resolve a `table` or `model/table` word to (model, table) indices.
fn lookup(service: &RowService, word: &str) -> Result<(u32, u32), AnswerError> {
    let (model, table) = match word.split_once('/') {
        Some((model_name, table_name)) => {
            let model = service
                .model_index(model_name)
                .ok_or_else(|| AnswerError::Request(format!("unknown model {model_name:?}")))?;
            (model, table_name)
        }
        None => (0, word),
    };
    let idx = service
        .table_index_in(model, table)
        .ok_or_else(|| AnswerError::Request(format!("unknown table {table:?}")))?;
    Ok((model, idx))
}

fn int(word: &str, what: &str) -> Result<u64, AnswerError> {
    word.parse()
        .map_err(|_| AnswerError::Request(format!("bad {what} {word:?}")))
}

fn int32(word: &str, what: &str) -> Result<u32, AnswerError> {
    word.parse()
        .map_err(|_| AnswerError::Request(format!("bad {what} {word:?}")))
}

fn format_of(word: &str) -> Result<OutputFormat, AnswerError> {
    OutputFormat::parse(word)
        .ok_or_else(|| AnswerError::Request(format!("unknown format {word:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io;

    fn frame(len: u32, tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut bytes = len.to_be_bytes().to_vec();
        bytes.push(tag);
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn oversized_length_is_rejected_before_the_payload_is_read() {
        for len in [MAX_REQUEST_FRAME + 1, u32::MAX] {
            let mut reader = io::Cursor::new(frame(len, TAG_QUERY, b"PING"));
            let err = read_frame(&mut reader, MAX_REQUEST_FRAME).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            // Only the 5-byte header was consumed: the cap is checked
            // before any payload buffer is sized from the declared length.
            assert_eq!(reader.position(), 5);
        }
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            let mut reader = io::Cursor::new(bytes);
            while let Ok((_, payload)) = read_frame(&mut reader, MAX_REQUEST_FRAME) {
                prop_assert!(payload.len() <= MAX_REQUEST_FRAME as usize);
            }
        }

        #[test]
        fn declared_lengths_are_honoured_or_rejected(
            small in 0u32..80,
            large in any::<u32>(),
            pick_small in any::<bool>(),
            payload in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let len = if pick_small { small } else { large };
            let mut reader = io::Cursor::new(frame(len, TAG_QUERY, &payload));
            match read_frame(&mut reader, MAX_REQUEST_FRAME) {
                Ok((_, got)) => prop_assert_eq!(got.as_slice(), &payload[..len as usize]),
                Err(e) if len > MAX_REQUEST_FRAME => {
                    prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    prop_assert_eq!(reader.position(), 5);
                }
                Err(e) => {
                    prop_assert!(len as usize > payload.len());
                    prop_assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                }
            }
        }
    }
}
