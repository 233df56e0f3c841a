package server

// The NDJSON connection discipline and buffered output shared by the
// streaming endpoints (batch inference results and ingest acks).
// startNDJSON sets up every such response the same way: full duplex,
// deadlines rolled forward while rows flow and cut short after a shed,
// 200 committed before the first row. Lines are appended to a byte
// slice rented from a process-wide pool for the request and handed to
// the ResponseWriter in blocks of about lineBlockBytes. Buffered lines
// reach the client — one Flush — only before the handler may block:
// before it reads more of the request body, before an admission wait,
// and when a writer goroutine finds its result channel empty. A client
// that waits for each line before sending its next row therefore gets
// the line at once, and a client that pipelines rows gets its lines in
// a few large writes instead of one write(2) per line.

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// streamDeadlineSlack is how far the connection deadlines are pushed
// ahead of a progressing stream (see startNDJSON).
const streamDeadlineSlack = 5 * time.Minute

// shedDrainSlack replaces the rolling deadline once a stream has shed:
// just enough for the final lines to flush and the connection to wind
// down. Without it, a rate-limited client could keep trickling rows and
// have each roll push the deadline minutes out — holding a connection
// (and its quota slot) open indefinitely while every row is refused.
const shedDrainSlack = 5 * time.Second

// lineBlockBytes is the pending-output size at which lines are written
// through to the ResponseWriter without waiting for a flush point.
const lineBlockBytes = 4 << 10

// maxPooledLineBytes bounds what a returned buffer may retain: blocks
// are written out at lineBlockBytes, so only a rare megabyte-class
// outlier line grows a buffer past 64 KiB, and that one is left to the
// garbage collector rather than pinned in the pool.
const maxPooledLineBytes = 64 << 10

// lineBuf is one pooled output buffer.
type lineBuf struct{ b []byte }

var linePool = sync.Pool{
	New: func() any { return &lineBuf{b: make([]byte, 0, 2*lineBlockBytes)} },
}

// lineWriter is one streaming response: its connection deadlines and
// its buffered NDJSON lines. The line methods are not safe for
// concurrent use — each request path has exactly one emitting
// goroutine; the deadline methods are.
type lineWriter struct {
	rc      *http.ResponseController
	w       http.ResponseWriter
	flusher http.Flusher
	lb      *lineBuf
	written bool // bytes handed to w since the last Flush
	failed  bool // a write failed: the client is gone
}

// startNDJSON commits a 200 NDJSON response for a streaming route and
// rents its pooled line buffer; callers must close() it. Without full
// duplex the HTTP/1 server drains the whole request body before the
// first response write, which would defeat streaming (and deadlock a
// client that waits for early lines before sending more rows). The
// server's global timeouts would sever any long stream, so the stream
// sets its own deadline and rolls it forward while rows flow; a fully
// stalled connection still dies within streamDeadlineSlack.
func startNDJSON(w http.ResponseWriter) *lineWriter {
	flusher, _ := w.(http.Flusher)
	lw := &lineWriter{rc: http.NewResponseController(w), w: w, flusher: flusher}
	_ = lw.rc.EnableFullDuplex()
	lw.deadline(streamDeadlineSlack)
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	lw.lb = linePool.Get().(*lineBuf)
	return lw
}

// roll pushes the deadlines out again at every 256th row of a
// progressing stream.
func (lw *lineWriter) roll(row int) {
	if row%256 == 0 {
		lw.deadline(streamDeadlineSlack)
	}
}

// cutOff stops the rolling once a stream has shed: the final lines get
// shedDrainSlack to flush, then the connection dies.
func (lw *lineWriter) cutOff() { lw.deadline(shedDrainSlack) }

func (lw *lineWriter) deadline(d time.Duration) {
	t := time.Now().Add(d)
	_ = lw.rc.SetReadDeadline(t)
	_ = lw.rc.SetWriteDeadline(t)
}

// buf returns the pending output for an appending encoder to extend;
// the extended slice goes back through put. An encoder that fails
// midway simply does not call put, so no partial line is ever written.
func (lw *lineWriter) buf() []byte { return lw.lb.b }

// put adopts b — the pending output plus the lines just appended to it
// — writing it through once it reaches lineBlockBytes. It reports false
// once the client is gone; callers stop streaming on false.
func (lw *lineWriter) put(b []byte) bool {
	lw.lb.b = b
	if len(b) >= lineBlockBytes {
		return lw.write()
	}
	return !lw.failed
}

// write hands the pending output to the ResponseWriter.
func (lw *lineWriter) write() bool {
	if lw.failed {
		return false
	}
	if len(lw.lb.b) == 0 {
		return true
	}
	if _, err := lw.w.Write(lw.lb.b); err != nil {
		lw.failed = true
		return false
	}
	lw.lb.b = lw.lb.b[:0]
	lw.written = true
	return true
}

// flush sends every line produced so far to the client. Call it before
// anything that may block.
func (lw *lineWriter) flush() {
	if !lw.write() {
		return
	}
	if lw.written && lw.flusher != nil {
		lw.flusher.Flush()
	}
	lw.written = false
}

// emit encodes v with encoding/json as one NDJSON line, for the rare
// lines (errors, summaries) without an appending encoder. It reports
// false when v cannot be encoded — nothing is written then, so the line
// framing is never corrupted — or the client is gone.
func (lw *lineWriter) emit(v any) bool {
	data, err := json.Marshal(v)
	if err != nil {
		return false
	}
	return lw.put(append(append(lw.lb.b, data...), '\n'))
}

// emitErr encodes a row-error line for index with the envelope code
// derived from err — the shared shape of every streaming endpoint.
func (lw *lineWriter) emitErr(index int, err error) bool {
	_, code := errStatus(err)
	return lw.emit(lineError{Index: index, Error: errorInfo{Code: code, Message: err.Error()}})
}

// close writes out what is still pending (the server flushes it when
// the handler returns) and returns the buffer to the pool, unless an
// outlier line grew it past maxPooledLineBytes.
func (lw *lineWriter) close() {
	if lw.lb == nil {
		return
	}
	lw.write()
	if cap(lw.lb.b) <= maxPooledLineBytes {
		lw.lb.b = lw.lb.b[:0]
		linePool.Put(lw.lb)
	}
	lw.lb = nil
}

// recvFlushing receives the next value for a writer goroutine, flushing
// the buffered lines first when none is ready: the writer is about to
// block, so the client must already hold every line produced so far.
func recvFlushing[T any](lw *lineWriter, ch <-chan T) (T, bool) {
	select {
	case v, ok := <-ch:
		return v, ok
	default:
	}
	lw.flush()
	v, ok := <-ch
	return v, ok
}

// flushBeforeRead runs flush before every read of the request body: a
// handler that reads rows on the goroutine that writes their lines may
// block there waiting for a client that is itself waiting for a line.
type flushBeforeRead struct {
	r     io.Reader
	flush func()
}

func (f flushBeforeRead) Read(p []byte) (int, error) {
	f.flush()
	return f.r.Read(p)
}
